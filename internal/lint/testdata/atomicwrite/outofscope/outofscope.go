// os.Create outside the persistence packages is ordinary output
// handling (CLIs writing result files) and is not flagged.
package fixture

import "os"

// WriteReport creates a plain output file, as gengraph and experiments do.
func WriteReport(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
