// The same loop instrumentation outside the kernel scope: the
// serving layer may time and log per iteration freely.
package fixture

import (
	"log/slog"
	"time"
)

// ServeLoop times and logs each request; fine outside the hot path.
func ServeLoop(reqs []string) {
	for _, r := range reqs {
		start := time.Now()
		slog.Info("request", "path", r, "dur", time.Since(start))
	}
}
