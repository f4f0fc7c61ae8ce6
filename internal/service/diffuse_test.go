package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// diffuseGraphs builds the graphs TestDiffusePinned serves beside the
// fixture "ring" (unit weights): one with quarter-valued weights (the
// float32-exact form), one with full float64 weights, and a unit graph
// whose last node has no edge.
func diffuseGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(49))
	build := func(n int, weight func() float64) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 1; u < n; u++ {
			b.AddWeightedEdge(u, rng.Intn(u), weight()) // a spanning tree
		}
		for range 2 * n {
			b.AddWeightedEdge(rng.Intn(n), rng.Intn(n), weight())
		}
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		return g
	}
	isolated := graph.NewBuilder(13)
	for u := 0; u < 11; u++ {
		isolated.AddEdge(u, u+1)
		isolated.AddEdge(u, (u+5)%12)
	}
	g, err := isolated.Build()
	if err != nil {
		panic(err)
	}
	quarter := build(30, func() float64 { return float64(1+rng.Intn(12)) / 4 })
	float64s := build(30, func() float64 { return 0.05 + rng.Float64() })
	return map[string]*graph.Graph{"quarter": quarter, "float64": float64s, "isolated": g}
}

// diffuseRequests are the bodies TestDiffusePinned posts to every
// graph: each kind at its defaults, then with its knobs moved (t,
// gamma, alpha and k, topk small), the lazy walk at both ends of alpha,
// a seed on node 12 (the isolated node of "isolated") and a seed out of
// range.
var diffuseRequests = []api.DiffuseRequest{
	{Seeds: []int{0}},
	{Kind: "heat", Seeds: []int{0, 5}, T: 0.5, TopK: 3},
	{Kind: "heat", Seeds: []int{1}, T: 17},
	{Kind: "heat", Seeds: []int{12}},
	{Kind: "ppr", Seeds: []int{0}},
	{Kind: "ppr", Seeds: []int{0, 5}, Gamma: 0.6, TopK: 3},
	{Kind: "ppr", Seeds: []int{12}},
	{Kind: "lazy", Seeds: []int{0}},
	{Kind: "lazy", Seeds: []int{0, 5}, Alpha: 0.1, K: 7, TopK: 3},
	{Kind: "lazy", Seeds: []int{2}, Alpha: 0.9, K: 25},
	{Kind: "lazy", Seeds: []int{2}, Alpha: 1},
	{Kind: "lazy", Seeds: []int{12}, Alpha: 0.3},
	{Kind: "lazy", Seeds: []int{99}},
}

// diffusePins holds, per graph, the status and the sha256 of the reply
// bytes of each of diffuseRequests.
var diffusePins = map[string][]string{
	"ring": {
		"200 ae0c2ff74e8d6fe0cc865829ba5bdd1745e2685925c0a0c0209725dd208e8aa1",
		"200 4e2a5ff066495c58e32f6995c7ddf10c582464d16f8a9cf1935c24fdb25f41bb",
		"200 0d2ae71ca257e01ffd781a3d78ed0bd1807986e9c9f7b38d72b00cb862f6a9ac",
		"200 ac696ff78e98d7ec6c992fcc617ee480d224b85321e00d73d0153a7a49af0933",
		"200 4f55bc85a93af5f5767136ae16c412b5caf9939821068c5adf9c21411c16f222",
		"200 c9a8f5fd8c030239f08df502dda51f3531e71ac48dceb10f70e4b91e6bb49084",
		"200 747726b33a500f846178f09779555d757784dcdfd65cceb7f32e751210aadc43",
		"200 c18758faccfc6b49599b39ddba1fb71251bbfed9a516bfca5ecfe8103efe7a5c",
		"200 b1fb66951d0512182ec3d907088fbad67725ddc1fbdce0710704074892c98eeb",
		"200 d1b23c8661c8c571829d25e7aa7b5a02f46723ddba157f698ee8e905bf84eef0",
		"200 40d02dcf131bc016614329f0147041252f56157946f052300c4cc007c574f62b",
		"200 9a4e2f7fbacd2e8420ea0cb4ada44a4b0e908cac96a2c64873acc51e6917bd28",
		"400 438750088a1f5740b641a964229f490256ed78f5649011b316abfade01df6fae",
	},
	"quarter": {
		"200 e0eae73528d7e38523e2417a4fe6e30fbb35e29cb1256d026dc463313557854d",
		"200 29297eb908338ec38923dbe901efaced9e8cde4d701f7714b43b5dac10ebcfe7",
		"200 5208f5caaed925f774f4249b2d89fe6fe0928df47624b8cdfb22eff2d654fc27",
		"200 01b68a69fb3420b208049a7257bd91c448ba8df6fdc41e3751f7b060247f4d50",
		"200 a24dc0a8290701800d6337de9d39e792fe177d67e1a612a866567bf1cdd4665f",
		"200 1274ce083802b732e32369aea79c07e406d1f8f8d588af9f322ad898345c6748",
		"200 71ba38ae006a1d55c7e7e6f7f7b592e93461054ae3e8ddc7db0ac4ddd8bd5c4b",
		"200 9bdd8b743d5452a695e7de7336fe2d4d2ca7a38bc95a996944c8e9602fa40313",
		"200 2ebc8d62aa4aadd6e7e61918782398cbd8b2eee2ddff7e124a259ff71af8376d",
		"200 4ea8cde95423ae9e42facca1dc1548a72411625b6209e539d1342cabe2329483",
		"200 40d02dcf131bc016614329f0147041252f56157946f052300c4cc007c574f62b",
		"200 8622b4ac4b3a8857b934a9988f337a1d9b4974ff6cf332dbadd04968bf887852",
		"400 6726ec6cf34695b8f01017b8d72efa3d6f056a8e21c287c2776e983b2abc90d6",
	},
	"float64": {
		"200 6060388bfb586e7d1e35e38bf545b23c3280fce48ba4e662a5eda6ec6cc0f123",
		"200 46b444f2d0b02adcdd12c55035d2a8b2d64583677822aa30697dedd314d25c18",
		"200 b52b5a4dceb8353497559ecb4f58778d0542fa6b6f85f2837680e0c4dce27dea",
		"200 4e6aaaec24f655c7eeedb7cd21d082b94ff93d44cf8f0f1cc79a30d978ce269d",
		"200 df1b358a48c7718e235fbcd9a828c2831fb562a99321f0ac1a37dece62465091",
		"200 2f8213d73b82a206f9d18fa7b77f3697273729f1647db65f34bb66edb6bdbc04",
		"200 520cbc04b026855140eeab83829963d7939fd3e92b0635939d7f661451c92f62",
		"200 2d0dfdb412dd9bbf60fb63b333ea7f995fb987065d4c9d54573eabe0dbcddd24",
		"200 b567b31106c6d0aba5f93aaa58c3481cebe8895062d1fa528b29c65ac1c53889",
		"200 423a9a9cfae6e613c7a2311b6dd04489ec0d7903deee4bfad81de13d4d4441a3",
		"200 40d02dcf131bc016614329f0147041252f56157946f052300c4cc007c574f62b",
		"200 6c54a15790cefe845c7ce3ce9483a5e4ce5dab1ba54daf555f9bc97a228e7448",
		"400 6726ec6cf34695b8f01017b8d72efa3d6f056a8e21c287c2776e983b2abc90d6",
	},
	"isolated": {
		"200 d8b9efa73c1e71fe4dac6b0af541a0dde1e8d5374b03e4dc4c0f3a70fcc133e1",
		"200 b54872c597a3f93bcf961b6795c6eb5f6ebef8ef99aa5151ce5f2c37afaf3d8f",
		"200 6c754250ef7c03de836d3c0c262634afdef53a2af5f5465a5055a06f93d48003",
		"200 b6f1966dc1645dbf5e3e257633e834045d84149ff1c9f94281484f8a535aea21",
		"200 b0a0c91a15ac35d126949ba6e4a7cf6fb435e951a7ea9f2e71d883a191d16e52",
		"200 d807a0649320607708acbe52e294aef8f069e32f7ded0745b7c6b1e3d02b1151",
		"200 da3b1a7df12f759e563cf29c7214db98e0e36e3f756a0f4d52c3fc0503c0c23d",
		"200 5f995138a9e0587a6c244969ced10a1cde7701934f36b00fa913c71b620d4147",
		"200 06f014d5abb78c835fa45913bacc8e894641e072f0faf2aed70912aab4faa89c",
		"200 ce7169573a078da37d6a200752c9296d515eeca780beba00239a80fee7c14e48",
		"200 40d02dcf131bc016614329f0147041252f56157946f052300c4cc007c574f62b",
		"200 696747887bae8b9415d609db7fe545a7eff9bc514809661133301f070078caf5",
		"400 ef2675a88ef0b35153a56c4c3b2211f17834b13c788b16f9842524920fa39d1e",
	},
}

// TestDiffusePinned: diffuse replies over unit, quarter-valued and
// float64 weights and a graph with an isolated node keep their status
// and bytes.
func TestDiffusePinned(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	for name, g := range diffuseGraphs() {
		if _, err := srv.Store().Put(name, gstore.Wrap(g)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"ring", "quarter", "float64", "isolated"} {
		pins := diffusePins[name]
		if len(pins) != len(diffuseRequests) {
			t.Fatalf("%s: %d pins for %d requests", name, len(pins), len(diffuseRequests))
		}
		for i, req := range diffuseRequests {
			status, body, _ := postWire(t, ts.URL+"/v1/graphs/"+name+"/diffuse", req)
			if got := fmt.Sprintf("%d %x", status, sha256.Sum256(body)); got != pins[i] {
				t.Errorf("%s %+v: got %s, pinned %s\n%s", name, req, got, pins[i], body)
			}
		}
	}
}

// TestDiffuseRefusesAlphaOutsideUnitInterval: a diffuse alpha outside
// [0,1] is the request's own invalid_argument, worded like its other
// knobs and refused for every kind, before any diffusion runs.
func TestDiffuseRefusesAlphaOutsideUnitInterval(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	for _, c := range []struct {
		body, want string
	}{
		{`{"kind":"lazy","seeds":[0],"alpha":1.5}`, "alpha=1.5 outside [0,1]"},
		{`{"kind":"lazy","seeds":[0],"alpha":-0.25}`, "alpha=-0.25 outside [0,1]"},
		{`{"kind":"heat","seeds":[0],"alpha":2}`, "alpha=2 outside [0,1]"},
	} {
		status, body, _ := postWire(t, ts.URL+"/v1/graphs/ring/diffuse", json.RawMessage(c.body))
		var reply struct{ Error api.Error }
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("%s: %v in %s", c.body, err, body)
		}
		if e := reply.Error; status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument || e.Message != c.want {
			t.Errorf("%s: %d %s, want 400 invalid_argument %q", c.body, status, body, c.want)
		}
	}
}
