package server

import (
	"testing"

	"emts/internal/intern"
)

// FuzzDecodeScheduleRequest hammers the /v1/schedule request decoder: it must
// never panic, and whatever it accepts must be internally consistent (resolved
// cluster, canonical key, acyclic graph with in-range edges) and within the
// table-cell budget.
func FuzzDecodeScheduleRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1,"alpha":0.5},{"flops":2}],"edges":[[0,1]]},"cluster":{"procs":4,"speed_gflops":2.5},"model":"amdahl","algorithm":"emts10","seed":7,"timeout_ms":100}`,
		`{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[1,0]]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[],"edges":[]},"cluster":{"preset":"grelon"}}`,
		`{"graph":{"tasks":[{"flops":-1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1,"alpha":2}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1}],"edges":[[0,0]]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1},{"flops":2}]},"cluster":{"procs":200000000,"speed_gflops":1}}`,
		`[1,2,3]`,
		`nonsense`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	graphs := intern.NewGraphs(16)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseScheduleRequest(data, 1000, 0, nil)
		// The interned path must accept and reject exactly the same inputs and
		// produce the same canonical key.
		pi, erri := parseScheduleRequest(data, 1000, 0, graphs)
		if (err == nil) != (erri == nil) {
			t.Fatalf("intern changed acceptance: plain err=%v, interned err=%v", err, erri)
		}
		if err != nil {
			return
		}
		if pi.key != p.key || pi.graphKey != p.graphKey {
			t.Fatalf("intern changed canonical keys: %s/%s vs %s/%s", p.key, p.graphKey, pi.key, pi.graphKey)
		}
		// Accepted requests must be fully resolved.
		if p.graph == nil || p.graph.NumTasks() == 0 {
			t.Fatal("accepted request with empty graph")
		}
		if p.cluster.Procs <= 0 || p.cluster.SpeedGFlops <= 0 {
			t.Fatalf("accepted request with unresolved cluster %+v", p.cluster)
		}
		if cells := int64(p.graph.NumTasks()) * int64(p.cluster.Procs); cells > maxTableCells {
			t.Fatalf("accepted a %d-cell table (%d tasks × %d procs), budget %d",
				cells, p.graph.NumTasks(), p.cluster.Procs, maxTableCells)
		}
		if p.model == "" || p.algorithm == "" {
			t.Fatal("accepted request without model/algorithm defaults")
		}
		if len(p.key) != 64 {
			t.Fatalf("canonical key %q is not a sha256 hex digest", p.key)
		}
		n := p.graph.NumTasks()
		for _, e := range p.graph.Edges() {
			if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
				t.Fatalf("edge %v out of range for %d tasks", e, n)
			}
		}
		if _, err := p.graph.TopologicalOrder(); err != nil {
			t.Fatalf("accepted cyclic graph: %v", err)
		}
	})
}
