package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"emts/internal/daggen"
)

// perfConfigs enumerates the cross-request performance layer's A/B corners:
// every switch in both positions. Responses must be byte-identical across all
// of them.
func perfConfigs() map[string]Config {
	return map[string]Config{
		"all-on":      {Workers: 2},
		"no-intern":   {Workers: 2, DisableInterning: true},
		"no-pool":     {Workers: 2, DisablePooling: true},
		"no-governor": {Workers: 2, DisableGovernor: true},
		"all-off":     {Workers: 2, DisableInterning: true, DisablePooling: true, DisableGovernor: true},
	}
}

// TestPerfLayerBitIdentical is the server-level determinism meta-test of
// DESIGN.md §12: for a fixed request stream, every combination of interning,
// pooling, and governor must produce byte-identical response bodies.
func TestPerfLayerBitIdentical(t *testing.T) {
	graph := testGraphJSON(t)
	var requests [][]byte
	for _, algo := range []string{"emts5", "mcpa"} {
		for seed := int64(1); seed <= 3; seed++ {
			requests = append(requests, []byte(fmt.Sprintf(
				`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":%q,"seed":%d}`, graph, algo, seed)))
		}
	}
	// The request set is replayed twice per server so warm-path code (intern
	// hits, pooled mappers) actually executes; the response cache would mask
	// it, so it is disabled.
	var baseline [][]byte
	for _, name := range []string{"all-on", "no-intern", "no-pool", "no-governor", "all-off"} {
		cfg := perfConfigs()[name]
		cfg.CacheEntries = -1
		s, ts := newTestServer(t, cfg)
		_ = s
		var bodies [][]byte
		for round := 0; round < 2; round++ {
			for _, req := range requests {
				resp := post(t, ts.URL, req)
				b := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
				}
				bodies = append(bodies, b)
			}
		}
		if baseline == nil {
			baseline = bodies
			continue
		}
		for i := range bodies {
			if !bytes.Equal(bodies[i], baseline[i]) {
				t.Fatalf("%s: response %d differs from the all-on baseline:\n%s\nvs\n%s",
					name, i, bodies[i], baseline[i])
			}
		}
	}
}

// TestInternedGraphStress hammers one interned graph from many goroutines —
// all requests share a single dag.Graph and model.Table instance, so this is
// the -race proof that interned objects are safe for concurrent use.
func TestInternedGraphStress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheEntries: -1})
	graph := testGraphJSON(t)

	const goroutines = 8
	const perG = 10
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Few distinct seeds: every goroutine computes on the shared
				// graph/table instead of replaying cached bodies.
				body := []byte(fmt.Sprintf(
					`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":%d}`, graph, i%3))
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", w, resp.StatusCode, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if hits, _ := s.graphs.Stats(); hits == 0 {
		t.Error("no graph-intern hits after hammering one graph")
	}
	if hits, _ := s.tables.Stats(); hits == 0 {
		t.Error("no table-intern hits after hammering one graph")
	}
	if hits, _ := s.pool.Stats(); hits == 0 {
		t.Error("no mapper-pool hits after repeated EMTS runs")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, resp))
	for _, series := range []string{
		"emts_intern_graph_hits_total", "emts_intern_table_hits_total",
		"emts_mapper_pool_hits_total", "emts_governor_tokens_capacity",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s:\n%s", series, metrics)
		}
	}
}

// TestInternedHeader checks the X-Emts-Interned response header: absent on
// first sight, "graph,table" once both caches are warm.
func TestInternedHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	body := scheduleBody(t, "mcpa", 7)

	first := post(t, ts.URL, body)
	readAll(t, first)
	if got := first.Header.Get("X-Emts-Interned"); got != "" {
		t.Fatalf("first request interned header %q, want empty", got)
	}
	second := post(t, ts.URL, body)
	readAll(t, second)
	if got := second.Header.Get("X-Emts-Interned"); got != "graph,table" {
		t.Fatalf("warm request interned header %q, want graph,table", got)
	}
}

// computeJob builds a job for s.compute directly (bypassing HTTP), the warm
// schedule path the allocation regression measures.
func computeJob(t testing.TB, s *Server, body []byte) *job {
	t.Helper()
	p, err := parseScheduleRequest(body, 0, 0, s.graphs)
	if err != nil {
		t.Fatal(err)
	}
	return &job{ctx: context.Background(), parsed: p}
}

// TestWarmRequestAllocations extends PR 1's zero-alloc regression to the full
// server schedule path: once graph, table, and mappers are warm, a repeat
// request must allocate several times less than the everything-disabled
// configuration. The workload is the repeat-structure benchmark shape (one
// 300-task irregular PTG, many seeds), where the warm path skips JSON decode,
// graph construction, V×P table evaluation, and Mapper construction; what
// remains is EA-inherent per-run state (population clones, memo maps) plus
// the response marshal, which both paths pay. The precise factor is recorded
// in artifacts/BENCH_PR5.json; this floor is conservative so the test stays
// green across toolchains.
func TestWarmRequestAllocations(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 300, Width: 0.5, Regularity: 0.8, Density: 0.5, Jump: 1,
	}, daggen.DefaultCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(
		`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":11}`, raw))

	warmSrv := New(Config{Workers: 1, CacheEntries: -1})
	defer warmSrv.Shutdown(context.Background())
	coldSrv := New(Config{Workers: 1, CacheEntries: -1,
		DisableInterning: true, DisablePooling: true, DisableGovernor: true})
	defer coldSrv.Shutdown(context.Background())

	measure := func(s *Server) float64 {
		// Warm-up run: populates interns and the mapper pool where enabled.
		if res := s.compute(computeJob(t, s, body)); res.code != http.StatusOK {
			t.Fatalf("warm-up compute: %d %s", res.code, res.body)
		}
		return testing.AllocsPerRun(10, func() {
			if res := s.compute(computeJob(t, s, body)); res.code != http.StatusOK {
				t.Fatalf("compute: %d %s", res.code, res.body)
			}
		})
	}
	warm := measure(warmSrv)
	cold := measure(coldSrv)
	t.Logf("allocations per request: warm path %.0f, cold path %.0f (%.1fx)", warm, cold, cold/warm)
	if warm*3 > cold {
		t.Errorf("warm path allocates %.0f/request vs %.0f cold — want at least a 3x reduction", warm, cold)
	}
}
