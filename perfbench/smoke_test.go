package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke sets every workload up, runs it briefly untraced and
// traced, and checks that every operation passed its correctness checks
// and that the traced run reports every per-layer figure.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving tier")
	}
	t.Chdir(t.TempDir()) // traced runs write their spans under .bench_build/
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := b.run(100*time.Millisecond, nil)
			if cerr := b.close(); cerr != nil {
				t.Errorf("close: %v", cerr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 || s.done == 0 || len(s.ratios) == 0 {
				t.Fatalf("untraced: done %d, failed %d (%v), %d ratios", s.done, s.failed, s.errs, len(s.ratios))
			}
			if gm, err := geomean(s.ratios); err != nil || gm > 1 {
				t.Errorf("makespan_vs_mcpa = %v, %v; EMTS must not lose to its MCPA seed", gm, err)
			}

			rep, err := runWorkload(w, 7, 200*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, def := range perLayer {
				if _, ok := rep.Metrics[def.name]; !ok {
					t.Errorf("traced run lacks %s", def.name)
				}
			}
			if _, err := os.Stat(filepath.Join(".bench_build", "spans", w.name+"-seed7.jsonl")); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
