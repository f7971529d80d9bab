// Command perfbench is the repository's benchmark. It runs one named
// workload against the code in this checkout — the library, or the serving
// tier (emts-router in front of two emts-serve backends) in one process with
// the shipped default configuration — checks every answer, and prints the
// end-to-end figures (untraced run) or the per-layer figures (traced run).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload offline-emts10 --seed 1 --seconds 15 --trace 0
//
// Workloads: offline-emts10, serve-compute, serve-cached, jobs-islands (see
// README.md in this directory). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A traced run also
// writes its spans to .bench_build/spans/<workload>-seed<N>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// setupRounds is how many times each run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRounds = 5

// bench is one set-up workload, ready to measure.
type bench interface {
	// run measures for d (and until the workload's fixed prefix of
	// operations is done). tr is nil in untraced runs.
	run(d time.Duration, tr *tracer) (*sample, error)
	// replayRequests lists the distinct requests a traced run replays
	// through the backend's public functions (nil for the library workload).
	replayRequests() []replayReq
	close() error
}

// workload is a named benchmark input.
type workload struct {
	name string
	// tailPct is the percentile latency_tail_ms reports; every run checks
	// that at least ten samples lie beyond it.
	tailPct float64
	setup   func(seed int64, tr *tracer) (bench, error)
}

var workloads = []workload{
	{"offline-emts10", 95, setupOffline},
	{"serve-compute", 99, func(seed int64, tr *tracer) (bench, error) { return setupServing(false, seed, tr) }},
	{"serve-cached", 99, func(seed int64, tr *tracer) (bench, error) { return setupServing(true, seed, tr) }},
	{"jobs-islands", 90, setupJobs},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the machine shape recorded with every result.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func main() {
	name := flag.String("workload", "", "workload name: offline-emts10, serve-compute, serve-cached or jobs-islands")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer figures")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload offline-emts10|serve-compute|serve-cached|jobs-islands, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	h := hostShape(w.name, *seed, *seconds, *trace == 1)
	hj, _ := json.Marshal(h) // plain struct of strings and numbers
	fmt.Printf("host %s\n", hj)
	rep, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding report:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp sets the workload up setupRounds times, closing all but the last,
// and returns the last with the median set-up time in seconds.
func setUp(w *workload, seed int64, tr *tracer) (bench, float64, error) {
	var durs []float64
	var b bench
	for r := 0; r < setupRounds; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, fmt.Errorf("closing set-up %d: %w", r, err)
			}
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed, tr); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return b, median(durs), nil
}

// measured is a run plus the process-level counters around it.
type measured struct {
	s          *sample
	allocBytes uint64
	gcCycles   uint64
}

func measure(b bench, d time.Duration, tr *tracer) (*measured, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCycles()
	s, err := b.run(d, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	return &measured{s: s, allocBytes: m1.TotalAlloc - m0.TotalAlloc, gcCycles: gcCycles() - gc0}, nil
}

func gcCycles() uint64 {
	sm := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sm)
	return sm[0].Value.Uint64()
}

func runWorkload(w *workload, seed int64, d time.Duration, traced bool) (_ *report, err error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	b, setupS, err := setUp(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing the workload: %w", cerr)
		}
	}()
	rep := &report{Metrics: make(map[string]metricValue)}
	var samples []*sample

	if !traced {
		m, err := measure(b, d, nil)
		if err != nil {
			return nil, err
		}
		s := m.s
		samples = append(samples, s)
		if err := checkPercentile(len(s.lat), w.tailPct); err != nil {
			return nil, fmt.Errorf("latency_tail_ms: %w", err)
		}
		ratioGM, err := geomean(s.ratios)
		if err != nil {
			return nil, fmt.Errorf("makespan_vs_mcpa: %w", err)
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"setup_s":          setupS,
			"ops_per_s":        s.windowRate(),
			"latency_p50_ms":   s.windowMedianLatency(),
			"latency_tail_ms":  percentile(s.lat, w.tailPct),
			"success_rate":     ratio(float64(s.attempted-s.failed), float64(s.attempted)),
			"makespan_vs_mcpa": ratioGM,
			"alloc_kb_per_op":  float64(m.allocBytes) / 1024 / float64(s.done),
			"peak_rss_mb":      rss,
		}
		for _, def := range endToEnd {
			rep.Metrics[def.name] = metricValue{vals[def.name], def.unit}
		}
		fmt.Printf("samples %d latencies, tail = p%g\n", len(s.lat), w.tailPct)
		if len(s.phase["first_event"]) > 0 {
			fmt.Printf("jobs first_event_p50_ms %.4g, cancel_p50_ms %.4g\n", medianOf(s.phase["first_event"]), medianOf(s.phase["cancel"]))
		}
	} else {
		// Half the time untraced, half traced: the difference in throughput
		// is the tracing overhead.
		plain, err := measure(b, d/2, nil)
		if err != nil {
			return nil, err
		}
		withSpans, err := measure(b, d/2, tr)
		if err != nil {
			return nil, err
		}
		samples = append(samples, plain.s, withSpans.s)
		if err := replayLayers(b, tr, withSpans.s); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		vals := layerFigures(spans, withSpans.s)
		vals["runtime.gc_per_kop"] = 1000 * ratio(float64(plain.gcCycles), float64(plain.s.done))
		vals["trace.overhead_pct"] = 100 * (1 - withSpans.s.windowRate()/plain.s.windowRate())
		for _, def := range perLayer {
			rep.Metrics[def.name] = metricValue{vals[def.name], def.unit}
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
	}

	for _, s := range samples {
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		for _, e := range s.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// replayLayers runs the traced run's after-measurement passes: the replay of
// the distinct requests through the backend's public functions, and for the
// serve-* workloads the direct-to-owner sample behind route.proxy_ms.
func replayLayers(b bench, tr *tracer, s *sample) error {
	if reqs := b.replayRequests(); len(reqs) > 0 {
		if err := replayServing(tr, reqs); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if sv, ok := b.(*serving); ok {
		proxy, err := sv.proxySample(5)
		if err != nil {
			return err
		}
		s.layer["route.proxy_ms"] = proxy
	}
	return nil
}

// hostShape describes the machine and build a result came from.
func hostShape(name string, seed int64, seconds int, traced bool) host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
