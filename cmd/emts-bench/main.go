// Command emts-bench runs the repo's Go benchmarks and emits the results as
// machine-readable JSON, so perf numbers can be committed as artifacts
// (artifacts/BENCH_PR3.json) and diffed across commits instead of living in
// free-text logs.
//
// It shells out to `go test -run ^$ -bench <pattern> -benchmem` and parses
// the standard benchmark output: the header lines (goos/goarch/pkg/cpu), and
// one record per benchmark with iterations, ns/op, B/op, allocs/op, and any
// custom b.ReportMetric pairs (cache_hit_rate, prefilter_reject_rate, ...).
//
// With -curve it additionally runs the per-individual cost-curve benchmark
// (BenchmarkPerIndividual: λ ∈ {25, 100, 400}, batch vs scalar dispatch) and
// distills the ns/individual metrics into a "curve" section — one point per
// λ with both dispatch costs and their ratio — so the flattening effect of
// the batch path (ROADMAP item 5) is directly visible in the committed
// artifact.
//
// With -islands it additionally runs the island-count scaling benchmark
// (BenchmarkEMTSIslands) and distills the ns/generation metrics into an
// "islands" section — one point per island count with the per-island cost
// and the search-throughput ratio against the single population — so the
// island model's scaling (DESIGN.md §17) lands in the committed artifact
// (artifacts/BENCH_PR10.json).
//
// Usage:
//
//	emts-bench -bench 'EMTS5Instance$' -benchtime 1x
//	emts-bench -bench 'BenchmarkEMTS' -benchtime 2s -out artifacts/BENCH_PR3.json
//	emts-bench -bench 'EMTS(5|10)Instance(NoBatch)?$' -curve -out artifacts/BENCH_PR6.json
//	emts-bench -bench 'EMTS(5|10)Instance$' -islands 1,2,4,8 -out artifacts/BENCH_PR10.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkEMTS", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value (e.g. 1s, 100x)")
		count     = flag.Int("count", 1, "go test -count value")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "-", "output file, or - for stdout")
		curve     = flag.Bool("curve", false, "also run BenchmarkPerIndividual and emit a per-λ batch-vs-scalar cost curve")
		islands   = flag.String("islands", "", "comma-separated island counts (e.g. 1,2,4,8): also run BenchmarkEMTSIslands and emit an islands scaling curve")
		note      = flag.String("note", "", "free-text annotation recorded in the report (host caveats, run conditions)")
	)
	flag.Parse()
	if err := run(*bench, *benchtime, *count, *pkg, *out, *curve, *islands, *note); err != nil {
		fmt.Fprintln(os.Stderr, "emts-bench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime string, count int, pkg, out string, curve bool, islands, note string) error {
	rep, err := goBench(bench, benchtime, count, pkg)
	if err != nil {
		return err
	}
	rep.Note = note
	if curve {
		crep, err := goBench("^BenchmarkPerIndividual$", benchtime, count, pkg)
		if err != nil {
			return fmt.Errorf("curve run: %w", err)
		}
		rep.Benchmarks = append(rep.Benchmarks, crep.Benchmarks...)
		rep.Curve, err = buildCurve(crep.Benchmarks)
		if err != nil {
			return err
		}
	}
	if islands != "" {
		counts, err := parseIslandCounts(islands)
		if err != nil {
			return err
		}
		irep, err := goBench("^BenchmarkEMTSIslands$", benchtime, count, pkg)
		if err != nil {
			return fmt.Errorf("islands run: %w", err)
		}
		rep.Benchmarks = append(rep.Benchmarks, irep.Benchmarks...)
		rep.Islands, err = buildIslandCurve(irep.Benchmarks, counts)
		if err != nil {
			return err
		}
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// goBench runs one `go test -bench` invocation and parses its output.
func goBench(bench, benchtime string, count int, pkg string) (*Report, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return parseBench(strings.NewReader(string(raw)))
}

// Report is the JSON document: the benchmark environment plus one record per
// benchmark line, in output order.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Curve is the per-individual cost curve (one point per λ), present only
	// with -curve.
	Curve []CurvePoint `json:"curve,omitempty"`
	// Islands is the island-count scaling curve (one point per island
	// count), present only with -islands.
	Islands []IslandPoint `json:"islands,omitempty"`
}

// CurvePoint is one λ of the per-individual cost curve: the amortized cost of
// evaluating one offspring under scalar and batch dispatch, and their ratio.
type CurvePoint struct {
	Lambda           int     `json:"lambda"`
	ScalarNsPerIndiv float64 `json:"scalar_ns_per_individual"`
	BatchNsPerIndiv  float64 `json:"batch_ns_per_individual"`
	ScalarOverBatch  float64 `json:"scalar_over_batch"`
}

// IslandPoint is one island count of the scaling curve. A generation of an
// N-island run advances all N populations (N×λ offspring), so
// per_island_ns_per_generation is the amortized cost of one population step
// and throughput_vs_single = N × ns_gen(1) / ns_gen(N) is the search-
// throughput ratio against the classic single population: ≈N when the
// islands fully hide behind spare cores, ≈1 on a single core (parity —
// islands then cost exactly their extra work). NoStealNsPerGeneration, when
// present, is the A/B control with work stealing disabled at the same
// island count.
type IslandPoint struct {
	Islands                int     `json:"islands"`
	NsPerOp                float64 `json:"ns_per_op"`
	NsPerGeneration        float64 `json:"ns_per_generation"`
	PerIslandNsPerGen      float64 `json:"per_island_ns_per_generation"`
	ThroughputVsSingle     float64 `json:"throughput_vs_single"`
	NoStealNsPerGeneration float64 `json:"nosteal_ns_per_generation,omitempty"`
}

// parseIslandCounts parses the -islands flag value.
func parseIslandCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad island count %q in -islands", part)
		}
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts, nil
}

// buildIslandCurve distills BenchmarkEMTSIslands sub-benchmark results
// (BenchmarkEMTSIslands/islands4-8, BenchmarkEMTSIslands/islands4nosteal-8,
// each reporting an "ns/generation" metric) into one IslandPoint per
// requested count. A requested count with no measurement is an error, not a
// silent gap; the curve needs islands=1 as the throughput baseline.
func buildIslandCurve(benchmarks []Benchmark, counts []int) ([]IslandPoint, error) {
	type meas struct {
		nsPerOp, nsPerGen float64
		noSteal           float64
		ok                bool
	}
	byCount := map[int]*meas{}
	get := func(n int) *meas {
		m := byCount[n]
		if m == nil {
			m = &meas{}
			byCount[n] = m
		}
		return m
	}
	for _, b := range benchmarks {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkEMTSIslands/islands")
		if !ok {
			continue
		}
		// Strip the -<procs> suffix go test appends for GOMAXPROCS>1.
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			rest = rest[:i]
		}
		noSteal := false
		if s, ok := strings.CutSuffix(rest, "nosteal"); ok {
			rest, noSteal = s, true
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("unrecognized islands benchmark name %q", b.Name)
		}
		ns, ok := b.Metrics["ns/generation"]
		if !ok {
			return nil, fmt.Errorf("islands benchmark %q reported no ns/generation metric", b.Name)
		}
		m := get(n)
		if noSteal {
			m.noSteal = ns
		} else {
			m.nsPerOp, m.nsPerGen, m.ok = b.NsPerOp, ns, true
		}
	}
	single, ok := byCount[1]
	if !ok || !single.ok {
		return nil, fmt.Errorf("islands curve needs the islands1 baseline measurement")
	}
	curve := make([]IslandPoint, 0, len(counts))
	for _, n := range counts {
		m := byCount[n]
		if m == nil || !m.ok {
			return nil, fmt.Errorf("island count %d requested but not measured", n)
		}
		curve = append(curve, IslandPoint{
			Islands:                n,
			NsPerOp:                m.nsPerOp,
			NsPerGeneration:        m.nsPerGen,
			PerIslandNsPerGen:      m.nsPerGen / float64(n),
			ThroughputVsSingle:     float64(n) * single.nsPerGen / m.nsPerGen,
			NoStealNsPerGeneration: m.noSteal,
		})
	}
	return curve, nil
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds b.ReportMetric pairs keyed by unit, e.g.
	// "cache_hit_rate" or "prefilter_reject_rate".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// buildCurve distills BenchmarkPerIndividual sub-benchmark results
// (BenchmarkPerIndividual/batch/lambda100-8 etc., each reporting an
// "ns/individual" metric) into one CurvePoint per λ. Both dispatch modes must
// be present for every λ; a half-measured point is an error, not a silent gap.
func buildCurve(benchmarks []Benchmark) ([]CurvePoint, error) {
	type pair struct {
		scalar, batch       float64
		hasScalar, hasBatch bool
	}
	pairs := map[int]*pair{}
	var lambdas []int
	for _, b := range benchmarks {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkPerIndividual/")
		if !ok {
			continue
		}
		mode, rest, ok := strings.Cut(rest, "/lambda")
		if !ok {
			return nil, fmt.Errorf("unrecognized curve benchmark name %q", b.Name)
		}
		// Strip the -<procs> suffix go test appends for GOMAXPROCS>1.
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			rest = rest[:i]
		}
		lambda, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("bad λ in curve benchmark name %q: %w", b.Name, err)
		}
		ns, ok := b.Metrics["ns/individual"]
		if !ok {
			return nil, fmt.Errorf("curve benchmark %q reported no ns/individual metric", b.Name)
		}
		p := pairs[lambda]
		if p == nil {
			p = &pair{}
			pairs[lambda] = p
			lambdas = append(lambdas, lambda)
		}
		switch mode {
		case "scalar":
			p.scalar, p.hasScalar = ns, true
		case "batch":
			p.batch, p.hasBatch = ns, true
		default:
			return nil, fmt.Errorf("unrecognized dispatch mode in curve benchmark name %q", b.Name)
		}
	}
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("no BenchmarkPerIndividual results found")
	}
	sort.Ints(lambdas)
	curve := make([]CurvePoint, 0, len(lambdas))
	for _, l := range lambdas {
		p := pairs[l]
		if !p.hasScalar || !p.hasBatch {
			return nil, fmt.Errorf("λ=%d measured under only one dispatch mode", l)
		}
		curve = append(curve, CurvePoint{
			Lambda:           l,
			ScalarNsPerIndiv: p.scalar,
			BatchNsPerIndiv:  p.batch,
			ScalarOverBatch:  p.scalar / p.batch,
		})
	}
	return curve, nil
}

// parseBench parses `go test -bench` output. Lines it does not recognize
// (PASS, ok, blank) are skipped; malformed Benchmark lines are an error so
// silent truncation cannot masquerade as a clean run.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return rep, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkEMTS5Instance  195  6073383 ns/op  0.0077 cache_hit_rate  368208 B/op  947 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The -<procs> suffix
// go test appends for GOMAXPROCS>1 is kept as part of the name.
func parseBenchLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %w", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		case "MB/s":
			// throughput is not meaningful for these benchmarks; skip
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}
