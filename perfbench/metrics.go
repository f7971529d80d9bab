package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported figure and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the figures of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_rate", "ratio"},
	{"makespan_vs_mcpa", "ratio"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// offlineClasses are the instance classes of offline-emts10, for the
// heuristic-versus-EA breakdown of the traced run.
var offlineClasses = []string{
	"irregular-100.chti", "irregular-100.grelon",
	"irregular-300.chti", "irregular-300.grelon",
	"fft.chti", "fft.grelon",
	"strassen.chti", "strassen.grelon",
}

// perLayer are the figures of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dag.decode_us", "us"},
		{"model.table_us", "us"},
		{"intern.graph_hit_rate", "ratio"},
		{"intern.table_hit_rate", "ratio"},
		{"intern.lookup_us", "us"},
		{"route.key_us", "us"},
		{"route.proxy_ms", "ms"},
		{"route.affinity_graph", "ratio"},
		{"server.cache_hit_rate", "ratio"},
		{"server.compute_ms_mean", "ms"},
		{"server.outside_compute_ms", "ms"},
		{"server.queue_depth_mean", "count"},
		{"server.inflight_mean", "count"},
		{"server.governor_available_mean", "count"},
		{"server.response_kb", "KiB"},
		{"server.encode_us", "us"},
		{"evalpool.hit_rate", "ratio"},
		{"alloc.mcpa_ms", "ms"},
		{"alloc.hcpa_ms", "ms"},
		{"alloc.deltacp_ms", "ms"},
		{"alloc.seed_ms", "ms"},
		{"listsched.map_us", "us"},
		{"listsched.batch_row_us", "us"},
		{"listsched.prefilter_reject_rate", "ratio"},
		{"listsched.materialize_us", "us"},
		{"ea.first_gen_ms", "ms"},
		{"ea.gen_ms", "ms"},
		{"ea.evals_per_run", "count"},
		{"ea.cache_hit_rate", "ratio"},
		{"ea.reject_rate", "ratio"},
		{"ea.evals_per_s", "1/s"},
		{"core.run_ms", "ms"},
		{"core.ea_share", "ratio"},
		{"schedule.validate_us", "us"},
		{"jobs.submit_ms", "ms"},
		{"jobs.first_event_p50_ms", "ms"},
		{"jobs.sse_gap_ms", "ms"},
		{"jobs.result_ms", "ms"},
		{"jobs.cancel_p50_ms", "ms"},
		{"jobs.resident", "count"},
		{"runtime.gc_per_kop", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, c := range offlineClasses {
		defs = append(defs, metricDef{"alloc.seed_ms." + c, "ms"}, metricDef{"core.run_ms." + c, "ms"})
	}
	return defs
}()

// layerFigures computes the per-layer figures of a traced run from its spans
// and its sample.
func layerFigures(spans []span, s *sample) map[string]float64 {
	st := byName(spans, nil)
	us, ms := time.Microsecond, time.Millisecond
	out := map[string]float64{
		"dag.decode_us":                   meanSelf(st, "dag.decode", us),
		"model.table_us":                  meanSelf(st, "model.table", us),
		"intern.lookup_us":                meanSelf(st, "intern.graph_hit", us),
		"route.key_us":                    meanSelf(st, "route.key", us),
		"server.encode_us":                meanSelf(st, "server.encode", us),
		"alloc.mcpa_ms":                   meanSelf(st, "alloc.mcpa", ms),
		"alloc.hcpa_ms":                   meanSelf(st, "alloc.hcpa", ms),
		"alloc.deltacp_ms":                meanSelf(st, "alloc.deltacp", ms),
		"alloc.seed_ms":                   meanDur(st, "alloc.seed", ms),
		"listsched.map_us":                meanSelf(st, "listsched.map", us),
		"listsched.batch_row_us":          meanSelf(st, "listsched.batch", us) / batchLambda,
		"listsched.materialize_us":        meanSelf(st, "listsched.materialize", us),
		"ea.first_gen_ms":                 meanSelf(st, "ea.first_gen", ms),
		"ea.gen_ms":                       medianSelf(st, "ea.gen", ms),
		"core.run_ms":                     meanDur(st, "core.run", ms),
		"schedule.validate_us":            meanSelf(st, "schedule.validate", us),
		"jobs.submit_ms":                  medianOf(s.phase["submit"]),
		"jobs.first_event_p50_ms":         medianOf(s.phase["first_event"]),
		"jobs.sse_gap_ms":                 medianOf(s.phase["sse_gap"]),
		"jobs.result_ms":                  medianOf(s.phase["result"]),
		"jobs.cancel_p50_ms":              medianOf(s.phase["cancel"]),
		"ea.evals_per_run":                ratio(float64(s.evals), float64(s.done)),
		"ea.cache_hit_rate":               ratio(float64(s.cacheHits), float64(s.evals)),
		"ea.reject_rate":                  ratio(float64(s.rejections), float64(s.evals)),
		"ea.evals_per_s":                  ratio(float64(s.evals), s.runSeconds),
		"listsched.prefilter_reject_rate": ratio(float64(s.prefilter), float64(s.evals)),
	}
	if run := out["core.run_ms"]; run > 0 {
		out["core.ea_share"] = (run - out["alloc.seed_ms"]) / run
	}
	for k, v := range s.layer {
		out[k] = v
	}
	// Per-class breakdown of the offline workload: spans carry the op id,
	// the sample maps op ids to instance classes.
	for _, c := range offlineClasses {
		cs := byName(spans, func(sp span) bool { return sp.Op >= 0 && s.opClass[sp.Op] == c })
		out["alloc.seed_ms."+c] = meanDur(cs, "alloc.seed", ms)
		out["core.run_ms."+c] = meanDur(cs, "core.run", ms)
	}
	return out
}

// medianOf is median without disturbing xs, and 0 for none.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(append([]float64(nil), xs...))
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
