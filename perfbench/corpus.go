package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
)

// instance is one scheduling problem: a PTG on a cluster under synthetic
// Model 2, with its MCPA makespan as the quality baseline.
type instance struct {
	class   string // e.g. "irregular-100.chti": the per-class breakdown key
	g       *dag.Graph
	raw     []byte // the graph as sent over HTTP (nil for library-only use)
	cluster platform.Cluster
	tab     *model.Table
	mcpa    float64
}

// mixSeed derives the i-th input seed of a workload seed, so different
// workload seeds never share inputs.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// genGraph builds one PTG from a loadgen-style family spec: fftN, strassen,
// randomN (DAGGEN with loadgen's shape), or irregularN (the paper's
// irregular PTGs, jump 2).
func genGraph(spec string, seed int64) (*dag.Graph, error) {
	costs := daggen.DefaultCosts()
	switch {
	case spec == "strassen":
		return daggen.Strassen(costs, seed)
	case strings.HasPrefix(spec, "fft"):
		n, err := strconv.Atoi(spec[len("fft"):])
		if err != nil {
			return nil, fmt.Errorf("graph spec %q: %w", spec, err)
		}
		return daggen.FFT(n, costs, seed)
	case strings.HasPrefix(spec, "random"):
		n, err := strconv.Atoi(spec[len("random"):])
		if err != nil {
			return nil, fmt.Errorf("graph spec %q: %w", spec, err)
		}
		return daggen.Random(daggen.RandomConfig{N: n, Width: 0.5, Regularity: 0.8, Density: 0.5, Jump: 1}, costs, seed)
	case strings.HasPrefix(spec, "irregular"):
		n, err := strconv.Atoi(spec[len("irregular"):])
		if err != nil {
			return nil, fmt.Errorf("graph spec %q: %w", spec, err)
		}
		return daggen.Random(daggen.RandomConfig{N: n, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2}, costs, seed)
	}
	return nil, fmt.Errorf("unknown graph spec %q", spec)
}

// newInstance builds the table and the MCPA baseline of g on cluster,
// timing the table build as a model.table span.
func newInstance(tr *tracer, class string, g *dag.Graph, raw []byte, cluster platform.Cluster) (*instance, error) {
	id := tr.begin("model.table", -1, -1)
	tab, err := model.NewTable(g, model.Synthetic{}, cluster)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("table for %s: %w", class, err)
	}
	rep, err := sim.RunTable(g, cluster, tab, "mcpa", 0)
	if err != nil {
		return nil, fmt.Errorf("mcpa baseline for %s: %w", class, err)
	}
	return &instance{class: class, g: g, raw: raw, cluster: cluster, tab: tab, mcpa: rep.Makespan}, nil
}

// httpInstances builds the serving workloads' problems: every graph spec on
// Chti and Grelon, in that order, so consecutive operations alternate
// clusters. Each graph is marshalled once and decoded back, exactly as a
// backend decodes it; the decode is timed as a dag.decode span.
func httpInstances(tr *tracer, seed int64, specs []string) ([]*instance, error) {
	var out []*instance
	for i, spec := range specs {
		g0, err := genGraph(spec, mixSeed(seed, i))
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g0)
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", spec, err)
		}
		start := time.Now()
		g, err := dag.UnmarshalGraph(raw)
		tr.record("dag.decode", -1, -1, start, time.Now())
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", spec, err)
		}
		for _, c := range platform.Both() {
			inst, err := newInstance(tr, spec+"."+c.Name, g, raw, c)
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// scheduleBody renders a /v1/schedule (or /v1/jobs) request around the
// graph's raw bytes, so every request for one graph carries byte-identical
// graph JSON (the key the router and the graph intern hash).
func scheduleBody(inst *instance, algorithm string, seed int64, islands, migration int) []byte {
	b := make([]byte, 0, len(inst.raw)+160)
	b = append(b, `{"graph":`...)
	b = append(b, inst.raw...)
	b = append(b, `,"cluster":{"preset":"`...)
	b = append(b, inst.cluster.Name...)
	b = append(b, `"},"model":"synthetic","algorithm":"`...)
	b = append(b, algorithm...)
	b = append(b, `","seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	if islands > 0 {
		b = append(b, `,"islands":`...)
		b = strconv.AppendInt(b, int64(islands), 10)
		b = append(b, `,"migration_interval":`...)
		b = strconv.AppendInt(b, int64(migration), 10)
	}
	return append(b, '}')
}
