package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/ea"
	"emts/internal/evalpool"
	"emts/internal/intern"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/route"
	"emts/internal/schedule"
	"emts/internal/server"
	"emts/internal/sim"
)

// seedHeuristics are the named starting heuristics of core.DefaultSeeds, in
// the order core.RunContext calls them. The all-ones and random seeds are
// left out: they cost O(V).
var seedHeuristics = []struct {
	span string
	a    alloc.Allocator
}{
	{"alloc.mcpa", alloc.MCPA{}},
	{"alloc.hcpa", alloc.HCPA{}},
	{"alloc.deltacp", alloc.DeltaCP{Delta: 0.9}},
}

// replaySeeds times each seed heuristic's Allocate on inst (children of an
// alloc.seed span) and then the mapper's makespan of each allocation
// (listsched.map spans), as core.RunContext does before the EA starts.
func replaySeeds(tr *tracer, parent int, op int64, inst *instance, m *listsched.Mapper) ([]schedule.Allocation, []float64, error) {
	seedSpan := tr.begin("alloc.seed", parent, op)
	allocs := make([]schedule.Allocation, 0, len(seedHeuristics))
	for _, h := range seedHeuristics {
		id := tr.begin(h.span, seedSpan, op)
		a, err := h.a.Allocate(inst.g, inst.tab)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %w", h.span, inst.class, err)
		}
		a.Clamp(inst.tab.Procs())
		allocs = append(allocs, a)
	}
	tr.end(seedSpan)
	fits := make([]float64, len(allocs))
	for i, a := range allocs {
		id := tr.begin("listsched.map", parent, op)
		f, err := m.MakespanOpts(a, listsched.Options{SkipProcSets: true})
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("listsched.map on %s: %w", inst.class, err)
		}
		fits[i] = f
	}
	return allocs, fits, nil
}

// batchLambda is the EMTS10 offspring count: one generation's batch.
const batchLambda = 100

// replayBatch times one generation-sized BatchMapper.EvalBatch over
// PaperMutator offspring of the seed allocations, with the rejection bound
// at the worst seed's makespan (the EA's bound once the seeds are parents).
func replayBatch(tr *tracer, parent int, op int64, inst *instance, bm *listsched.BatchMapper, seeds []schedule.Allocation, fits []float64, rng *rand.Rand) {
	// The first generation mutates round(Fm·V) alleles (ea's schedule at u = 0).
	m := int(math.Round(core.EMTS10(0).Fm * float64(inst.g.NumTasks())))
	mut := ea.DefaultPaperMutator()
	items := make([]listsched.BatchItem, batchLambda)
	for i := range items {
		p := seeds[i%len(seeds)]
		child := p.Clone()
		pos := mut.MutateInto(rng, child, m, inst.tab.Procs(), nil)
		items[i] = listsched.BatchItem{Alloc: child, Parent: p, Mutated: append([]int(nil), pos...)}
	}
	worst := 0.0
	for _, f := range fits {
		worst = max(worst, f)
	}
	fitness := make([]float64, len(items))
	errs := make([]error, len(items))
	id := tr.begin("listsched.batch", parent, op)
	// Rows over the bound come back as rejections, which is the point.
	bm.EvalBatch(items, listsched.Options{RejectAbove: worst}, fitness, errs)
	tr.end(id)
}

// genStamper returns an ea OnGeneration observer that records the first
// generation (run start → first call) as an ea.first_gen span and every later
// gap as an ea.gen span, both children of the run span. Island runs deliver
// at barriers, so their gaps are not generation times and are not recorded.
func genStamper(tr *tracer, parent int, op int64, start time.Time, islands bool) func(ea.GenStats) {
	var mu sync.Mutex
	last := time.Time{}
	return func(gs ea.GenStats) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case last.IsZero():
			tr.record("ea.first_gen", parent, op, start, now)
		case !islands:
			tr.record("ea.gen", parent, op, last, now)
		}
		last = now
	}
}

// marshalScheduleResponse projects a report onto server.ScheduleResponse the
// way the backend encodes a successful answer.
func marshalScheduleResponse(rep *sim.Report) ([]byte, error) {
	resp := server.ScheduleResponse{
		Algorithm:   rep.Algorithm,
		Model:       rep.Model,
		Graph:       rep.Graph,
		Tasks:       len(rep.Schedule.Entries),
		Cluster:     rep.Cluster,
		Makespan:    rep.Makespan,
		Utilization: rep.Utilization(),
		Schedule:    rep.Schedule,
	}
	if rep.EMTS != nil {
		resp.Evaluations = rep.EMTS.Evaluations
		resp.Rejections = rep.EMTS.Rejections
		resp.History = rep.EMTS.History
		resp.Generations = rep.EMTS.Generations
		if rep.EMTS.Islands > 1 {
			resp.Islands = rep.EMTS.Islands
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(b, '\n'), nil
}

// replayReq is one distinct request of an HTTP workload.
type replayReq struct {
	inst      *instance
	body      []byte
	algorithm string
	seed      int64
	islands   int
	migration int
}

// replayServing sends the workload's distinct requests through the public
// functions a backend calls, in the backend's order: route.RequestKey →
// intern.Graphs.Get → intern.Tables.Get (model.NewTable on a miss) →
// sim.RunTableOpts with a Mapper pool → Schedule.Validate → JSON encoding.
// EMTS requests also replay the seed heuristics and the final
// materialization from outside. Each request is one root "replay" span.
func replayServing(tr *tracer, reqs []replayReq) error {
	graphs := intern.NewGraphs(intern.DefaultEntries)
	tables := intern.NewTables(2 * intern.DefaultEntries)
	pool := evalpool.New(0, 0)
	mappers := make(map[*instance]*listsched.Mapper)
	for i, rq := range reqs {
		op := int64(i)
		root := tr.begin("replay", -1, op)

		id := tr.begin("route.key", root, op)
		_, err := route.RequestKey(rq.body)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("route.key: %w", err)
		}

		// The graph intern is keyed by the raw graph bytes the body embeds.
		start := time.Now()
		entry, hit, err := graphs.Get(rq.inst.raw)
		name := "intern.graph_miss"
		if hit {
			name = "intern.graph_hit"
		}
		tr.record(name, root, op, start, time.Now())
		if err != nil {
			return fmt.Errorf("intern.graph: %w", err)
		}
		g := entry.Graph

		tabSpan := tr.begin("intern.table", root, op)
		key := intern.TableKey{GraphKey: entry.CanonKey, Model: "synthetic", Cluster: rq.inst.cluster}
		tab, _, err := tables.Get(key, func() (*model.Table, error) {
			id := tr.begin("model.table", tabSpan, op)
			defer tr.end(id)
			return model.NewTable(g, model.Synthetic{}, rq.inst.cluster)
		})
		tr.end(tabSpan)
		if err != nil {
			return fmt.Errorf("intern.table: %w", err)
		}

		emts := rq.algorithm != "mcpa"
		if emts {
			m := mappers[rq.inst]
			if m == nil {
				if m, err = listsched.NewMapper(g, tab); err != nil {
					return fmt.Errorf("mapper: %w", err)
				}
				mappers[rq.inst] = m
			}
			if _, _, err := replaySeeds(tr, root, op, rq.inst, m); err != nil {
				return err
			}
		}

		runSpan := tr.begin("core.run", root, op)
		start = time.Now()
		opt := sim.Options{MapperPool: pool, Islands: rq.islands, MigrationInterval: rq.migration}
		if emts {
			opt.OnGeneration = genStamper(tr, runSpan, op, start, rq.islands > 1)
		}
		rep, err := sim.RunTableOpts(context.Background(), g, rq.inst.cluster, tab, rq.algorithm, rq.seed, opt)
		tr.end(runSpan)
		if err != nil {
			return fmt.Errorf("core.run: %w", err)
		}

		if emts {
			id = tr.begin("listsched.materialize", root, op)
			_, err = mappers[rq.inst].Map(rep.EMTS.Alloc)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("listsched.materialize: %w", err)
			}
		}

		id = tr.begin("schedule.validate", root, op)
		err = rep.Schedule.Validate(g, tab)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("schedule.validate: %w", err)
		}

		id = tr.begin("server.encode", root, op)
		_, err = marshalScheduleResponse(rep)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}
