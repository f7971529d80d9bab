package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"emts/internal/core"
	"emts/internal/listsched"
	"emts/internal/platform"
)

// irregularPerSize is the number of irregular PTGs of each size. Six per
// size (rather than the paper's per-seed three) keep the corpus's total work
// steady from one workload seed to the next.
const irregularPerSize = 6

// offlineRatioOps is the fixed operation prefix makespan_vs_mcpa is taken
// over: four passes of the 28-instance corpus, each with fresh EA seeds.
const offlineRatioOps = 112

// offline is the library-only workload: one caller runs core.RunContext with
// EMTS10 and the rejection strategy over a fixed corpus, round robin.
type offline struct {
	seed  int64
	insts []*instance
	// Traced runs replay the layers on per-instance arenas built in set-up.
	mappers []*listsched.Mapper
	batch   []*listsched.BatchMapper
}

// setupOffline generates the corpus — irregular PTGs of 100 and 300 tasks
// (irregularPerSize each), FFT-16 and Strassen, each on Chti and Grelon —
// and builds every table and MCPA baseline.
func setupOffline(seed int64, tr *tracer) (bench, error) {
	o := &offline{seed: seed}
	type spec struct{ spec, class string }
	var specs []spec
	for i := 0; i < irregularPerSize; i++ {
		specs = append(specs, spec{"irregular100", "irregular-100"}, spec{"irregular300", "irregular-300"})
	}
	specs = append(specs, spec{"fft16", "fft"}, spec{"strassen", "strassen"})
	for i, s := range specs {
		g, err := genGraph(s.spec, mixSeed(seed, i))
		if err != nil {
			return nil, err
		}
		for _, c := range platform.Both() {
			inst, err := newInstance(tr, s.class+"."+c.Name, g, nil, c)
			if err != nil {
				return nil, err
			}
			m, err := listsched.NewMapper(g, inst.tab)
			if err != nil {
				return nil, fmt.Errorf("mapper for %s: %w", inst.class, err)
			}
			bm, err := listsched.NewBatchMapper(g, inst.tab)
			if err != nil {
				return nil, fmt.Errorf("batch mapper for %s: %w", inst.class, err)
			}
			o.insts = append(o.insts, inst)
			o.mappers = append(o.mappers, m)
			o.batch = append(o.batch, bm)
		}
	}
	return o, nil
}

func (o *offline) close() error { return nil }

// run solves instances round robin until d has passed and at least
// offlineRatioOps solves are done. Operation n always solves instance
// n mod 28 with seed mixSeed(seed, 1_000_000+n), so quality figures repeat
// exactly.
func (o *offline) run(d time.Duration, tr *tracer) (*sample, error) {
	s := newSample()
	rng := rand.New(rand.NewSource(o.seed))
	ratios := make([]float64, 0, offlineRatioOps)
	start := time.Now()
	deadline := start.Add(d)
	for n := 0; n < offlineRatioOps || time.Now().Before(deadline); n++ {
		i := n % len(o.insts)
		inst := o.insts[i]
		op := int64(n)
		root := tr.begin("op", -1, op)
		s.opClass[op] = inst.class
		p := core.EMTS10(mixSeed(o.seed, 1_000_000+n))
		p.UseRejection = true

		if tr != nil {
			seeds, fits, err := replaySeeds(tr, root, op, inst, o.mappers[i])
			if err != nil {
				return nil, err
			}
			replayBatch(tr, root, op, inst, o.batch[i], seeds, fits, rng)
		}
		runSpan := tr.begin("core.run", root, op)
		t0 := time.Now()
		if tr != nil {
			p.OnGeneration = genStamper(tr, runSpan, op, t0, false)
		}
		res, err := core.RunContext(context.Background(), inst.g, inst.tab, p)
		lat := time.Since(t0)
		tr.end(runSpan)
		s.attempted++
		if err != nil {
			s.fail("op %d (%s): %v", n, inst.class, err)
			tr.end(root)
			continue
		}
		if tr != nil {
			id := tr.begin("listsched.materialize", root, op)
			_, err := o.mappers[i].Map(res.Alloc)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("materialize %s: %w", inst.class, err)
			}
		}
		id := tr.begin("schedule.validate", root, op)
		verr := res.Schedule.Validate(inst.g, inst.tab)
		tr.end(id)
		tr.end(root)
		switch {
		case verr != nil:
			s.fail("op %d (%s): invalid schedule: %v", n, inst.class, verr)
			continue
		case res.Makespan != res.Schedule.Makespan():
			s.fail("op %d (%s): makespan %v but schedule ends at %v", n, inst.class, res.Makespan, res.Schedule.Makespan())
			continue
		case res.Makespan > inst.mcpa:
			s.fail("op %d (%s): EMTS makespan %v exceeds MCPA %v", n, inst.class, res.Makespan, inst.mcpa)
			continue
		}
		s.ok(lat)
		if n < offlineRatioOps {
			ratios = append(ratios, res.Makespan/inst.mcpa)
		}
		s.evals += res.Evaluations
		s.cacheHits += res.CacheHits
		s.rejections += res.Rejections
		s.prefilter += res.PrefilterRejections
		s.runSeconds += lat.Seconds()
	}
	s.start, s.elapsed = start, time.Since(start)
	s.ratios = ratios
	return s, nil
}

// replayRequests is empty: the offline workload traces its layers inline.
func (o *offline) replayRequests() []replayReq { return nil }
