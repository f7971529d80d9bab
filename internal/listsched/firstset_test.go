package listsched

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// firstProcessorSetReference is a deliberately naive transcription of the
// mapping step of Section III-A, kept only as a test oracle. Among the ready
// tasks the one with the largest bottom level runs next (lowest ID on ties).
// At every placement all P processors are sorted afresh by (availability,
// index) and the first s(v) of them form "the first processor set"; the task
// starts when its last predecessor has finished and the last of those
// processors is free. It shares nothing with the map loop's incremental
// processor order.
func firstProcessorSetReference(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) ([]schedule.Entry, float64) {
	n, procs := g.NumTasks(), tab.Procs()
	bl := g.BottomLevels(func(v dag.TaskID) float64 { return tab.Time(v, alloc[v]) })
	placed := make([]bool, n)
	entries := make([]schedule.Entry, n)
	avail := make([]float64, procs)
	byAvail := make([]int, procs)
	makespan := 0.0
	for range n {
		v := dag.TaskID(-1)
		for u := dag.TaskID(0); int(u) < n; u++ {
			ready := !placed[u]
			for _, p := range g.Predecessors(u) {
				ready = ready && placed[p]
			}
			if ready && (v < 0 || bl[u] > bl[v]) {
				v = u
			}
		}
		start := 0.0
		for _, p := range g.Predecessors(v) {
			start = max(start, entries[p].End)
		}
		for i := range byAvail {
			byAvail[i] = i
		}
		slices.SortFunc(byAvail, func(a, b int) int {
			if c := cmp.Compare(avail[a], avail[b]); c != 0 {
				return c
			}
			return a - b
		})
		s := alloc[v]
		chosen := slices.Clone(byAvail[:s])
		slices.Sort(chosen)
		start = max(start, avail[byAvail[s-1]])
		end := start + tab.Time(v, s)
		for _, p := range chosen {
			avail[p] = end
		}
		entries[v] = schedule.Entry{Task: v, Start: start, End: end, Procs: chosen}
		placed[v] = true
		makespan = max(makespan, end)
	}
	return entries, makespan
}

// firstSetInstance derives an instance on an inline P-processor cluster from
// rng. With fft set, the graph is an FFT PTG whose tasks all cost the same
// and whose allocation draws from two values, so many tasks finish at the
// same instant and the processor order sees runs of tied availability; other
// instances are randomGraph DAGs with random allocations.
func firstSetInstance(rng *rand.Rand, procs int, fft bool) (*dag.Graph, *model.Table, schedule.Allocation) {
	cluster := platform.Cluster{Name: "fuzz", Procs: procs, SpeedGFlops: 1}
	var g *dag.Graph
	if fft {
		shape, err := daggen.FFT(2<<rng.Intn(4), daggen.DefaultCosts(), rng.Int63())
		if err != nil {
			panic(err)
		}
		b := dag.NewBuilder(shape.Name())
		for range shape.NumTasks() {
			b.AddTask(dag.Task{Flops: 1e9, Alpha: 0.1})
		}
		for _, e := range shape.Edges() {
			b.AddEdge(e.Src, e.Dst)
		}
		g = b.MustBuild()
	} else {
		g = randomGraph(rng)
	}
	tab := model.MustTable(g, model.Synthetic{}, cluster)
	alloc := make(schedule.Allocation, g.NumTasks())
	choices := [2]int{1 + rng.Intn(procs), 1 + rng.Intn(procs)}
	for i := range alloc {
		if fft {
			alloc[i] = choices[rng.Intn(2)]
		} else {
			alloc[i] = 1 + rng.Intn(procs)
		}
	}
	return g, tab, alloc
}

// FuzzFirstProcessorSet checks the map loop against the naive reference of
// "the first processor set": every entry's Start/End bits and processor set
// must match, Makespan and a BatchMapper row must return the reference
// makespan, and under a bound MakespanBounded, the materializing Map and a
// bounded BatchMapper row must all agree on both the value and the rejection
// decision. The seeds cover small processor counts, the paper's P = 120 and
// counts around powers of two.
func FuzzFirstProcessorSet(f *testing.F) {
	for _, p := range []int{1, 2, 63, 64, 65, 120, 128, 129} {
		f.Add(int64(p), p, false, 0.9)
		f.Add(int64(p), p, true, 0.9)
		f.Add(int64(-p), p, true, 1.0)
	}
	f.Fuzz(func(t *testing.T, seed int64, procs int, fft bool, scale float64) {
		const maxProcs = 160
		if procs < 1 || procs > maxProcs {
			procs = 1 + int(uint(procs)%maxProcs)
		}
		if scale != scale || scale <= 0 || scale > 1e6 {
			return // NaN or useless bound
		}
		g, tab, alloc := firstSetInstance(rand.New(rand.NewSource(seed)), procs, fft)
		want, wantMakespan := firstProcessorSetReference(g, tab, alloc)

		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := m.Map(alloc)
		if err != nil {
			t.Fatal(err)
		}
		for v, e := range sched.Entries {
			w := want[v]
			if e.Task != w.Task || math.Float64bits(e.Start) != math.Float64bits(w.Start) ||
				math.Float64bits(e.End) != math.Float64bits(w.End) || !slices.Equal(e.Procs, w.Procs) {
				t.Fatalf("task %d (P=%d fft=%v): Map placed %+v, reference %+v", v, procs, fft, e, w)
			}
		}
		got, err := m.Makespan(alloc)
		if err != nil || math.Float64bits(got) != math.Float64bits(wantMakespan) {
			t.Fatalf("Makespan = %g, %v; reference %g", got, err, wantMakespan)
		}

		bm, err := NewBatchMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		items := []BatchItem{{Alloc: alloc}}
		batchFit, batchErrs := make([]float64, 1), make([]error, 1)
		bm.EvalBatch(items, Options{}, batchFit, batchErrs)
		if batchErrs[0] != nil || math.Float64bits(batchFit[0]) != math.Float64bits(wantMakespan) {
			t.Fatalf("EvalBatch = %g, %v; reference %g", batchFit[0], batchErrs[0], wantMakespan)
		}

		bound := wantMakespan * scale
		bounded, boundedErr := m.MakespanBounded(alloc, bound)
		mapped, mappedErr := m.MapWithOptions(alloc, Options{RejectAbove: bound})
		bm.EvalBatch(items, Options{RejectAbove: bound}, batchFit, batchErrs)
		rejected := errors.Is(boundedErr, ErrRejected)
		switch {
		case rejected != errors.Is(mappedErr, ErrRejected) || rejected != errors.Is(batchErrs[0], ErrRejected):
			t.Fatalf("bound %g: MakespanBounded err %v, Map err %v, EvalBatch err %v",
				bound, boundedErr, mappedErr, batchErrs[0])
		case wantMakespan > bound && !rejected:
			t.Fatalf("bound %g below reference makespan %g was not rejected", bound, wantMakespan)
		case !rejected && (boundedErr != nil || mappedErr != nil || batchErrs[0] != nil ||
			math.Float64bits(bounded) != math.Float64bits(wantMakespan) ||
			math.Float64bits(mapped.Makespan()) != math.Float64bits(wantMakespan) ||
			math.Float64bits(batchFit[0]) != math.Float64bits(wantMakespan)):
			t.Fatalf("bound %g: MakespanBounded %g (%v), Map %v (%v), EvalBatch %g (%v), reference %g",
				bound, bounded, boundedErr, mapped, mappedErr, batchFit[0], batchErrs[0], wantMakespan)
		}
	})
}
