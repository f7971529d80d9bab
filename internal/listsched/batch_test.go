package listsched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// batchOf derives a mixed batch from parent: the parent itself, offspring
// with few and with many mutated positions, and one duplicate row — the row
// mix the EA produces.
func batchOf(rng *rand.Rand, parent schedule.Allocation, procs int) []BatchItem {
	items := []BatchItem{{Alloc: parent}}
	for j := 0; j < 3; j++ {
		items = append(items, BatchItem{Alloc: mutateRandom(rng, parent, 1+rng.Intn(3), procs)})
	}
	for j := 0; j < 2; j++ {
		items = append(items, BatchItem{Alloc: mutateRandom(rng, parent, 1+rng.Intn(len(parent)), procs)})
	}
	items = append(items, items[1]) // duplicate row
	return items
}

// checkBatchScalarIdentity evaluates items through EvalBatch and through the
// scalar Mapper under the same options and reports whether every row's
// (fitness, sentinel) outcome is bit-identical.
func checkBatchScalarIdentity(t testing.TB, bm *BatchMapper, m *Mapper, items []BatchItem, opt Options) bool {
	t.Helper()
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	bm.EvalBatch(items, opt, fit, errs)
	ok := true
	for i, it := range items {
		want, wantErr := m.MakespanOpts(it.Alloc, opt)
		if wantErr != nil || errs[i] != nil {
			// Sentinels must match exactly: the engine distinguishes
			// ErrRejectedPrefilter from ErrRejected when counting.
			if !errors.Is(errs[i], ErrRejected) || !errors.Is(wantErr, ErrRejected) ||
				errors.Is(errs[i], ErrRejectedPrefilter) != errors.Is(wantErr, ErrRejectedPrefilter) {
				t.Logf("row %d: batch err %v, scalar err %v (opt %+v)", i, errs[i], wantErr, opt)
				ok = false
			}
			continue
		}
		if fit[i] != want {
			t.Logf("row %d: batch fitness %g, scalar %g (opt %+v)", i, fit[i], want, opt)
			ok = false
		}
	}
	return ok
}

// TestBatchMatchesScalar is the tentpole property test: across random
// instances and mixed batches (few- and many-allele offspring, duplicates),
// EvalBatch must be bit-identical to per-row scalar evaluation — unbounded,
// across bounds straddling the makespan, and with the prefilter on and off.
func TestBatchMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parent, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		bm, err := NewBatchMapper(g, tab)
		if err != nil {
			return false
		}
		full, err := m.Makespan(parent)
		if err != nil {
			return false
		}
		items := batchOf(rng, parent, tab.Procs())
		if !checkBatchScalarIdentity(t, bm, m, items, Options{}) {
			return false
		}
		for _, bound := range []float64{full * 0.5, full * 0.999, full, full * 1.0001, full * 2} {
			for _, noPre := range []bool{false, true} {
				if !checkBatchScalarIdentity(t, bm, m, items, Options{RejectAbove: bound, DisablePrefilter: noPre}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchScalarIdentity is the fuzz-smoke version of TestBatchMatchesScalar:
// the instance and batch derive from the fuzzed seed and the rejection bound
// from the fuzzed scale, so the corpus explores bound positions and batch
// mixes the fixed grid misses.
func FuzzBatchScalarIdentity(f *testing.F) {
	f.Add(int64(1), 0.5)
	f.Add(int64(7), 0.999)
	f.Add(int64(42), 1.0)
	f.Add(int64(99), 1.0001)
	f.Add(int64(-3), 2.0)
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if scale != scale || scale <= 0 || scale > 1e6 {
			return // NaN or useless bound; RejectAbove <= 0 disables rejection anyway
		}
		rng := rand.New(rand.NewSource(seed))
		g, parent, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := NewBatchMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.Makespan(parent)
		if err != nil {
			t.Fatal(err)
		}
		items := batchOf(rng, parent, tab.Procs())
		for _, opt := range []Options{
			{},
			{RejectAbove: full * scale},
			{RejectAbove: full * scale, DisablePrefilter: true},
		} {
			if !checkBatchScalarIdentity(t, bm, m, items, opt) {
				t.Fatalf("batch/scalar diverged: seed=%d scale=%g full=%g opt=%+v", seed, scale, full, opt)
			}
		}
	})
}

// TestBatchMapperRebind pins the pool reset protocol: a BatchMapper rebound
// to a second instance must produce the same results as a fresh one, and
// Shape must survive Release so a pool can file the instance.
func TestBatchMapperRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g1, parent1, tab1 := randomInstance(rng)
	g2, parent2, tab2 := randomInstance(rng)

	bm, err := NewBatchMapper(g1, tab1)
	if err != nil {
		t.Fatal(err)
	}
	items1 := batchOf(rng, parent1, tab1.Procs())
	fit := make([]float64, len(items1))
	errs := make([]error, len(items1))
	bm.EvalBatch(items1, Options{}, fit, errs)

	bm.Release()
	if tasks, procs := bm.Shape(); tasks != g1.NumTasks() || procs != tab1.Procs() {
		t.Fatalf("Shape after Release = (%d, %d), want (%d, %d)", tasks, procs, g1.NumTasks(), tab1.Procs())
	}
	if err := bm.Rebind(g2, tab2); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBatchMapper(g2, tab2)
	if err != nil {
		t.Fatal(err)
	}
	items2 := batchOf(rng, parent2, tab2.Procs())
	gotFit := make([]float64, len(items2))
	gotErrs := make([]error, len(items2))
	wantFit := make([]float64, len(items2))
	wantErrs := make([]error, len(items2))
	bm.EvalBatch(items2, Options{}, gotFit, gotErrs)
	fresh.EvalBatch(items2, Options{}, wantFit, wantErrs)
	for i := range items2 {
		if gotFit[i] != wantFit[i] || (gotErrs[i] == nil) != (wantErrs[i] == nil) {
			t.Fatalf("row %d after rebind: fitness %g err %v, fresh mapper: %g err %v",
				i, gotFit[i], gotErrs[i], wantFit[i], wantErrs[i])
		}
	}
}

// TestBatchEvalZeroAllocs pins the batch hot path: a warm EvalBatch — area
// bounds, bottom-level sweeps with their early exits, map loops, rejections,
// and all — performs zero heap allocations.
func TestBatchEvalZeroAllocs(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 120, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		t.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	bm, err := NewBatchMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	parent := make(schedule.Allocation, g.NumTasks())
	for i := range parent {
		parent[i] = 1 + i%tab.Procs()
	}
	rng := rand.New(rand.NewSource(3))
	items := batchOf(rng, parent, tab.Procs())
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	bm.EvalBatch(items, Options{}, fit, errs) // warm up
	full := fit[0]

	for _, opt := range []Options{{}, {RejectAbove: full}, {RejectAbove: full / 2}} {
		avg := testing.AllocsPerRun(100, func() {
			bm.EvalBatch(items, opt, fit, errs)
		})
		if avg != 0 {
			t.Fatalf("warm EvalBatch (opt %+v) allocates %.1f times per call, want 0", opt, avg)
		}
	}

	// The EA's dispatch slices one logical batch into sub-spans — per-worker
	// chunks, or finer work-stealing grains — and at GOMAXPROCS==1 runs them
	// inline on the caller goroutine with no channel round-trips, so the
	// sub-span calls ARE the single-core hot path and must stay
	// allocation-free too (the row-independence contract in EvalBatch's doc).
	half := len(items) / 2
	avg := testing.AllocsPerRun(100, func() {
		bm.EvalBatch(items[:half], Options{}, fit[:half], errs[:half])
		bm.EvalBatch(items[half:], Options{}, fit[half:], errs[half:])
	})
	if avg != 0 {
		t.Fatalf("warm sub-span EvalBatch pair allocates %.1f times per run, want 0", avg)
	}
	for r := range items {
		if errs[r] != nil {
			t.Fatalf("sub-span row %d failed: %v", r, errs[r])
		}
	}
	if fit[0] != full {
		t.Fatalf("sub-span evaluation diverged: row 0 = %g, want %g", fit[0], full)
	}
}

// TestBatchInvalidRows pins per-row error isolation: invalid allocations must
// fail their own row without disturbing neighbors.
func TestBatchInvalidRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, parent, tab := randomInstance(rng)
	bm, err := NewBatchMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	bad := parent.Clone()
	bad[0] = tab.Procs() + 1 // out of range
	short := parent[:len(parent)-1]
	items := []BatchItem{{Alloc: parent}, {Alloc: bad}, {Alloc: short}, {Alloc: parent}}
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	bm.EvalBatch(items, Options{}, fit, errs)
	want, err := m.Makespan(parent)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || fit[0] != want {
		t.Errorf("row 0: fitness %g err %v, want %g nil", fit[0], errs[0], want)
	}
	if errs[1] == nil || errors.Is(errs[1], ErrRejected) {
		t.Errorf("row 1 (out-of-range alloc): err %v, want a validation error", errs[1])
	}
	if errs[2] == nil || errors.Is(errs[2], ErrRejected) {
		t.Errorf("row 2 (short alloc): err %v, want a validation error", errs[2])
	}
	if errs[3] != nil || fit[3] != want {
		t.Errorf("row 3 after invalid rows: fitness %g err %v, want %g nil", fit[3], errs[3], want)
	}
}

// boundRows builds the instance of TestBatchRowByRow: on 6 processors, two
// independent 8 s tasks (IDs 0 and 1) next to a chain of four 1 s tasks
// (IDs 2–5), all with Amdahl fraction 0.5. The reverse-topological sweep
// visits the chain first, so a row whose independent task 1 exceeds the bound
// stops the sweep before it reaches task 0.
func boundRows(t *testing.T) (*dag.Graph, *model.Table) {
	t.Helper()
	b := dag.NewBuilder("bounds")
	for _, flops := range []float64{8e9, 8e9, 1e9, 1e9, 1e9, 1e9} {
		b.AddTask(dag.Task{Flops: flops, Alpha: 0.5})
	}
	for v := dag.TaskID(2); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	return g, model.MustTable(g, model.Amdahl{}, platform.Cluster{Name: "six", Procs: 6, SpeedGFlops: 1})
}

// TestBatchRowByRow pins per-row, bound-first evaluation under one bound of
// 6.5 s. Each row is known to fall to exactly one layer: the area bound
// alone, the critical-path bound alone (stopping the sweep part way), both,
// the in-loop check, or none. The rows are ordered so that early exits come
// right before accepted rows, whose sweeps must overwrite what the exits
// left behind. Every row must match the scalar MakespanOpts bit for bit, with
// the prefilter on and off, and carry the expected sentinel.
func TestBatchRowByRow(t *testing.T) {
	g, tab := boundRows(t)
	const bound = 6.5
	type class int
	const (
		accepted class = iota
		areaOnly
		pathOnly
		bothBounds
		inLoop
	)
	rows := []struct {
		alloc schedule.Allocation
		want  class
	}{
		{schedule.Allocation{6, 6, 6, 6, 6, 6}, areaOnly},   // area 11.7, path 4.7
		{schedule.Allocation{1, 1, 1, 1, 1, 1}, pathOnly},   // area 3.3, path 8
		{schedule.Allocation{2, 2, 1, 1, 1, 1}, accepted},   // makespan 6
		{schedule.Allocation{6, 1, 1, 1, 1, 1}, bothBounds}, // area 6.7, path 8
		{schedule.Allocation{2, 2, 1, 1, 1, 1}, accepted},
		{schedule.Allocation{3, 3, 1, 1, 1, 1}, inLoop}, // area 6, path 5.3, makespan 9.3
		{schedule.Allocation{1, 1, 1, 1, 1, 1}, pathOnly},
		{schedule.Allocation{2, 2, 1, 1, 1, 1}, accepted},
	}
	items := make([]BatchItem, len(rows))
	for i, r := range rows {
		items[i] = BatchItem{Alloc: r.alloc}
		area := 0.0
		for v, s := range r.alloc {
			area += float64(s) * tab.Time(dag.TaskID(v), s)
		}
		path := slices.Max(g.BottomLevels(Cost(tab, r.alloc)))
		areaOver := area > bound*float64(tab.Procs())*(1+areaSlack)
		var got class
		switch {
		case areaOver && path > bound:
			got = bothBounds
		case areaOver:
			got = areaOnly
		case path > bound:
			got = pathOnly
		default:
			ms, err := Makespan(g, tab, r.alloc)
			if err != nil {
				t.Fatal(err)
			}
			got = accepted
			if ms > bound {
				got = inLoop
			}
		}
		if got != r.want {
			t.Fatalf("row %d (%v): area/P %g, max bottom level %g: class %d, want %d",
				i, r.alloc, area/float64(tab.Procs()), path, got, r.want)
		}
	}

	bm, err := NewBatchMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	for _, noPre := range []bool{false, true} {
		opt := Options{RejectAbove: bound, DisablePrefilter: noPre}
		if !checkBatchScalarIdentity(t, bm, m, items, opt) {
			t.Fatalf("batch and scalar diverged (DisablePrefilter %v)", noPre)
		}
		bm.EvalBatch(items, opt, fit, errs)
		for i, r := range rows {
			var want error
			switch {
			case r.want == accepted:
			case r.want == inLoop || noPre:
				want = ErrRejected
			default:
				want = ErrRejectedPrefilter
			}
			if errs[i] != want {
				t.Errorf("row %d (%v, DisablePrefilter %v): err %v, want %v", i, r.alloc, noPre, errs[i], want)
			}
		}
	}
}
