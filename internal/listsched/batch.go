package listsched

import (
	"fmt"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// BatchItem is one individual of a batch evaluation: its allocation vector.
// Parent and Mutated are ignored — every row's bottom levels come from the
// full sweep — and remain only so callers that still set them keep
// compiling.
type BatchItem struct {
	Alloc   schedule.Allocation
	Parent  schedule.Allocation
	Mutated []int
}

// BatchMapper evaluates a whole generation of allocation vectors against one
// (graph, table) pair using a structure-of-arrays layout: allocation vectors
// and bottom levels live in contiguous row-major planes, one row per
// individual (ROADMAP item 5) — these are the two arrays phases 2–3 sweep
// across all rows at once. The remaining map-loop state (indegrees, data-ready
// times, ready-heap storage, per-processor availability) is fully
// re-initialized by every runMapLoop call and rows map strictly sequentially
// within one BatchMapper (parallelism is across per-worker instances), so one
// shared scratch row serves the whole batch instead of λ dead rows of plane.
// The batch lifecycle runs in phases, each a linear sweep over one or two
// planes:
//
//  1. ingest — validate every allocation and copy it into the alloc plane;
//  2. bottom levels — fill each row of the bl plane by the direct
//     reverse-topological sweep (same formula as dag.BottomLevelsInto, no
//     per-individual cost closure);
//  3. prefilter — one sweep over the alloc and bl planes applies both
//     admissible lower bounds (prefilterReject) to every row before any
//     mapping work starts, so hopeless rows never touch the map loop;
//  4. mapping — each surviving row runs runMapLoop, the exact same code the
//     scalar Mapper executes, with its mapState pointed at the row's plane
//     slices.
//
// Phase 4 re-applying the in-loop rejection check (with the prefilter
// disabled — phase 3 already ran it) keeps the rejected/prefiltered outcome
// of every row identical to the scalar path's, sentinel for sentinel.
//
// Amortization relative to λ scalar evaluations: one Rebind binds the whole
// batch (the pool rebinds per checkout, not per individual), plane rows share
// cache lines across consecutive individuals, and the bl sweep indexes the
// table directly instead of calling through a closure.
//
// A BatchMapper is NOT safe for concurrent use: each worker goroutine owns
// its own instance and evaluates its chunk of the generation (see
// ea.Config.BatchEvaluatorFactory). Results are bit-identical to the scalar
// Mapper by construction — phases 2–4 run the same float operation sequence
// as dag.BottomLevelsInto and the same shared code (prefilterReject,
// runMapLoop).
type BatchMapper struct {
	g     *dag.Graph
	tab   *model.Table
	procs int
	tasks int

	// Row-major planes, one row of length tasks per individual.
	allocPlane []int
	blPlane    []float64

	// st is the mapState handed to runMapLoop; st.bl is repointed at the
	// current row before each phase-4 call. Everything else in st is per-map
	// scratch the loop re-initializes on entry, so one copy serves the whole
	// batch.
	st mapState

	// topoOrder is the graph's topological order, swept backwards by
	// bottomLevelsRow.
	topoOrder []dag.TaskID
}

// NewBatchMapper returns a BatchMapper for the given graph and table. Planes
// are grown lazily by the first EvalBatch call, sized to its batch length.
func NewBatchMapper(g *dag.Graph, tab *model.Table) (*BatchMapper, error) {
	b := &BatchMapper{}
	if err := b.bind(g, tab); err != nil {
		return nil, err
	}
	return b, nil
}

// Rebind points an existing BatchMapper at a new (graph, table) pair, reusing
// every plane whose capacity suffices; for a pair of the same shape it
// performs zero heap allocations once the planes have grown to the working
// batch size. Mirroring Mapper.Rebind, results afterwards are bit-identical
// to those of a fresh NewBatchMapper(g, tab).
//
//schedlint:hotpath
func (b *BatchMapper) Rebind(g *dag.Graph, tab *model.Table) error {
	return b.bind(g, tab)
}

// Release drops the graph and table references so a pooled BatchMapper does
// not pin request-scoped objects. Planes are retained for the next Rebind.
//
//schedlint:hotpath
func (b *BatchMapper) Release() {
	b.g = nil
	b.tab = nil
	b.st.ready.bl = nil
}

// Shape reports the (task count, processor count) the planes are row-sized
// for. Valid after Release, so pools can file instances by shape.
func (b *BatchMapper) Shape() (tasks, procs int) { return b.tasks, b.procs }

//schedlint:hotpath
func (b *BatchMapper) bind(g *dag.Graph, tab *model.Table) error {
	if tab.NumTasks() != g.NumTasks() {
		//schedlint:allow hotalloc,sentinelerr,hotescape -- cold validation path: a shape mismatch is a caller bug, never the steady-state rebind
		return fmt.Errorf("listsched: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	order, err := g.TopologicalOrderInto(b.topoOrder)
	if err != nil {
		return err
	}
	n := g.NumTasks()
	if n != b.tasks || tab.Procs() != b.procs {
		// Shape change: row strides shift, so the planes' contents are
		// meaningless. Dropping their lengths (capacity kept) makes
		// ensureRows lay them out afresh.
		b.allocPlane = b.allocPlane[:0]
		b.blPlane = b.blPlane[:0]
	}
	b.g, b.tab, b.procs, b.tasks = g, tab, tab.Procs(), n
	b.topoOrder = order
	b.st.indeg = grow(b.st.indeg, n)
	b.st.readyTime = grow(b.st.readyTime, n)
	b.st.free = grow(b.st.free, b.procs)
	if cap(b.st.ready.items) < n {
		//schedlint:allow hotescape -- amortized arena growth: reallocates only when the task count outgrows the retained capacity
		b.st.ready.items = make([]dag.TaskID, 0, n)
	}
	b.st.ready.items = b.st.ready.items[:0]
	b.st.ready.bl = nil
	return nil
}

// ensureRows grows both planes to hold rows rows of the current shape.
// Existing capacity is reused; a warm BatchMapper evaluating batches of a
// stable size allocates nothing here.
func (b *BatchMapper) ensureRows(rows int) {
	nt := rows * b.tasks
	if cap(b.allocPlane) < nt {
		b.allocPlane = make([]int, nt)
		b.blPlane = make([]float64, nt)
	} else {
		b.allocPlane = b.allocPlane[:nt]
		b.blPlane = grow(b.blPlane, nt)
	}
}

// EvalBatch evaluates items[i] into fitness[i] or errs[i] for every i.
// Outcomes per row: errs[i] == nil and fitness[i] holds the makespan;
// errs[i] == ErrRejectedPrefilter (an admissible bound exceeded
// opt.RejectAbove before mapping); errs[i] == ErrRejected (the in-loop bound
// check fired); or another error (invalid allocation). fitness
// and errs must have at least len(items) entries; entries of errs are
// overwritten (nil on success).
//
// SkipProcSets is implied — no schedules are materialized; opt.RejectAbove
// and opt.DisablePrefilter behave exactly as on the scalar path.
//
// Rows are independent: every row's outcome is a pure function of its own
// item and opt, so evaluating a batch in sub-spans — EvalBatch over
// items[lo:hi] with the matching fitness/errs windows, as the EA's
// work-stealing dispatch does (DESIGN.md §17) — produces row for row the
// same bits as one call over the full span, and warm sub-span calls stay
// allocation-free (TestBatchEvalZeroAllocs).
//
//schedlint:hotpath
func (b *BatchMapper) EvalBatch(items []BatchItem, opt Options, fitness []float64, errs []error) {
	opt.SkipProcSets = true
	rows := len(items)
	if rows == 0 {
		return
	}
	b.ensureRows(rows)
	n := b.tasks

	// Phase 1: ingest. Validate and copy every allocation into its plane
	// row; the batch owns a stable snapshot even if callers reuse item
	// buffers, and the later sweeps read one contiguous plane.
	for r := range items {
		errs[r] = items[r].Alloc.Validate(b.g, b.procs)
		if errs[r] == nil {
			copy(b.allocPlane[r*n:(r+1)*n], items[r].Alloc)
		}
	}

	// Phase 2: bottom levels, one row per live individual, by the direct
	// reverse-topological sweep — the exact bits dag.BottomLevelsInto would
	// produce.
	for r := range items {
		if errs[r] != nil {
			continue
		}
		alloc := schedule.Allocation(b.allocPlane[r*n : (r+1)*n])
		bottomLevelsRow(b.g, b.tab, alloc, b.blPlane[r*n:(r+1)*n], b.topoOrder)
	}

	// Phase 3: prefilter sweep. Both admissible bounds run over every live
	// row of the alloc and bl planes before any mapping starts — two linear
	// passes per row over contiguous memory, no heap or adjacency access.
	if opt.RejectAbove > 0 && !opt.DisablePrefilter {
		for r := range items {
			if errs[r] != nil {
				continue
			}
			alloc := schedule.Allocation(b.allocPlane[r*n : (r+1)*n])
			if prefilterReject(b.tab, b.procs, alloc, b.blPlane[r*n:(r+1)*n], opt.RejectAbove) {
				errs[r] = ErrRejectedPrefilter
			}
		}
	}

	// Phase 4: map the survivors. Each row's bl slice becomes the mapState's
	// bl for runMapLoop — the same loop the scalar path runs, so the
	// resulting makespans (and ErrRejected outcomes) are bit-identical. The
	// prefilter is disabled here because phase 3 already applied it to every
	// row; the in-loop RejectAbove check still runs, preserving the scalar
	// sentinel split between the two rejection layers.
	mapOpt := opt
	mapOpt.DisablePrefilter = true
	st := &b.st
	for r := range items {
		if errs[r] != nil {
			continue
		}
		st.bl = b.blPlane[r*n : (r+1)*n]
		alloc := schedule.Allocation(b.allocPlane[r*n : (r+1)*n])
		fitness[r], errs[r] = runMapLoop(b.g, b.tab, b.procs, alloc, st, mapOpt, nil, nil)
	}
}

// bottomLevelsRow fills bl with the bottom levels of alloc by the same
// reverse-topological sweep as dag.BottomLevelsInto — same order, same
// float operation sequence (bl[v] = T(v, s(v)) + maxSucc), so the bits
// match — but with the execution time indexed straight out of the table
// instead of called through a per-individual cost closure.
//
//schedlint:hotpath
func bottomLevelsRow(g *dag.Graph, tab *model.Table, alloc schedule.Allocation, bl []float64, order []dag.TaskID) {
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		maxSucc := 0.0
		for _, s := range g.Successors(v) {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		bl[v] = tab.Time(v, alloc[v]) + maxSucc
	}
}
