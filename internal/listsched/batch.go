package listsched

import (
	"fmt"
	"math"

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
// (graph, table) pair. Each row runs start to finish before the next, cheapest
// test first:
//
//  1. validate the allocation;
//  2. with the prefilter on, the area bound (areaExceeds), which needs no
//     bottom levels — it alone rejects about half of the EA's offspring;
//  3. the reverse-topological bottom-level sweep (bottomLevelsRow) into one
//     V-length scratch row, stopping with ErrRejectedPrefilter as soon as a
//     bottom level exceeds the bound — the critical-path bound, checked task
//     by task instead of after a full sweep;
//  4. runMapLoop, the exact loop the scalar Mapper runs.
//
// Every piece of per-row state (bottom levels, indegrees, data-ready times,
// free times, ready heap) is fully rewritten before it is read, so one
// scratch row serves the whole batch and nothing carries over between rows.
// A row that stops mid-sweep leaves its bottom levels partly written; the
// next row's sweep writes every entry before any predecessor reads it.
//
// Amortization relative to λ scalar evaluations: one Rebind binds the whole
// batch (the pool rebinds per checkout, not per individual), and the sweep
// indexes the table directly instead of calling through a cost closure.
//
// A BatchMapper is NOT safe for concurrent use: each worker goroutine owns
// its own instance and evaluates its chunk of the generation (see
// ea.Config.BatchEvaluatorFactory). Results are bit-identical to the scalar
// Mapper by construction: the sweep is the float operation sequence of
// dag.BottomLevelsInto, a row is rejected iff the area bound fires or some
// bottom level exceeds the bound (the same test as max bl > bound), and
// mapping is the shared runMapLoop.
type BatchMapper struct {
	g     *dag.Graph
	tab   *model.Table
	procs int

	// st is the mapState handed to runMapLoop; st.bl is the scratch row the
	// sweep fills. The loop re-initializes the rest on entry, so one copy
	// serves the whole batch.
	st mapState

	// topoOrder is the graph's topological order, swept backwards by
	// bottomLevelsRow.
	topoOrder []dag.TaskID
}

// NewBatchMapper returns a BatchMapper for the given graph and table.
func NewBatchMapper(g *dag.Graph, tab *model.Table) (*BatchMapper, error) {
	b := &BatchMapper{}
	if err := b.bind(g, tab); err != nil {
		return nil, err
	}
	return b, nil
}

// Rebind points an existing BatchMapper at a new (graph, table) pair, reusing
// every scratch slice whose capacity suffices; for a pair of the same shape
// it performs zero heap allocations. Mirroring Mapper.Rebind, results
// afterwards are bit-identical to those of a fresh NewBatchMapper(g, tab).
//
//schedlint:hotpath
func (b *BatchMapper) Rebind(g *dag.Graph, tab *model.Table) error {
	return b.bind(g, tab)
}

// Release drops the graph and table references so a pooled BatchMapper does
// not pin request-scoped objects. Scratch is retained for the next Rebind.
//
//schedlint:hotpath
func (b *BatchMapper) Release() {
	b.g = nil
	b.tab = nil
	b.st.ready.bl = nil
}

// Shape reports the (task count, processor count) the scratch is sized for.
// Valid after Release, so pools can file instances by shape.
func (b *BatchMapper) Shape() (tasks, procs int) { return len(b.st.bl), b.procs }

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
	b.g, b.tab, b.procs = g, tab, tab.Procs()
	b.topoOrder = order
	b.st.bl = grow(b.st.bl, n)
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
	prefilter := opt.RejectAbove > 0 && !opt.DisablePrefilter
	limit := math.Inf(1)
	if prefilter {
		limit = opt.RejectAbove
	}
	for r := range items {
		alloc := items[r].Alloc
		if errs[r] = alloc.Validate(b.g, b.procs); errs[r] != nil {
			continue
		}
		if prefilter && areaExceeds(b.tab, b.procs, alloc, opt.RejectAbove) ||
			!bottomLevelsRow(b.g, b.tab, alloc, b.st.bl, b.topoOrder, limit) {
			errs[r] = ErrRejectedPrefilter
			continue
		}
		fitness[r], errs[r] = runMapLoop(b.g, b.tab, b.procs, alloc, &b.st, opt, nil, nil)
	}
}

// bottomLevelsRow fills bl with the bottom levels of alloc by the same
// reverse-topological sweep as dag.BottomLevelsInto — same order, same
// float operation sequence (bl[v] = T(v, s(v)) + maxSucc), so the bits
// match — but with the execution time indexed straight out of the table
// instead of called through a per-individual cost closure. It stops and
// returns false as soon as a bottom level exceeds limit, leaving bl partly
// written; pass +Inf to always complete the sweep.
//
//schedlint:hotpath
func bottomLevelsRow(g *dag.Graph, tab *model.Table, alloc schedule.Allocation, bl []float64, order []dag.TaskID, limit float64) bool {
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		maxSucc := 0.0
		for _, s := range g.Successors(v) {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		bl[v] = tab.Time(v, alloc[v]) + maxSucc
		if bl[v] > limit {
			return false
		}
	}
	return true
}
