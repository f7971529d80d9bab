package listsched

import (
	"fmt"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// mapState bundles the mutable scratch one map-loop execution consumes: the
// bottom levels driving the ready-heap priority, the consumable indegree and
// data-ready-time arrays, the processors' availability times as a sorted
// multiset (free), the per-processor availability (avail) that only the
// processor-set recording path reads, and the ready heap itself. A placement
// costs O(log P + s + lo) on free, where lo counts the processors that become
// free before the task ends; recording its processor set adds one O(P) scan of
// avail. The scalar Mapper and the BatchMapper each point one mapState at
// their own scratch for their lifetime (the BatchMapper never records
// processor sets, so it leaves avail empty). Both feed the same runMapLoop, so
// the scalar and batch paths cannot drift apart.
type mapState struct {
	bl        []float64
	indeg     []int
	readyTime []float64
	free      []float64
	avail     []float64
	ready     blHeap
}

// Mapper is a reusable evaluation engine for the mapping step: it owns every
// piece of per-call scratch state (bottom-level buffer, indegrees, ready
// heap, processor availability, entry records), so repeated calls reuse the
// same arenas instead of reallocating them. After the first call on a given
// (graph, table) pair, Makespan performs zero heap allocations, which is what
// makes the EA's fitness evaluation — the dominant cost of EMTS (Section VI)
// — cheap enough to scale to large populations.
//
// A Mapper is NOT safe for concurrent use: each worker goroutine must own its
// own instance (see ea.Config.EvaluatorFactory). Results are bit-identical to
// the package-level Map/Makespan functions, which are now thin wrappers that
// construct a throwaway Mapper.
type Mapper struct {
	g     *dag.Graph
	tab   *model.Table
	procs int

	// cur is the allocation of the call in flight; cost closes over it so
	// one closure allocation at construction serves every call.
	cur  schedule.Allocation
	cost dag.CostFunc

	st mapState
}

// NewMapper returns a Mapper for the given graph and execution-time table.
// It fails if the table does not cover exactly the graph's tasks.
func NewMapper(g *dag.Graph, tab *model.Table) (*Mapper, error) {
	m := &Mapper{}
	m.cost = func(id dag.TaskID) float64 { return m.tab.Time(id, m.cur[id]) }
	if err := m.bind(g, tab); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebind points an existing Mapper at a new (graph, table) pair, reusing
// every arena whose capacity suffices — for a pair of the same shape (task
// count, processor count) it performs zero heap allocations. The map loop
// re-initializes every arena it reads, so results after a Rebind are
// bit-identical to those of a fresh NewMapper(g, tab). This is the pool reset
// protocol of DESIGN.md §12: evalpool checks Mappers out per request and
// rebinds them instead of reallocating ~8 arenas per worker per request.
//
//schedlint:hotpath
func (m *Mapper) Rebind(g *dag.Graph, tab *model.Table) error {
	return m.bind(g, tab)
}

// Release drops the graph and table references so a Mapper parked in a pool
// does not pin request-scoped objects (interned graphs and tables must stay
// evictable). Arenas are retained; a subsequent Rebind restores the Mapper to
// service.
//
//schedlint:hotpath
func (m *Mapper) Release() {
	m.g = nil
	m.tab = nil
	m.cur = nil
	m.st.ready.bl = nil
}

// Shape reports the (task count, processor count) the Mapper's arenas are
// sized for. It remains valid after Release, which is what lets a pool file a
// released Mapper under its shape without holding the graph alive.
func (m *Mapper) Shape() (tasks, procs int) { return len(m.st.bl), m.procs }

// grow returns s resized to length n, reallocating only when the capacity is
// insufficient. Reused elements keep their old values; callers that need a
// cleared arena must reset it explicitly.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bind sizes every arena for (g, tab) and resets all pair-dependent state.
// Shared by NewMapper (all capacities zero, so everything allocates) and
// Rebind (same-shape pairs reuse every arena).
//
//schedlint:hotpath
func (m *Mapper) bind(g *dag.Graph, tab *model.Table) error {
	if tab.NumTasks() != g.NumTasks() {
		//schedlint:allow hotalloc,sentinelerr,hotescape -- cold validation path: a shape mismatch is a caller bug, never the steady-state rebind
		return fmt.Errorf("listsched: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	m.g, m.tab, m.procs = g, tab, tab.Procs()
	n := g.NumTasks()
	m.st.bl = grow(m.st.bl, n)
	m.st.indeg = grow(m.st.indeg, n)
	m.st.readyTime = grow(m.st.readyTime, n)
	m.st.free = grow(m.st.free, m.procs)
	m.st.avail = grow(m.st.avail, m.procs)
	if cap(m.st.ready.items) < n {
		//schedlint:allow hotescape -- amortized arena growth: reallocates only when the task count outgrows the retained capacity
		m.st.ready.items = make([]dag.TaskID, 0, n)
	}
	m.st.ready.items = m.st.ready.items[:0]
	m.st.ready.bl = nil
	m.cur = nil
	return nil
}

// Makespan maps the allocation and returns only the resulting makespan — the
// fitness function F of Section III-A. No schedule object is materialized and
// no heap memory is allocated on the success path.
//
//schedlint:hotpath
func (m *Mapper) Makespan(alloc schedule.Allocation) (float64, error) {
	return m.mapLoop(alloc, Options{SkipProcSets: true}, nil, nil)
}

// MakespanBounded is Makespan with the rejection strategy of Section VI: it
// fails with ErrRejected as soon as a dependence-only lower bound on the
// final makespan exceeds rejectAbove (when positive). Because that lower
// bound is exact at the task achieving the makespan, rejection fires if and
// only if the final makespan would exceed the bound.
//
//schedlint:hotpath
func (m *Mapper) MakespanBounded(alloc schedule.Allocation, rejectAbove float64) (float64, error) {
	return m.mapLoop(alloc, Options{SkipProcSets: true, RejectAbove: rejectAbove}, nil, nil)
}

// MakespanOpts is Makespan with full Options control (rejection bound,
// prefilter switch). SkipProcSets is implied: no schedule is materialized.
//
//schedlint:hotpath
func (m *Mapper) MakespanOpts(alloc schedule.Allocation, opt Options) (float64, error) {
	opt.SkipProcSets = true
	return m.mapLoop(alloc, opt, nil, nil)
}

// Map builds the full schedule for the given allocation with default options.
func (m *Mapper) Map(alloc schedule.Allocation) (*schedule.Schedule, error) {
	return m.MapWithOptions(alloc, Options{})
}

// MapWithOptions builds the schedule for the given allocation. The returned
// schedule is freshly allocated and independent of the Mapper's scratch
// state: the entry array plus, unless SkipProcSets is set, one processor-ID
// arena shared by all entries' Procs slices (one allocation per Map instead
// of one per task).
func (m *Mapper) MapWithOptions(alloc schedule.Allocation, opt Options) (*schedule.Schedule, error) {
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return nil, err
	}
	entries := make([]schedule.Entry, m.g.NumTasks())
	var procArena []int
	if !opt.SkipProcSets {
		procArena = make([]int, 0, alloc.TotalProcs())
	}
	if _, err := m.mapLoop(alloc, opt, entries, procArena); err != nil {
		return nil, err
	}
	return &schedule.Schedule{Graph: m.g.Name(), Procs: m.procs, Entries: entries}, nil
}

// mapLoop is the classical two-step mapping (complexity O(E + V log V + V·P),
// as quoted in Section III-E): tasks become ready when all predecessors are
// placed; among ready tasks the one with the largest bottom level runs next
// (ties broken by task ID); it is placed on the s(v) processors that become
// available earliest (ties broken by processor index — the "first processor
// set"), starting at the maximum of its data-ready time and the availability
// of the last of those processors.
//
// The V·P term is the processor-set choice. On the fitness path a placement
// of s(v) processors costs O(log P + s(v)) plus one memmove over the
// availability times that fall before the task ends; recording the processor
// set adds one O(P) scan (runMapLoop).
//
// With RejectAbove set and the prefilter on, the area bound is checked before
// the bottom-level sweep and the critical-path bound after it; either returns
// ErrRejectedPrefilter without mapping.
//
// When entries is non-nil, one Entry per task is recorded there; otherwise
// only the makespan is tracked (the fitness path).
//
//schedlint:hotpath
func (m *Mapper) mapLoop(alloc schedule.Allocation, opt Options, entries []schedule.Entry, procArena []int) (float64, error) {
	g := m.g
	if err := alloc.Validate(g, m.procs); err != nil {
		return 0, err
	}

	prefilter := opt.RejectAbove > 0 && !opt.DisablePrefilter
	if prefilter && areaExceeds(m.tab, m.procs, alloc, opt.RejectAbove) {
		return 0, ErrRejectedPrefilter
	}
	m.cur = alloc
	bl := g.BottomLevelsInto(m.cost, m.st.bl)
	m.st.bl = bl
	m.cur = nil // cost is not consulted past this point; drop the reference
	if prefilter {
		// Critical-path bound: the first task the map loop pops is the
		// source with the largest bottom level, started at time 0, so its
		// in-loop check fires iff some bottom level exceeds the bound.
		for _, b := range bl {
			if b > opt.RejectAbove {
				return 0, ErrRejectedPrefilter
			}
		}
	}

	return runMapLoop(g, m.tab, m.procs, alloc, &m.st, opt, entries, procArena)
}

// runMapLoop executes the map loop over the scratch bundled in st. It assumes
// alloc has been validated and st.bl holds the bottom levels for alloc; the
// prefilter, if any, has already run in the caller. Both the scalar Mapper
// and the BatchMapper call it on their own scratch, which is what keeps the
// two paths bit-identical by construction. Its only rejection is the in-loop
// RejectAbove check.
//
// When entries is non-nil, one Entry per task is recorded there. procArena,
// consulted only when processor sets are recorded, must have capacity for
// alloc.TotalProcs() entries; each task's Procs is carved from it, so a full
// Map costs one arena allocation instead of one per task.
//
// Without processor sets a placement costs O(log P + s(v)) plus one memmove
// over the free times that fall before the task ends; recording its
// processor set adds one O(P) scan in processor order.
//
//schedlint:hotpath
func runMapLoop(g *dag.Graph, tab *model.Table, procs int, alloc schedule.Allocation,
	st *mapState, opt Options, entries []schedule.Entry, procArena []int) (float64, error) {
	n := g.NumTasks()
	bl := st.bl[:n]

	indeg := st.indeg[:n]
	copy(indeg, g.Indegrees())
	readyTime := st.readyTime[:n]
	for i := range readyTime {
		readyTime[i] = 0
	}

	ready := &st.ready
	ready.bl = bl
	ready.items = ready.items[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(dag.TaskID(i))
		}
	}

	// free holds the P availability times sorted ascending. A makespan
	// depends only on this multiset, not on which processor holds which time:
	// a task starts at the later of its data-ready time and the s-th earliest
	// free time, and its s processors all become free at its end. The first
	// s entries of the (availability, index) order of processors hold exactly
	// the s smallest values, so every start and end is the same float
	// operation on the same operands as if the processors were tracked.
	free := st.free[:procs]
	clear(free)
	// avail tracks processors by index, needed only to name the processor
	// set of each task.
	recordProcs := entries != nil && !opt.SkipProcSets
	var avail []float64
	if recordProcs {
		avail = st.avail[:procs]
		clear(avail)
	}
	arenaUsed := 0
	placed := 0
	makespan := 0.0

	for ready.len() > 0 {
		v := ready.pop()
		s := alloc[v]

		a := free[s-1]
		start := readyTime[v]
		if a > start {
			start = a
		}
		if opt.RejectAbove > 0 && start+bl[v] > opt.RejectAbove {
			return 0, ErrRejected
		}
		end := start + tab.Time(v, s)
		if end > makespan {
			makespan = end
		}

		if entries != nil {
			entries[v] = schedule.Entry{Task: v, Start: start, End: end}
		}
		placed++

		if recordProcs {
			// "The first processor set": every processor free before a, then
			// the lowest-numbered of those free exactly at a, as many as
			// free[:s] holds. One scan in index order yields it sorted.
			ties := s - searchFree(free[:s], a)
			set := procArena[arenaUsed : arenaUsed : arenaUsed+s]
			for p, t := range avail {
				switch {
				case t < a:
				case t <= a && ties > 0:
					ties--
				default:
					continue
				}
				avail[p] = end
				if set = append(set, p); len(set) == s {
					break
				}
			}
			entries[v].Procs = set
			arenaUsed += s
		}

		// Replace the s smallest times with s copies of end: the times in
		// free[s:] below end slide to the front in one memmove, and the
		// copies of end fill the gap before the rest, which stays in place.
		lo := searchFree(free[s:], end)
		copy(free, free[s:s+lo])
		for i := lo; i < lo+s; i++ {
			free[i] = end
		}

		for _, w := range g.Successors(v) {
			if end > readyTime[w] {
				readyTime[w] = end
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready.push(w)
			}
		}
	}

	if placed != n {
		return 0, errIncomplete
	}
	return makespan, nil
}

// searchFree returns the index of the first time in the ascending slice free
// that is not below t (len(free) if none). Hand-rolled rather than
// slices.BinarySearch, whose NaN-aware float compare costs the fitness path
// measurably; availability times are sums of table times, which
// model.NewTable checks are positive and finite, so they are never NaN.
//
//schedlint:hotpath
func searchFree(free []float64, t float64) int {
	lo, hi := 0, len(free)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); free[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// areaSlack is the relative tolerance applied to the area lower bound. The
// bound Σ s(v)·T(v,s(v)) ≤ P·M holds exactly in real arithmetic, but the
// float sum accumulates rounding of order V·ε ≈ 1e-14 for V = 100; a slack
// of 1e-9 is orders of magnitude wider than that while still far below any
// meaningful makespan difference, so the comparison can only under-reject —
// never reject an allocation the map loop would have accepted. Admissibility
// is therefore preserved (DESIGN.md §10, Layer 1).
const areaSlack = 1e-9

// areaExceeds reports whether the area lower bound Σ s(v)·T(v,s(v)) / P on
// the makespan exceeds bound: all work must fit into P processors within the
// makespan. It is the first of the prefilter's two admissible bounds and
// needs no bottom levels, so both callers check it before their sweep; the
// second, the critical-path bound max_v bl(v), is exact and is checked on
// the bottom levels (Mapper.mapLoop after the sweep, bottomLevelsRow during
// it). Both are true lower bounds, so a prefilter rejection implies the
// in-loop check would have rejected as well: results with the prefilter on
// and off are bit-identical.
//
//schedlint:hotpath
func areaExceeds(tab *model.Table, procs int, alloc schedule.Allocation, bound float64) bool {
	area := 0.0
	for v, s := range alloc {
		area += float64(s) * tab.Time(dag.TaskID(v), s)
	}
	return area > bound*float64(procs)*(1+areaSlack)
}

// blHeap is a max-heap of ready tasks ordered by bottom level (largest
// first), with task ID as the deterministic tie-break. It replaces the
// container/heap implementation: the interface-based heap boxes every TaskID
// pushed through `any`, which allocates for IDs >= 256 — unacceptable on the
// fitness path. Because (bottom level desc, ID asc) is a strict total order,
// the pop sequence of any correct heap is identical, so swapping the
// implementation preserves schedules bit for bit.
type blHeap struct {
	bl    []float64
	items []dag.TaskID
}

func (h *blHeap) len() int { return len(h.items) }

// before reports whether task a runs before task b: larger bottom level
// first, smaller ID on ties.
//
//schedlint:hotpath
func (h *blHeap) before(a, b dag.TaskID) bool {
	//schedlint:allow floateq -- exact tie-break: (bottom level desc, ID asc) must be a strict total order for the pop sequence to be schedule-preserving
	if h.bl[a] != h.bl[b] {
		return h.bl[a] > h.bl[b]
	}
	return a < b
}

//schedlint:hotpath
func (h *blHeap) push(v dag.TaskID) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//schedlint:hotpath
func (h *blHeap) pop() dag.TaskID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.before(h.items[l], h.items[best]) {
			best = l
		}
		if r < last && h.before(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
	return top
}
