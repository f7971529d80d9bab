// Package alloc implements the allocation step of the two-step scheduling
// algorithms the paper builds on and compares against (Section II-B):
//
//   - CPA    — Critical Path and Area-based allocation (Rădulescu & van
//     Gemund, ICPP 2001), the common ancestor of the family.
//   - HCPA   — Heterogeneous CPA (N'Takpé & Suter, ICPADS 2006): CPA run on a
//     virtual reference cluster; degenerates to CPA on one homogeneous
//     cluster (DESIGN.md item 4.5).
//   - MCPA   — Modified CPA (Bansal, Kumar & Singh, ParCo 2006): CPA with the
//     per-precedence-level allocation bound that preserves task parallelism.
//   - MCPA2  — a variant in the spirit of Hunold (CCGrid 2010) that lets
//     critical tasks reclaim processors from non-critical tasks of the same
//     level once the level budget is exhausted.
//   - DeltaCP — the paper's own seeding heuristic (Section III-B): share all
//     processors among the Δ-critical tasks of each precedence level.
//   - OneEach / Random — trivial allocators used as EA seeds and baselines.
//
// Allocators only produce allocation vectors; mapping them onto processors is
// package listsched's job.
package alloc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/schedule"
)

// Allocator computes a processor allocation for a PTG whose execution times
// are given by a model table (which also fixes the processor count).
type Allocator interface {
	// Name identifies the allocator in reports ("cpa", "mcpa", ...).
	Name() string
	// Allocate returns one processor count per task, each in [1, tab.Procs()].
	Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error)
}

// OneEach allocates a single processor to every task — the starting point of
// the CPA family and a pure task-parallel baseline.
type OneEach struct{}

// Name implements Allocator.
func (OneEach) Name() string { return "one" }

// Allocate implements Allocator.
func (OneEach) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	return schedule.Ones(g.NumTasks()), nil
}

// Random allocates every task a uniform random processor count in
// [1, tab.Procs()], reproducibly from Seed. It provides the random starting
// individuals of the EA population.
type Random struct {
	// Seed makes the allocation reproducible.
	Seed int64
}

// Name implements Allocator.
func (Random) Name() string { return "random" }

// Allocate implements Allocator.
func (r Random) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	a := make(schedule.Allocation, g.NumTasks())
	for i := range a {
		a[i] = 1 + rng.Intn(tab.Procs())
	}
	return a, nil
}

// cpaCore runs the CPA allocation loop. growable reports whether a task's
// allocation may be incremented given the current allocation state; it is the
// hook through which MCPA adds its level bound. onGrow is called for each
// increment, before it is applied, so bound bookkeeping can be updated; it
// returns a donor task that gives one processor back in exchange (MCPA2), or
// -1. cpaCore applies both changes itself so the running area stays the sum
// over the allocation actually held.
//
// The loop follows Rădulescu & van Gemund: starting from one processor per
// task, while the critical-path length T_CP exceeds the average area
// T_A = (1/P)·Σ s(v)·T(v, s(v)), grow the allocation of the critical-path
// task whose increment most reduces its average area T(v,s)/s. A task is only
// grown when that reduction is strictly positive — under non-monotonic models
// (Model 2) this makes the procedure stall early with small allocations,
// exactly the behaviour the paper reports in Section V-B.
//
// Section III-E's O(V(V+E)P) bound recomputes every bottom level after each
// increment. An increment changes the execution time of one task (two with a
// donor), so only their ancestors can change; the bottom levels are kept by
// a blTracker, which recomputes just the tasks whose value actually changes.
// An iteration then costs the critical-path walk plus those ancestors' edges.
func cpaCore(g *dag.Graph, tab *model.Table, growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) schedule.Allocation {
	procs := tab.Procs()
	s := schedule.Ones(g.NumTasks())

	// area = Σ s(v)·T(v, s(v)) is maintained incrementally.
	area := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		area += tab.Time(dag.TaskID(i), 1)
	}

	bt := newBLTracker(g, tab, s)
	bl := bt.bl
	path := make([]dag.TaskID, 0, g.NumTasks())
	sources := g.Sources()

	// Each increment changes one allocation, so at most V·(P-1) iterations.
	for iter := 0; iter < g.NumTasks()*procs; iter++ {
		// Execution times are positive, so a source's bottom level is at
		// least that of each of its descendants: the maximum over sources is
		// the maximum over all tasks.
		tcp := 0.0
		for _, src := range sources {
			if bl[src] > tcp {
				tcp = bl[src]
			}
		}
		ta := area / float64(procs)
		if tcp <= ta {
			break
		}
		// Walk the critical path from the highest-bottom-level source,
		// breaking ties toward the smaller task ID exactly like
		// dag.CriticalPath.
		path = path[:0]
		cur := dag.TaskID(-1)
		for _, src := range sources {
			if cur == -1 || bl[src] > bl[cur] {
				cur = src
			}
		}
		for cur != -1 {
			path = append(path, cur)
			next := dag.TaskID(-1)
			for _, s := range g.Successors(cur) {
				if next == -1 || bl[s] > bl[next] {
					next = s
				}
			}
			cur = next
		}
		best := dag.TaskID(-1)
		bestGain := 0.0
		for _, v := range path {
			sv := s[v]
			if sv >= procs || (growable != nil && !growable(v, s)) {
				continue
			}
			gain := tab.Time(v, sv)/float64(sv) - tab.Time(v, sv+1)/float64(sv+1)
			if gain > bestGain {
				bestGain = gain
				best = v
			}
		}
		if best == -1 {
			break // no critical-path task can beneficially grow
		}
		d := dag.TaskID(-1)
		if onGrow != nil {
			d = onGrow(best, s)
		}
		area -= float64(s[best]) * tab.Time(best, s[best])
		s[best]++
		area += float64(s[best]) * tab.Time(best, s[best])
		bt.mark(best, false)
		if d != -1 {
			area -= float64(s[d]) * tab.Time(d, s[d])
			s[d]--
			area += float64(s[d]) * tab.Time(d, s[d])
			bt.mark(d, false)
		}
		bt.settle()
	}
	return s
}

// blTracker keeps the bottom levels of an allocation that changes a few tasks
// at a time. Alongside each bottom level it keeps the task's max-successor
// value, so that bl[v] = T(v, s(v)) + maxSucc[v] is always the float
// operation dag.BottomLevelsInto performs; every value it holds therefore has
// the bits a full sweep would produce.
//
// mark flags a task whose allocation moved; settle then recomputes dirty
// tasks from the highest topological position down, so each task is
// recomputed at most once and only after all of its successors. A task whose
// bottom level does not change stops the propagation. One that rises raises
// its predecessors' maxSucc in O(1); one that falls forces a predecessor to
// rescan its successors only if it held that predecessor's maximum.
type blTracker struct {
	g     *dag.Graph
	tab   *model.Table
	s     schedule.Allocation
	order []dag.TaskID // topological order
	pos   []int32      // pos[v] is v's index in order

	bl, maxSucc []float64
	// dirty and rescan are bitsets over topological positions: dirty tasks
	// need their bottom level recomputed, rescan ones their maxSucc too.
	dirty, rescan []uint64
	top           int // highest word of dirty that may be non-zero
}

// newBLTracker computes the bottom levels of s by one full sweep.
func newBLTracker(g *dag.Graph, tab *model.Table, s schedule.Allocation) *blTracker {
	n := g.NumTasks()
	// Graphs come from dag.Builder, which rejects cycles and caches the order.
	order, _ := g.TopologicalOrder()
	words := (n + 63) / 64
	floats := make([]float64, 2*n)
	bitsets := make([]uint64, 2*words)
	t := &blTracker{
		g: g, tab: tab, s: s, order: order, pos: make([]int32, n),
		bl: floats[:n], maxSucc: floats[n:],
		dirty: bitsets[:words], rescan: bitsets[words:],
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		t.pos[v] = int32(i)
		maxSucc := 0.0
		for _, w := range g.Successors(v) {
			if t.bl[w] > maxSucc {
				maxSucc = t.bl[w]
			}
		}
		t.maxSucc[v] = maxSucc
		t.bl[v] = tab.Time(v, s[v]) + maxSucc
	}
	return t
}

// settle brings every bottom level up to date with s.
func (t *blTracker) settle() {
	bl, maxSucc := t.bl, t.maxSucc
	for w := t.top; w >= 0; w-- {
		for t.dirty[w] != 0 {
			b := bits.Len64(t.dirty[w]) - 1
			t.dirty[w] &^= 1 << b
			v := t.order[w<<6|b]
			if t.rescan[w]&(1<<b) != 0 {
				t.rescan[w] &^= 1 << b
				m := 0.0
				for _, x := range t.g.Successors(v) {
					if bl[x] > m {
						m = bl[x]
					}
				}
				maxSucc[v] = m
			}
			old := bl[v]
			nb := t.tab.Time(v, t.s[v]) + maxSucc[v]
			bl[v] = nb
			// Predecessors sit at lower positions, so the scan reaches them
			// later in this pass.
			switch {
			case nb > old:
				for _, u := range t.g.Predecessors(v) {
					if nb > maxSucc[u] {
						maxSucc[u] = nb
						t.mark(u, false)
					}
				}
			case nb < old:
				for _, u := range t.g.Predecessors(v) {
					if old >= maxSucc[u] { // v held u's maximum
						t.mark(u, true)
					}
				}
			}
		}
	}
	t.top = 0
}

// mark flags u for recomputation by the next settle: its bottom level, and
// with rescan its maxSucc as well. cpaCore marks each task whose allocation
// it moved.
func (t *blTracker) mark(u dag.TaskID, rescan bool) {
	i := int(t.pos[u])
	t.dirty[i>>6] |= 1 << (i & 63)
	if rescan {
		t.rescan[i>>6] |= 1 << (i & 63)
	}
	t.top = max(t.top, i>>6)
}

// CPA is the Critical Path and Area-based allocator of Rădulescu & van
// Gemund. Section III-E quotes O(V(V+E)P) for its allocation procedure; with
// incremental bottom levels (cpaCore) each of the up to V·P iterations costs
// the critical-path walk plus the edges of the ancestors whose bottom level
// changes.
type CPA struct{}

// Name implements Allocator.
func (CPA) Name() string { return "cpa" }

// Allocate implements Allocator.
func (CPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	return cpaCore(g, tab, nil, nil), nil
}

// HCPA is the allocation procedure of Heterogeneous CPA (N'Takpé & Suter).
// HCPA computes allocations on a virtual reference cluster and translates
// them to each real cluster proportionally to processor speed. On a single
// homogeneous cluster with the reference speed equal to the cluster speed the
// translation is the identity and HCPA's allocation equals CPA's — which is
// how the paper uses it.
type HCPA struct {
	// ReferenceSpeedGFlops is the speed of the virtual reference cluster's
	// processors. Zero means "use the target cluster's speed" (identity
	// translation, the paper's homogeneous setting).
	ReferenceSpeedGFlops float64
	// ClusterSpeedGFlops is the speed of the target cluster's processors,
	// used for the translation. Zero means equal to the reference speed.
	ClusterSpeedGFlops float64
}

// Name implements Allocator.
func (HCPA) Name() string { return "hcpa" }

// Allocate implements Allocator.
func (h HCPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	return h.translate(cpaCore(g, tab, nil, nil), tab.Procs()), nil
}

// translate maps an allocation s computed on the reference cluster to the
// target cluster, in place.
func (h HCPA) translate(s schedule.Allocation, procs int) schedule.Allocation {
	ref, target := h.ReferenceSpeedGFlops, h.ClusterSpeedGFlops
	//schedlint:allow floateq -- exact identity short-circuit on two configured speeds, not on computed values: translation is the identity iff they are bit-equal
	if ref <= 0 || target <= 0 || ref == target {
		return s
	}
	// A task that got s_ref processors of speed ref needs
	// ceil(s_ref·ref/target) processors of speed target to retain (at least)
	// the same aggregate speed.
	for i := range s {
		s[i] = int(math.Ceil(float64(s[i]) * ref / target))
		if s[i] < 1 {
			s[i] = 1
		}
		if s[i] > procs {
			s[i] = procs
		}
	}
	return s
}

// MCPA is the Modified CPA allocator of Bansal, Kumar & Singh: identical to
// CPA except that a task may only grow while the summed allocation of its
// precedence level stays within P, which preserves the task parallelism of
// regular (layered) PTGs — the reason MCPA is hard to beat on FFT, Strassen,
// and layered graphs (Section V-A).
type MCPA struct{}

// Name implements Allocator.
func (MCPA) Name() string { return "mcpa" }

// Allocate implements Allocator.
func (MCPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	growable, onGrow := mcpaHooks(g, tab)
	return cpaCore(g, tab, growable, onGrow), nil
}

// mcpaHooks returns MCPA's cpaCore hooks, which share one fresh level budget.
func mcpaHooks(g *dag.Graph, tab *model.Table) (growable func(dag.TaskID, schedule.Allocation) bool, onGrow func(dag.TaskID, schedule.Allocation) dag.TaskID) {
	level, byLevel := g.PrecedenceLevels()
	procs := tab.Procs()
	levelSum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		levelSum[l] = len(tasks) // every task starts with 1 processor
	}
	growable = func(v dag.TaskID, s schedule.Allocation) bool {
		return levelSum[level[v]] < procs
	}
	onGrow = func(v dag.TaskID, _ schedule.Allocation) dag.TaskID {
		levelSum[level[v]]++
		return -1
	}
	return growable, onGrow
}

// MCPA2 extends MCPA in the spirit of Hunold (CCGrid 2010): when a critical
// task's precedence level has exhausted its processor budget, MCPA2 reclaims
// one processor from the least-critical task of the same level that holds
// more than one (instead of refusing to grow, as MCPA does). Levels whose
// width exceeds P behave exactly like MCPA.
//
// An exchange must make the growing task faster, and the donor must still
// run shorter than the growing task did before. Without that rule two tasks
// of a full level can trade one processor back and forth until the
// iteration cap. With it, each exchange replaces two execution times of the
// level by two shorter than one of them, which decreases the level's
// multiset of times in the multiset order, so the trading stops.
type MCPA2 struct{}

// Name implements Allocator.
func (MCPA2) Name() string { return "mcpa2" }

// Allocate implements Allocator.
func (MCPA2) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	growable, onGrow := mcpa2Hooks(g, tab)
	return cpaCore(g, tab, growable, onGrow), nil
}

// mcpa2Hooks returns MCPA2's cpaCore hooks, which share one fresh level
// budget.
func mcpa2Hooks(g *dag.Graph, tab *model.Table) (growable func(dag.TaskID, schedule.Allocation) bool, onGrow func(dag.TaskID, schedule.Allocation) dag.TaskID) {
	level, byLevel := g.PrecedenceLevels()
	procs := tab.Procs()
	levelSum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		levelSum[l] = len(tasks)
	}
	growable = func(v dag.TaskID, s schedule.Allocation) bool {
		if levelSum[level[v]] < procs {
			return true
		}
		// The level is full: growing v is allowed only if some other task of
		// the level can donate a processor.
		return donor(g, tab, s, byLevel[level[v]], v) != -1
	}
	onGrow = func(v dag.TaskID, s schedule.Allocation) dag.TaskID {
		if levelSum[level[v]] < procs {
			levelSum[level[v]]++
			return -1
		}
		// levelSum unchanged: one in, one out. growable guarantees a donor.
		return donor(g, tab, s, byLevel[level[v]], v)
	}
	return growable, onGrow
}

// donor picks the task in tasks (excluding grown) with the smallest bottom
// level among those holding more than one processor whose execution time
// with one processor less stays below grown's current one, or -1; it is -1
// too when one more processor would not make grown faster. The
// current execution time T(v, s(v)) stands in for the bottom level as the
// criticality proxy, which keeps this O(width).
func donor(g *dag.Graph, tab *model.Table, s schedule.Allocation, tasks []dag.TaskID, grown dag.TaskID) dag.TaskID {
	best := dag.TaskID(-1)
	bestTime := 0.0
	limit := tab.Time(grown, s[grown])
	if tab.Time(grown, s[grown]+1) >= limit {
		return -1
	}
	for _, u := range tasks {
		if u == grown || s[u] <= 1 || tab.Time(u, s[u]-1) >= limit {
			continue
		}
		t := tab.Time(u, s[u])
		if best == -1 || t < bestTime {
			best = u
			bestTime = t
		}
	}
	return best
}

// DeltaCP is the paper's heuristic for creating an additional starting
// individual (Section III-B): compute bottom levels assuming one processor
// per task, then, per precedence level, share all P processors equally among
// the Δ-critical tasks of that level (those whose bottom level is at least
// Delta times the level's maximum); non-critical tasks get one processor.
type DeltaCP struct {
	// Delta in [0,1] is the minimum relative criticality; the paper uses 0.9
	// ("tasks whose criticality is only 10% smaller than the maximum value
	// are also considered critical").
	Delta float64
}

// Name implements Allocator.
func (DeltaCP) Name() string { return "delta-cp" }

// Allocate implements Allocator.
func (d DeltaCP) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	if d.Delta < 0 || d.Delta > 1 {
		return nil, fmt.Errorf("alloc: delta %g outside [0,1]", d.Delta)
	}
	procs := tab.Procs()
	ones := schedule.Ones(g.NumTasks())
	bl := g.BottomLevels(listsched.Cost(tab, ones))
	_, byLevel := g.PrecedenceLevels()

	s := schedule.Ones(g.NumTasks())
	for _, tasks := range byLevel {
		maxBL := 0.0
		for _, v := range tasks {
			if bl[v] > maxBL {
				maxBL = bl[v]
			}
		}
		var critical []dag.TaskID
		for _, v := range tasks {
			if bl[v] >= d.Delta*maxBL {
				critical = append(critical, v)
			}
		}
		if len(critical) == 0 {
			continue // unreachable: the max task is always critical
		}
		share := procs / len(critical)
		if share < 1 {
			share = 1
		}
		for _, v := range critical {
			s[v] = share
		}
	}
	return s, nil
}

func checkInputs(g *dag.Graph, tab *model.Table) error {
	if tab.NumTasks() != g.NumTasks() {
		return fmt.Errorf("alloc: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	if g.NumTasks() == 0 {
		return fmt.Errorf("alloc: empty graph")
	}
	return nil
}
