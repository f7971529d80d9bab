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
func cpaCore(g *dag.Graph, tab *model.Table, growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) schedule.Allocation {
	procs := tab.Procs()
	s := schedule.Ones(g.NumTasks())
	cost := listsched.Cost(tab, s)

	// area = Σ s(v)·T(v, s(v)) is maintained incrementally.
	area := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		area += tab.Time(dag.TaskID(i), 1)
	}

	// Bottom levels and the critical path are recomputed every iteration, so
	// both reuse one buffer across the whole loop (the dominant allocation
	// cost of seeding otherwise).
	var bl []float64
	path := make([]dag.TaskID, 0, g.NumTasks())
	sources := g.Sources()

	// Each increment changes one allocation, so at most V·(P-1) iterations.
	for iter := 0; iter < g.NumTasks()*procs; iter++ {
		bl = g.BottomLevelsInto(cost, bl)
		tcp := 0.0
		for _, b := range bl {
			if b > tcp {
				tcp = b
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
		if d != -1 {
			area -= float64(s[d]) * tab.Time(d, s[d])
			s[d]--
			area += float64(s[d]) * tab.Time(d, s[d])
		}
	}
	return s
}

// CPA is the Critical Path and Area-based allocator of Rădulescu & van
// Gemund. Its allocation procedure has complexity O(V(V+E)P) (Section III-E).
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
	s := cpaCore(g, tab, nil, nil)
	ref, target := h.ReferenceSpeedGFlops, h.ClusterSpeedGFlops
	//schedlint:allow floateq -- exact identity short-circuit on two configured speeds, not on computed values: translation is the identity iff they are bit-equal
	if ref <= 0 || target <= 0 || ref == target {
		return s, nil
	}
	// Translate reference allocations to the target cluster: a task that got
	// s_ref processors of speed ref needs ceil(s_ref·ref/target) processors
	// of speed target to retain (at least) the same aggregate speed.
	procs := tab.Procs()
	for i := range s {
		s[i] = int(math.Ceil(float64(s[i]) * ref / target))
		if s[i] < 1 {
			s[i] = 1
		}
		if s[i] > procs {
			s[i] = procs
		}
	}
	return s, nil
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
	level, byLevel := g.PrecedenceLevels()
	procs := tab.Procs()
	levelSum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		levelSum[l] = len(tasks) // every task starts with 1 processor
	}
	growable := func(v dag.TaskID, s schedule.Allocation) bool {
		return levelSum[level[v]] < procs
	}
	onGrow := func(v dag.TaskID, _ schedule.Allocation) dag.TaskID {
		levelSum[level[v]]++
		return -1
	}
	return cpaCore(g, tab, growable, onGrow), nil
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
	level, byLevel := g.PrecedenceLevels()
	procs := tab.Procs()
	levelSum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		levelSum[l] = len(tasks)
	}
	growable := func(v dag.TaskID, s schedule.Allocation) bool {
		if levelSum[level[v]] < procs {
			return true
		}
		// The level is full: growing v is allowed only if some other task of
		// the level can donate a processor.
		return donor(g, tab, s, byLevel[level[v]], v) != -1
	}
	onGrow := func(v dag.TaskID, s schedule.Allocation) dag.TaskID {
		if levelSum[level[v]] < procs {
			levelSum[level[v]]++
			return -1
		}
		// levelSum unchanged: one in, one out. growable guarantees a donor.
		return donor(g, tab, s, byLevel[level[v]], v)
	}
	return cpaCore(g, tab, growable, onGrow), nil
}

// donor picks the task in tasks (excluding grown) with the smallest bottom
// level among those holding more than one processor whose execution time
// with one processor less stays below grown's current one, or -1; it is -1
// too when one more processor would not make grown faster. Bottom
// levels are approximated by the tasks' current execution times plus
// successors, which cpaCore recomputes each iteration anyway; using the
// cheaper current execution time T(v, s(v)) as the criticality proxy keeps
// this O(width).
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
