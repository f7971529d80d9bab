package alloc

import (
	"math/rand"
	"slices"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// cpaCoreFullSweep is cpaCore as Section III-E states it: every iteration
// recomputes all bottom levels by a full dag.BottomLevelsInto sweep and takes
// T_CP as the maximum over all tasks. It is the reference the incremental
// bottom levels of cpaCore must match allocation for allocation.
func cpaCoreFullSweep(g *dag.Graph, tab *model.Table, growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) schedule.Allocation {
	procs := tab.Procs()
	s := schedule.Ones(g.NumTasks())
	cost := listsched.Cost(tab, s)
	area := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		area += tab.Time(dag.TaskID(i), 1)
	}
	var bl []float64
	sources := g.Sources()
	for iter := 0; iter < g.NumTasks()*procs; iter++ {
		bl = g.BottomLevelsInto(cost, bl)
		tcp := 0.0
		for _, b := range bl {
			if b > tcp {
				tcp = b
			}
		}
		if tcp <= area/float64(procs) {
			break
		}
		var path []dag.TaskID
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
			break
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

// cpaProcs are the processor counts the reference comparison covers: the
// degenerate single processor, the paper's two clusters (20, 120) and counts
// around a power of two.
var cpaProcs = []int{1, 2, 20, 63, 64, 65, 120}

// uniformCosts rebuilds shape with every task costing the same, so that
// bottom levels tie and the critical-path walk's tie-break decides.
func uniformCosts(shape *dag.Graph) *dag.Graph {
	b := dag.NewBuilder(shape.Name())
	for range shape.NumTasks() {
		b.AddTask(dag.Task{Flops: 2e9, Alpha: 0.1})
	}
	for _, e := range shape.Edges() {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.MustBuild()
}

// cpaInstance derives a graph of the given kind from rng: 0 a random DAG of
// up to 130 tasks (so topological positions cross bitset words), 1 a daggen
// layered PTG, 2 a daggen irregular PTG, 3 a uniform-cost FFT PTG, 4 the
// uniform-cost Strassen PTG.
func cpaInstance(t testing.TB, rng *rand.Rand, kind int) *dag.Graph {
	t.Helper()
	var g *dag.Graph
	var err error
	switch kind {
	case 0:
		b := dag.NewBuilder("random")
		n := 1 + rng.Intn(130)
		p := 0.5 * rng.Float64() * rng.Float64()
		for i := 0; i < n; i++ {
			b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*2e10, Alpha: rng.Float64() / 4})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					b.AddEdge(dag.TaskID(i), dag.TaskID(j))
				}
			}
		}
		g, err = b.Build()
	case 1, 2:
		jump := 0
		if kind == 2 {
			jump = []int{1, 2, 4}[rng.Intn(3)]
		}
		g, err = daggen.Random(daggen.RandomConfig{
			N: []int{20, 50}[rng.Intn(2)], Width: []float64{0.2, 0.5, 0.8}[rng.Intn(3)],
			Regularity: []float64{0.2, 0.8}[rng.Intn(2)], Density: []float64{0.2, 0.8}[rng.Intn(2)],
			Jump: jump,
		}, daggen.DefaultCosts(), rng.Int63())
	case 3:
		g, err = daggen.FFT(2<<rng.Intn(4), daggen.DefaultCosts(), rng.Int63())
		if err == nil {
			g = uniformCosts(g)
		}
	default:
		g, err = daggen.Strassen(daggen.DefaultCosts(), rng.Int63())
		if err == nil {
			g = uniformCosts(g)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkCPAIncremental compares CPA, HCPA (identity and non-identity speed
// translation), MCPA and MCPA2 with the full-sweep reference on one instance,
// element by element. It reports whether MCPA2 took a donor, that is whether
// its allocation differs from MCPA's.
func checkCPAIncremental(t testing.TB, g *dag.Graph, tab *model.Table) (donated bool) {
	t.Helper()
	ref := func(growable func(dag.TaskID, schedule.Allocation) bool, onGrow func(dag.TaskID, schedule.Allocation) dag.TaskID) schedule.Allocation {
		return cpaCoreFullSweep(g, tab, growable, onGrow)
	}
	cpaRef := ref(nil, nil)
	hcpa := HCPA{ReferenceSpeedGFlops: 2, ClusterSpeedGFlops: 3}
	cases := []struct {
		a    Allocator
		want schedule.Allocation
	}{
		{CPA{}, cpaRef},
		{HCPA{}, cpaRef},
		{hcpa, hcpa.translate(cpaRef.Clone(), tab.Procs())},
		{MCPA{}, ref(mcpaHooks(g, tab))},
		{MCPA2{}, ref(mcpa2Hooks(g, tab))},
	}
	for _, c := range cases {
		got, err := c.a.Allocate(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s on %s (V=%d, P=%d, %s): incremental %v, full sweep %v",
				c.a.Name(), g.Name(), g.NumTasks(), tab.Procs(), tab.Name(), got, c.want)
		}
	}
	return !slices.Equal(cases[3].want, cases[4].want)
}

// TestCPAMatchesFullSweep pins the incremental bottom levels of cpaCore: on
// random DAGs, daggen layered and irregular PTGs and uniform-cost FFT and
// Strassen PTGs, across processor counts and both models, every CPA-family
// allocation equals the one the full-sweep loop produces. Enough instances
// must make MCPA2 take a donor for its two-task updates to be exercised.
func TestCPAMatchesFullSweep(t *testing.T) {
	models := []model.Model{model.Amdahl{}, model.Synthetic{}}
	rng := rand.New(rand.NewSource(15))
	donated := 0
	for kind := range 5 {
		for _, procs := range cpaProcs {
			for _, m := range models {
				for range 2 {
					g := cpaInstance(t, rng, kind)
					cl := platform.Cluster{Name: "p", Procs: procs, SpeedGFlops: 1 + 4*rng.Float64()}
					if checkCPAIncremental(t, g, model.MustTable(g, m, cl)) {
						donated++
					}
				}
			}
		}
	}
	if donated < 20 {
		t.Fatalf("MCPA2 took a donor on only %d of 140 instances", donated)
	}
}

// FuzzCPAIncremental is the fuzz-smoke version of TestCPAMatchesFullSweep:
// the instance kind, processor count and model come from the fuzzed inputs.
func FuzzCPAIncremental(f *testing.F) {
	for kind := range 5 {
		for _, p := range cpaProcs {
			f.Add(int64(kind*1000+p), uint8(kind), p, kind%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, procs int, amdahl bool) {
		const maxProcs = 130
		if procs < 1 || procs > maxProcs {
			procs = 1 + int(uint(procs)%maxProcs)
		}
		rng := rand.New(rand.NewSource(seed))
		g := cpaInstance(t, rng, int(kind%5))
		var m model.Model = model.Synthetic{}
		if amdahl {
			m = model.Amdahl{}
		}
		cl := platform.Cluster{Name: "fuzz", Procs: procs, SpeedGFlops: 1 + 4*rng.Float64()}
		checkCPAIncremental(t, g, model.MustTable(g, m, cl))
	})
}
