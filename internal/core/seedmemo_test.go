package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"emts/internal/alloc"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// resultFingerprint renders every caller-visible field of a Result: each
// seed's name, makespan bits and error, the makespan and history bits, the
// best allocation, every counter, and an FNV-1a hash of the schedule entries.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	for _, s := range res.Seeds {
		fmt.Fprintf(&b, "seed %s %x %v\n", s.Name, math.Float64bits(s.Makespan), s.Err)
	}
	fmt.Fprintf(&b, "makespan %x\nhistory", math.Float64bits(res.Makespan))
	for _, f := range res.History {
		fmt.Fprintf(&b, " %x", math.Float64bits(f))
	}
	fmt.Fprintf(&b, "\nalloc %v\n", res.Alloc)
	fmt.Fprintf(&b, "evals %d rejections %d hits %d prefilter %d generations %d islands %d\n",
		res.Evaluations, res.Rejections, res.CacheHits, res.PrefilterRejections, res.Generations, res.Islands)
	h := fnv.New64a()
	for _, e := range res.Schedule.Entries {
		fmt.Fprintf(h, "%d %x %x %v;", e.Task, math.Float64bits(e.Start), math.Float64bits(e.End), e.Procs)
	}
	fmt.Fprintf(&b, "schedule %x\n", h.Sum64())
	return b.String()
}

func mustRun(t *testing.T, g *dag.Graph, tab *model.Table, p Params) string {
	t.Helper()
	res, err := Run(g, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	return resultFingerprint(res)
}

// irregular is the daggen configuration of the paper's irregular PTGs.
func irregular(t *testing.T, n int, seed int64) *dag.Graph {
	t.Helper()
	g, err := daggen.Random(daggen.RandomConfig{N: n, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2}, daggen.DefaultCosts(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSeedMemoMatchesFresh runs every case twice on one table — the first
// run fills the seed memo, the second replays it — and once on a freshly
// built table, and requires all three Results to agree field for field.
func TestSeedMemoMatchesFresh(t *testing.T) {
	fft, err := daggen.FFT(16, daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	strassen, err := daggen.Strassen(daggen.DefaultCosts(), 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *dag.Graph
	}{
		{"irregular-100", irregular(t, 100, 1)},
		{"irregular-300", irregular(t, 300, 2)},
		{"fft-16", fft},
		{"strassen", strassen},
	}
	presets := []struct {
		name string
		mk   func(int64) Params
	}{{"emts5", EMTS5}, {"emts10", EMTS10}}
	for _, gr := range graphs {
		for _, c := range platform.Both() {
			for _, m := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
				tab := model.MustTable(gr.g, m, c)
				for _, pr := range presets {
					for _, rej := range []bool{true, false} {
						name := fmt.Sprintf("%s/%s/%s/%s/rej=%v", gr.name, c.Name, m.Name(), pr.name, rej)
						p := pr.mk(17)
						p.UseRejection = rej
						miss := mustRun(t, gr.g, tab, p)
						if tab.SeedMemo(gr.g) == nil {
							t.Fatalf("%s: no seed memo after a default-seeded run", name)
						}
						hit := mustRun(t, gr.g, tab, p)
						fresh := mustRun(t, gr.g, model.MustTable(gr.g, m, c), p)
						if miss != fresh || hit != fresh {
							t.Fatalf("%s: memo diverged from a fresh table\nmiss:\n%s\nhit:\n%s\nfresh:\n%s", name, miss, hit, fresh)
						}
					}
				}
			}
		}
	}
}

// TestSeedMemoPerGraph pairs one table with two graphs of the same size in
// turn: each run must see its own graph's seeds, never the other's memo.
func TestSeedMemoPerGraph(t *testing.T) {
	g1, g2 := irregular(t, 60, 5), irregular(t, 60, 6)
	c := platform.Chti()
	tab := model.MustTable(g1, model.Synthetic{}, c)
	p := EMTS5(3)
	want := map[*dag.Graph]string{
		g1: mustRun(t, g1, model.MustTable(g1, model.Synthetic{}, c), p),
		g2: mustRun(t, g2, model.MustTable(g1, model.Synthetic{}, c), p),
	}
	if want[g1] == want[g2] {
		t.Fatal("the two graphs give equal results; the test cannot tell them apart")
	}
	for i, g := range []*dag.Graph{g1, g2, g1, g2, g2, g1} {
		if got := mustRun(t, g, tab, p); got != want[g] {
			t.Fatalf("run %d: got\n%s\nwant\n%s", i, got, want[g])
		}
	}
}

// countingSeeder is a custom allocator that records how often it runs.
type countingSeeder struct{ calls *int }

func (countingSeeder) Name() string { return "counting" }

func (c countingSeeder) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	*c.calls++
	return alloc.MCPA{}.Allocate(g, tab)
}

// TestSeedMemoSkipsCustomSeeds checks that custom seeders run on every call
// and that such runs leave the memo slot alone.
func TestSeedMemoSkipsCustomSeeds(t *testing.T) {
	g := irregular(t, 40, 8)
	tab := model.MustTable(g, model.Amdahl{}, platform.Chti())
	calls := 0
	p := EMTS5(2)
	p.Seeds = []alloc.Allocator{countingSeeder{&calls}, alloc.HCPA{}}
	for i := 1; i <= 3; i++ {
		mustRun(t, g, tab, p)
		if calls != i {
			t.Fatalf("after %d runs the custom seeder ran %d times", i, calls)
		}
	}
	if tab.SeedMemo(g) != nil {
		t.Fatal("a run with custom seeds filled the seed memo")
	}
}

// TestSeedMemoResultAllocPrivate mutates a returned Result in place; the
// next run on the same table must not notice.
func TestSeedMemoResultAllocPrivate(t *testing.T) {
	g := irregular(t, 50, 9)
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	p := EMTS5(4)
	res, err := Run(g, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(res)
	for i := range res.Alloc {
		res.Alloc[i] = 1
	}
	if got := mustRun(t, g, tab, p); got != want {
		t.Fatalf("mutating Result.Alloc changed the next run:\ngot\n%s\nwant\n%s", got, want)
	}
}

// TestSeedMemoNoAliasing checks that runSeeds never hands out the memo's
// own slices, neither on the miss that stores them nor on a hit, and that a
// hit replays the miss's allocations in order.
func TestSeedMemoNoAliasing(t *testing.T) {
	g := irregular(t, 40, 10)
	tab := model.MustTable(g, model.Synthetic{}, platform.Chti())
	m, err := listsched.NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, missAllocs := runSeeds(g, tab, DefaultSeeds(1), true, m)
	memo := tab.SeedMemo(g)
	if memo == nil || len(memo.Seeds) != memoSeeds {
		t.Fatalf("memo after a miss = %+v, want %d outcomes", memo, memoSeeds)
	}
	_, hitAllocs := runSeeds(g, tab, DefaultSeeds(1), true, m)
	if fmt.Sprint(hitAllocs) != fmt.Sprint(missAllocs) {
		t.Fatalf("hit allocations %v, miss allocations %v", hitAllocs, missAllocs)
	}
	for _, allocs := range [][]schedule.Allocation{missAllocs, hitAllocs} {
		for i, a := range allocs {
			for j, o := range memo.Seeds {
				if &a[0] == &o.Alloc[0] {
					t.Fatalf("seed allocation %d aliases memo entry %d", i, j)
				}
			}
		}
	}
}

// TestSeedMemoConcurrent starts eight runs on one shared (graph, table)
// with an empty memo slot, so the misses race to fill it, and requires
// every Result to equal a sequential run on a fresh table. CI runs it under
// the race detector at GOMAXPROCS 1 and 8.
func TestSeedMemoConcurrent(t *testing.T) {
	g := randomPTG(rand.New(rand.NewSource(12)), 40)
	c := platform.Chti()
	seeds := []int64{1, 2, 3, 4, 1, 2, 3, 4}
	want := make([]string, len(seeds))
	for i, s := range seeds {
		want[i] = mustRun(t, g, model.MustTable(g, model.Synthetic{}, c), EMTS5(s))
	}
	tab := model.MustTable(g, model.Synthetic{}, c)
	got := make([]string, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(g, tab, EMTS5(s))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = resultFingerprint(res)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("goroutine %d (seed %d):\ngot\n%s\nwant\n%s", i, seeds[i], got[i], want[i])
		}
	}
}
