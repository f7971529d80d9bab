package listsched

import (
	"math/rand"
	"reflect"
	"testing"

	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// TestMapperRebindMatchesFresh is the pool reset protocol's correctness
// contract: one Mapper rebound across a stream of unrelated instances must
// behave bit-for-bit like a fresh Mapper on each.
func TestMapperRebindMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reused := &Mapper{}
	for trial := 0; trial < 100; trial++ {
		g, alloc, tab := randomInstance(rng)
		fresh, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			reused, err = NewMapper(g, tab)
		} else {
			err = reused.Rebind(g, tab)
		}
		if err != nil {
			t.Fatal(err)
		}

		wantSched, err := fresh.Map(alloc)
		if err != nil {
			t.Fatal(err)
		}
		gotSched, err := reused.Map(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSched, gotSched) {
			t.Fatalf("trial %d: rebound Mapper schedule differs from fresh", trial)
		}

		// Park the Mapper as the pool would between requests.
		reused.Release()
	}
}

// TestMapperRebindSameShapeZeroAllocs pins the pooling guarantee: rebinding a
// released Mapper to a same-shape (|V|, P) pair allocates nothing, so a warm
// pooled request pays zero setup allocations per worker.
func TestMapperRebindSameShapeZeroAllocs(t *testing.T) {
	cluster := platform.Grelon()
	mk := func(seed int64) (*model.Table, schedule.Allocation, *Mapper) {
		g, err := daggen.Random(daggen.RandomConfig{
			N: 120, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
		}, daggen.DefaultCosts(), seed)
		if err != nil {
			t.Fatal(err)
		}
		tab := model.MustTable(g, model.Synthetic{}, cluster)
		alloc := schedule.Ones(g.NumTasks())
		for i := range alloc {
			alloc[i] = 1 + i%tab.Procs()
		}
		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		return tab, alloc, m
	}
	tabA, allocA, m := mk(3)
	tabB, allocB, fresh := mk(4)
	graphA, graphB := m.g, fresh.g

	avg := testing.AllocsPerRun(50, func() {
		if err := m.Rebind(graphB, tabB); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Makespan(allocB); err != nil {
			t.Fatal(err)
		}
		m.Release()
		if err := m.Rebind(graphA, tabA); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Makespan(allocA); err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if avg != 0 {
		t.Fatalf("same-shape Rebind cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestMapperShapeAfterRelease: the pool files released Mappers by shape, so
// Shape must survive Release.
func TestMapperShapeAfterRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _, tab := randomInstance(rng)
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	tasks, procs := m.Shape()
	if tasks != g.NumTasks() || procs != tab.Procs() {
		t.Fatalf("Shape after Release = (%d, %d), want (%d, %d)", tasks, procs, g.NumTasks(), tab.Procs())
	}
	// A released Mapper must come back to life on Rebind.
	if err := m.Rebind(g, tab); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Makespan(schedule.Ones(g.NumTasks())); err != nil {
		t.Fatal(err)
	}
}
