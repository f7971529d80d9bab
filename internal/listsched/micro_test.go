package listsched

import (
	"math/rand"
	"testing"

	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

func microSetup(b *testing.B, m int) (*Mapper, schedule.Allocation, float64) {
	b.Helper()
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	mp, err := NewMapper(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	parent := schedule.Ones(g.NumTasks())
	for i := range parent {
		parent[i] = 1 + rng.Intn(tab.Procs())
	}
	child := mutateRandom(rng, parent, m, tab.Procs())
	full, err := mp.Makespan(parent)
	if err != nil {
		b.Fatal(err)
	}
	return mp, child, full
}

func BenchmarkMicroFullRejected(b *testing.B) {
	mp, child, full := microSetup(b, 7)
	opt := Options{RejectAbove: full * 0.5, DisablePrefilter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.MakespanOpts(child, opt)
	}
}

func BenchmarkMicroFullAccepted(b *testing.B) {
	mp, child, _ := microSetup(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Makespan(child); err != nil {
			b.Fatal(err)
		}
	}
}
