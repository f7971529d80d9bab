package listsched

import (
	"math/rand"
	"testing"

	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// microClusters are the paper's two clusters: the map loop's per-placement
// cost is measured against P = 20 and P = 120. The fitness path grows with
// the number of availability times each placement moves; the processor-set
// recording of Map adds an O(P) scan per placement.
var microClusters = []platform.Cluster{platform.Chti(), platform.Grelon()}

func microSetup(b *testing.B, cl platform.Cluster, m int) (*Mapper, schedule.Allocation, float64) {
	b.Helper()
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, cl)
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
	for _, cl := range microClusters {
		b.Run(cl.Name, func(b *testing.B) {
			mp, child, full := microSetup(b, cl, 7)
			opt := Options{RejectAbove: full * 0.5, DisablePrefilter: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp.MakespanOpts(child, opt)
			}
		})
	}
}

func BenchmarkMicroFullAccepted(b *testing.B) {
	for _, cl := range microClusters {
		b.Run(cl.Name, func(b *testing.B) {
			mp, child, _ := microSetup(b, cl, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mp.Makespan(child); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicroMapProcSets(b *testing.B) {
	for _, cl := range microClusters {
		b.Run(cl.Name, func(b *testing.B) {
			mp, child, _ := microSetup(b, cl, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mp.Map(child); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
