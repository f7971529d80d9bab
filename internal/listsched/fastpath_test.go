package listsched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/schedule"
)

// checkPrefilterExactness verifies the Layer-1 contract on one (instance,
// bound) pair: MakespanOpts must return the identical (value, error) outcome
// with the prefilter on and off. Returns false on violation.
func checkPrefilterExactness(m *Mapper, alloc schedule.Allocation, bound float64) bool {
	on, onErr := m.MakespanOpts(alloc, Options{RejectAbove: bound})
	off, offErr := m.MakespanOpts(alloc, Options{RejectAbove: bound, DisablePrefilter: true})
	if errors.Is(onErr, ErrRejected) != errors.Is(offErr, ErrRejected) {
		return false
	}
	if (onErr == nil) != (offErr == nil) {
		return false
	}
	return onErr != nil || on == off
}

// TestPrefilterExactness is the satellite property test: across random
// graphs, allocations, and bounds — including bounds straddling the true
// makespan — the admissible lower-bound prefilter must never change the
// (value, error) outcome of a bounded evaluation. This is the exactness
// guarantee the memo cache and the determinism meta-tests rely on.
func TestPrefilterExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		full, err := m.Makespan(alloc)
		if err != nil {
			return false
		}
		bounds := []float64{
			full * 0.25, full * 0.5, full * 0.999, full,
			full * 1.0001, full * 1.5, full * 4,
		}
		for i := 0; i < 6; i++ {
			bounds = append(bounds, full*(0.25+1.5*rng.Float64()))
		}
		for _, bound := range bounds {
			if !checkPrefilterExactness(m, alloc, bound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrefilterExactness is the fuzz-smoke version of TestPrefilterExactness:
// the instance is derived from the fuzzed seed and the bound from the fuzzed
// scale, so the corpus explores bound positions the fixed grid above misses.
func FuzzPrefilterExactness(f *testing.F) {
	f.Add(int64(1), 0.5)
	f.Add(int64(7), 0.999)
	f.Add(int64(42), 1.0)
	f.Add(int64(99), 1.0001)
	f.Add(int64(-3), 2.0)
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if scale != scale || scale <= 0 || scale > 1e6 {
			return // NaN or useless bound; RejectAbove <= 0 disables rejection anyway
		}
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.Makespan(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if !checkPrefilterExactness(m, alloc, full*scale) {
			t.Fatalf("prefilter on/off diverged: seed=%d scale=%g full=%g", seed, scale, full)
		}
	})
}

// mutateRandom derives a child from parent by redrawing k random positions
// (possibly the same one twice, possibly to the parent's value).
func mutateRandom(rng *rand.Rand, parent schedule.Allocation, k, procs int) schedule.Allocation {
	child := parent.Clone()
	for j := 0; j < k; j++ {
		child[rng.Intn(len(child))] = 1 + rng.Intn(procs)
	}
	return child
}
