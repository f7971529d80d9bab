package ea

import (
	"reflect"
	"testing"
	"testing/quick"

	"emts/internal/schedule"
)

// TestCacheShardsBitIdentical: any stripe count yields bit-identical runs.
// The stripe count follows the worker count, so the fanned-out path is run
// at 2, 4, 8 and 64 stripes (Workers 2, 3, 5 and 100, the last one capped);
// TestSequentialFastPathMatchesParallel covers the single stripe.
func TestCacheShardsBitIdentical(t *testing.T) {
	const v, procs = 10, 6
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	f := func(seed int64, useRejection bool) bool {
		cfg := defaultConfig(seed)
		cfg.Generations = 6
		cfg.UseRejection = useRejection
		cfg.Workers = 2
		ref, err := Run(cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		for _, workers := range []int{3, 5, 100} {
			cfg.Workers = workers
			got, err := Run(cfg, v, procs, nil, sphereFitness(target))
			if err != nil {
				return false
			}
			if got.Best.Fitness != ref.Best.Fitness ||
				!reflect.DeepEqual(got.Best.Alloc, ref.Best.Alloc) ||
				!reflect.DeepEqual(got.History, ref.History) ||
				got.Evaluations != ref.Evaluations ||
				got.Rejections != ref.Rejections ||
				got.CacheHits != ref.CacheHits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheShardRounding: the stripe count is the worker count rounded up to
// a power of two and capped.
func TestCacheShardRounding(t *testing.T) {
	cases := []struct {
		in, want int
	}{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 64}}
	for _, c := range cases {
		eng := newEvalEngine(Config{Workers: c.in}, nil)
		if got := len(eng.shards); got != c.want {
			t.Errorf("Workers %d → %d stripes, want %d", c.in, got, c.want)
		}
	}
	if eng := newEvalEngine(Config{Workers: 2, DisableCache: true}, nil); len(eng.shards) != 0 {
		t.Error("DisableCache left shards allocated")
	}
}

// TestSequentialFastPathMatchesParallel: the Workers == 1 inline path (no
// goroutine, no channel) must produce the same results and counters as the
// fanned-out path.
func TestSequentialFastPathMatchesParallel(t *testing.T) {
	const v, procs = 10, 6
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	f := func(seed int64, useRejection bool) bool {
		cfg := defaultConfig(seed)
		cfg.Generations = 6
		cfg.UseRejection = useRejection
		cfg.Workers = 1
		seq, err := Run(cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		cfg.Workers = 4
		par, err := Run(cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		return seq.Best.Fitness == par.Best.Fitness &&
			reflect.DeepEqual(seq.Best.Alloc, par.Best.Alloc) &&
			reflect.DeepEqual(seq.History, par.History) &&
			seq.Evaluations == par.Evaluations &&
			seq.Rejections == par.Rejections &&
			seq.CacheHits == par.CacheHits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// benchShardContention hammers the memo cache from GOMAXPROCS goroutines —
// the access pattern of the worker insert tail plus the lookup pre-pass — at
// a given stripe count (set through the worker count). Comparing shards=1
// against the others shows what the single-map mutex costs.
func benchShardContention(b *testing.B, shards int) {
	eng := newEvalEngine(Config{Workers: shards}, nil)
	const v, entries = 50, 1024
	allocs := make([]schedule.Allocation, entries)
	keys := make([]uint64, entries)
	for i := range allocs {
		a := make(schedule.Allocation, v)
		for j := range a {
			a[j] = 1 + (i+j)%16
		}
		allocs[i] = a
		keys[i] = hashAlloc(a)
		eng.insert(keys[i], a, float64(i))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := i & (entries - 1)
			if _, ok := eng.lookup(keys[k], allocs[k]); !ok {
				b.Fatal("lookup miss on pre-inserted entry")
			}
			i++
		}
	})
}

func BenchmarkMemoCacheStripes1(b *testing.B)  { benchShardContention(b, 1) }
func BenchmarkMemoCacheStripes8(b *testing.B)  { benchShardContention(b, 8) }
func BenchmarkMemoCacheStripes64(b *testing.B) { benchShardContention(b, 64) }
