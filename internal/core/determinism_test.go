package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"emts/internal/model"
)

// TestRunDeterministicAcrossGOMAXPROCS is the meta-test behind the schedlint
// determinism analyzers (DESIGN.md §9): the full EMTS pipeline — seeding,
// (μ+λ) evolution with parallel fitness evaluation, memoization, final
// mapping — must produce bit-identical results regardless of how many OS
// threads the worker pool actually gets. It runs the pipeline twice at
// GOMAXPROCS=1 (fully serialized workers) and twice at GOMAXPROCS=8 (real
// interleaving) and requires all four Results to be deeply equal, histories
// and evaluation counters included. Run under -race this also shakes out
// unsynchronized sharing in the evaluation engine.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomPTG(rng, 30)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)

	runAt := func(procs int) *Result {
		t.Helper()
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		p := EMTS10(99)
		p.Workers = 0 // resolve to GOMAXPROCS so parallelism really differs
		res, err := Run(g, tab, p)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res
	}

	ref := runAt(1)
	for _, procs := range []int{1, 8, 8, 1} {
		got := runAt(procs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d diverged from reference run:\n got: makespan=%v history=%v evals=%d hits=%d\n ref: makespan=%v history=%v evals=%d hits=%d",
				procs, got.Makespan, got.History, got.Evaluations, got.CacheHits,
				ref.Makespan, ref.History, ref.Evaluations, ref.CacheHits)
		}
	}
}

// TestRunDeterministicCacheOnOff checks the companion claim documented on
// Params.DisableCache: the memoized evaluation engine is an optimization,
// not a semantic change, so cache on and cache off must agree on every
// search-visible output (schedule, allocation, history, evaluation budget).
// Cache bookkeeping itself is excluded: CacheHits is zero when disabled.
func TestRunDeterministicCacheOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomPTG(rng, 25)
	tab := model.MustTable(g, model.Synthetic{}, testCluster)

	pOn := EMTS5(5)
	pOff := EMTS5(5)
	pOff.DisableCache = true
	on, err := Run(g, tab, pOn)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(g, tab, pOff)
	if err != nil {
		t.Fatal(err)
	}
	// Cache bookkeeping is mode-dependent by design: CacheHits is zero with
	// the cache off, and PrefilterRejections counts only actual evaluator
	// calls, of which the uncached run makes more.
	on.CacheHits, off.CacheHits = 0, 0
	on.PrefilterRejections, off.PrefilterRejections = 0, 0
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("cache on/off diverged:\n on:  makespan=%v history=%v evals=%d\n off: makespan=%v history=%v evals=%d",
			on.Makespan, on.History, on.Evaluations,
			off.Makespan, off.History, off.Evaluations)
	}
}

// TestRunDeterministicFastPathOnOff extends the cache meta-test to the
// evaluation fast path (DESIGN.md §10): the admissible lower-bound prefilter
// (Layer 1) is an optimization, not a semantic change, so both switch
// positions must produce bit-identical search results — with rejection
// enabled, where the layer actually fires.
func TestRunDeterministicFastPathOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomPTG(rng, 25)
	tab := model.MustTable(g, model.Synthetic{}, testCluster)

	run := func(noPrefilter bool) *Result {
		t.Helper()
		p := EMTS5(5)
		p.UseRejection = true
		p.DisablePrefilter = noPrefilter
		res, err := Run(g, tab, p)
		if err != nil {
			t.Fatalf("prefilter=%v: %v", !noPrefilter, err)
		}
		// PrefilterRejections is necessarily mode-dependent (zero with the
		// prefilter off); everything else must match bit for bit.
		res.PrefilterRejections = 0
		return res
	}

	ref, got := run(true), run(false)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("prefilter diverged from baseline:\n got: makespan=%v history=%v evals=%d rejects=%d\n ref: makespan=%v history=%v evals=%d rejects=%d",
			got.Makespan, got.History, got.Evaluations, got.Rejections,
			ref.Makespan, ref.History, ref.Evaluations, ref.Rejections)
	}
}
