package ea

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"emts/internal/schedule"
)

// evalEngine drives all fitness evaluation of one Run: it owns the per-worker
// Evaluator instances (so arena-backed evaluators like listsched.Mapper are
// reused instead of reallocated on every call) and the fitness memoization
// cache.
//
// The cache is exact, not heuristic: plus-selection re-carries parents into
// the next generation's pool and the Eq. (1) mutation operator frequently
// regenerates an allocation that was already evaluated, so identical vectors
// recur often. Because Evaluators are pure functions of the allocation, a
// memoized fitness can stand in for a fresh call. Rejection is emulated
// exactly as well: an Evaluator honoring rejectAbove fails if and only if the
// true fitness exceeds the bound (see Mapper.MakespanBounded), so a cache hit
// with fitness f is treated as rejected precisely when f > rejectAbove.
// Results are therefore bit-identical with the cache on or off.
//
// The cache is striped into power-of-two locked shards (DESIGN.md §12):
// lookups run in the serial pre-pass, but fresh results are inserted by the
// worker goroutines as they finish, so with Workers > 1 a single map mutex
// would serialize the insert tail of every generation. Striping by the FNV
// key's low bits spreads those inserts across independent locks. Shard count
// never changes results: entries are found by full-vector comparison and the
// same (alloc, fitness) pairs land in the cache in any interleaving.
type evalEngine struct {
	fallback  Evaluator
	factory   func() Evaluator
	workers   int
	perW      []Evaluator
	shards    []cacheShard // empty when memoization is disabled
	shardMask uint64

	// Batch dispatch (DESIGN.md §13): when batchFactory is non-nil, the
	// unresolved representatives of each generation are split into contiguous
	// chunks and each worker evaluates its chunk in one BatchEvaluator call
	// instead of one channel round-trip per individual.
	batchFactory func() BatchEvaluator
	perWBatch    []BatchEvaluator
	// stealing selects the work-stealing batch dispatch (steal.go) over the
	// fixed contiguous chunks; ranges is its per-worker deque scratch,
	// reused across generations.
	stealing bool
	ranges   []stealRange

	// Per-batch scratch, sized on first use and reused across generations so
	// evaluateAll allocates nothing after warm-up (pooled evaluation state).
	state  []int
	errs   []error
	keys   []uint64
	toEval []int
	reps   map[uint64][]int
	// Batch-dispatch scratch: items/fit/batchErrs are indexed like toEval
	// and sliced disjointly per worker chunk, so chunk writes never overlap.
	items     []schedule.Allocation
	fit       []float64
	batchErrs []error
}

// cacheShard is one stripe of the memo cache: a bucket map plus the arena
// backing its entries' allocation copies. The padding keeps shards on
// separate cache lines so concurrent inserts don't false-share.
type cacheShard struct {
	mu    sync.Mutex
	m     map[uint64][]memoEntry
	arena []int
	_     [24]byte
}

// arenaChunkAllocs sizes the shard arena growth: each new chunk holds this
// many allocation vectors. Entry copies are carved from the chunk, so a run
// with F fresh evaluations costs O(F/arenaChunkAllocs) allocations per shard
// instead of F individual clones.
const arenaChunkAllocs = 64

// maxCacheStripes caps striping: beyond the core count extra shards only cost
// memory.
const maxCacheStripes = 64

// memoEntry resolves hash collisions by keeping the full vector. The alloc
// slice is a private copy carved from the shard arena at insert time:
// offspring vectors are backed by a per-generation arena that is overwritten
// by the next generation, so retaining them by reference would corrupt the
// cache.
type memoEntry struct {
	alloc   schedule.Allocation
	fitness float64
}

func newEvalEngine(cfg Config, fitness Evaluator) *evalEngine {
	eng := &evalEngine{fallback: fitness, factory: cfg.EvaluatorFactory, workers: cfg.Workers}
	if cfg.BatchEvaluatorFactory != nil && !cfg.DisableBatch {
		eng.batchFactory = cfg.BatchEvaluatorFactory
		eng.stealing = !cfg.DisableWorkStealing
	}
	if eng.workers <= 0 {
		eng.workers = runtime.GOMAXPROCS(0)
	}
	if !cfg.DisableCache {
		// One stripe per worker, rounded up to a power of two so shard
		// selection is a mask of the FNV key's low bits.
		n := min(eng.workers, maxCacheStripes)
		if n&(n-1) != 0 {
			n = 1 << bits.Len(uint(n))
		}
		eng.shards = make([]cacheShard, n)
		eng.shardMask = uint64(n - 1)
		for i := range eng.shards {
			eng.shards[i].m = make(map[uint64][]memoEntry)
		}
	}
	if runtime.GOMAXPROCS(0) == 1 {
		// On a single-core host worker fan-out cannot overlap anything: the
		// goroutines and channel round-trips are pure overhead (the
		// BENCH_PR6 single-core caveat). Results are worker-count
		// independent, so clamping to the inline dispatch path changes
		// timing only. Applied after shard sizing so the cache keeps the
		// stripe count the configured worker count implies.
		eng.workers = 1
	}
	return eng
}

// cached reports whether memoization is on.
func (eng *evalEngine) cached() bool { return len(eng.shards) > 0 }

// shard selects the stripe for a key. FNV-1a mixes well in the low bits, so
// masking suffices.
//
//schedlint:hotpath
func (eng *evalEngine) shard(key uint64) *cacheShard {
	return &eng.shards[key&eng.shardMask]
}

// evaluator returns the evaluator owned by worker w, constructing it on first
// use. Must be called before the worker goroutines start.
func (eng *evalEngine) evaluator(w int) Evaluator {
	if eng.factory == nil {
		return eng.fallback
	}
	for len(eng.perW) <= w {
		eng.perW = append(eng.perW, eng.factory())
	}
	return eng.perW[w]
}

//schedlint:hotpath
func (eng *evalEngine) lookup(key uint64, a schedule.Allocation) (float64, bool) {
	s := eng.shard(key)
	s.mu.Lock()
	for _, e := range s.m[key] {
		if allocsEqual(e.alloc, a) {
			s.mu.Unlock()
			return e.fitness, true
		}
	}
	s.mu.Unlock()
	return 0, false
}

// insert records a fresh evaluation. Safe for concurrent use: workers insert
// as they finish, each under its key's shard lock. The allocation is copied
// into the shard arena (offspring vectors are generation-scoped; see
// memoEntry).
//
//schedlint:hotpath
func (eng *evalEngine) insert(key uint64, a schedule.Allocation, f float64) {
	s := eng.shard(key)
	s.mu.Lock()
	n := len(a)
	if len(s.arena)+n > cap(s.arena) {
		chunk := arenaChunkAllocs * n
		if chunk < n {
			chunk = n
		}
		//schedlint:allow hotescape -- amortized arena chunk: one allocation per arenaChunkAllocs cache inserts
		s.arena = make([]int, 0, chunk)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+n]
	cp := s.arena[off : off+n : off+n]
	copy(cp, a)
	s.m[key] = append(s.m[key], memoEntry{alloc: cp, fitness: f})
	s.mu.Unlock()
}

// hashAlloc is FNV-1a over the alleles, widened to uint64 per position.
//
//schedlint:hotpath
func hashAlloc(a schedule.Allocation) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range a {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

//schedlint:hotpath
func allocsEqual(a, b schedule.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchEvaluator returns the BatchEvaluator owned by worker w, constructing
// it on first use. Like evaluator, it must be called before the worker
// goroutines start.
func (eng *evalEngine) batchEvaluator(w int) BatchEvaluator {
	for len(eng.perWBatch) <= w {
		eng.perWBatch = append(eng.perWBatch, eng.batchFactory())
	}
	return eng.perWBatch[w]
}

// fileOutcome records one individual's evaluation outcome at its fixed
// index: fitness plus memo insert on success, +Inf on rejection, error
// capture otherwise. Shared by the scalar per-individual path (evalOne) and
// the batch chunk path (runBatchChunk), so the bookkeeping — and therefore
// every counter and the duplicate-resolution phase — is identical in all
// dispatch modes. The two returned flags let batch callers accumulate
// rejection counts chunk-locally instead of per individual.
//
//schedlint:hotpath
func (eng *evalEngine) fileOutcome(i int, inds []Individual, f float64, err error,
	firstErr *atomic.Pointer[error]) (wasRejected, wasPrefiltered bool) {
	switch {
	case err == nil:
		inds[i].Fitness = f
		if eng.cached() {
			eng.insert(eng.keys[i], inds[i].Alloc, f)
		}
	case errors.Is(err, ErrRejected):
		inds[i].Fitness = math.Inf(1)
		eng.errs[i] = err
		wasRejected = true
		wasPrefiltered = errors.Is(err, ErrRejectedPrefilter)
	default:
		eng.errs[i] = err
		//schedlint:allow hotescape -- the copy deliberately confines the heap move to this cold error branch
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}
	return wasRejected, wasPrefiltered
}

// evalOne runs one individual through the worker's evaluator and files the
// outcome at its fixed index. Shared with the sequential fast path, so the
// bookkeeping is identical in both modes.
//
//schedlint:hotpath
func (eng *evalEngine) evalOne(ev Evaluator, i int, inds []Individual, rejectAbove float64,
	rejected, prefiltered *atomic.Int64, firstErr *atomic.Pointer[error]) {
	f, err := ev(inds[i].Alloc, rejectAbove)
	rej, pre := eng.fileOutcome(i, inds, f, err, firstErr)
	if rej {
		rejected.Add(1)
	}
	if pre {
		prefiltered.Add(1)
	}
}

// runBatchChunk evaluates one contiguous chunk of unresolved individuals
// through a worker-owned BatchEvaluator and files every outcome at its fixed
// index. idxs maps chunk positions back to individual indices; items, fit,
// and errs are the chunk's disjoint sub-slices of the engine's batch
// scratch. Rejection counts accumulate chunk-locally and land in the shared
// atomics with two adds per chunk instead of two per individual.
//
//schedlint:hotpath
func (eng *evalEngine) runBatchChunk(ev BatchEvaluator, idxs []int, items []schedule.Allocation,
	fit []float64, errs []error, inds []Individual, rejectAbove float64,
	rejected, prefiltered *atomic.Int64, firstErr *atomic.Pointer[error]) {
	if err := ev(items, rejectAbove, fit, errs); err != nil {
		// Batch-level failure (evaluator construction): every individual of
		// the chunk inherits it, exactly as if a scalar evaluator had failed.
		for _, i := range idxs {
			eng.errs[i] = err
			//schedlint:allow hotescape -- the copy deliberately confines the heap move to this cold error branch
			e := err
			firstErr.CompareAndSwap(nil, &e)
		}
		return
	}
	rej, pre := 0, 0
	for k, i := range idxs {
		r, p := eng.fileOutcome(i, inds, fit[k], errs[k], firstErr)
		if r {
			rej++
		}
		if p {
			pre++
		}
	}
	rejected.Add(int64(rej))
	prefiltered.Add(int64(pre))
}

// evalBatch dispatches the unresolved representatives in toEval through the
// batch path: the batch scratch is filled with one allocation per individual
// and the rows are evaluated by
// worker-owned BatchEvaluators — via the work-stealing range deques of
// steal.go by default, or in fixed contiguous chunks of w*n/workers rows
// under DisableWorkStealing. Either way every row's outcome lands at its
// fixed index in the batch scratch arrays, so the results and counters are
// deterministic; only the fixed-chunk path additionally pins *which* worker
// evaluates which row.
//
//schedlint:hotpath
func (eng *evalEngine) evalBatch(toEval []int, inds []Individual, rejectAbove float64,
	rejected, prefiltered *atomic.Int64, firstErr *atomic.Pointer[error]) {
	n := len(toEval)
	eng.items = growScratch(eng.items, n)
	eng.fit = growScratch(eng.fit, n)
	eng.batchErrs = growScratch(eng.batchErrs, n)
	for k, i := range toEval {
		eng.items[k] = inds[i].Alloc
	}
	workers := eng.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		eng.runBatchChunk(eng.batchEvaluator(0), toEval, eng.items, eng.fit, eng.batchErrs,
			inds, rejectAbove, rejected, prefiltered, firstErr)
		return
	}
	if eng.stealing {
		eng.evalBatchStealing(workers, toEval, inds, rejectAbove, rejected, prefiltered, firstErr)
		return
	}
	// Construct all evaluators serially before the goroutines start
	// (batchEvaluator mutates perWBatch).
	for w := 0; w < workers; w++ {
		eng.batchEvaluator(w)
	}
	//schedlint:allow hotescape -- wg is captured by the per-worker closures; one heap move per generation, amortized over the batch
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		//schedlint:allow hotalloc,hotescape -- one closure per worker per generation, amortized over the chunk's evaluations
		go func(ev BatchEvaluator, lo, hi int) {
			defer wg.Done()
			eng.runBatchChunk(ev, toEval[lo:hi], eng.items[lo:hi], eng.fit[lo:hi], eng.batchErrs[lo:hi],
				inds, rejectAbove, rejected, prefiltered, firstErr)
		}(eng.perWBatch[w], lo, hi)
	}
	wg.Wait()
}

// batchScratch resizes the per-batch arrays for n individuals, reusing the
// previous generation's backing memory.
//
//schedlint:hotpath
func (eng *evalEngine) batchScratch(n int) {
	eng.state = growScratch(eng.state, n)
	eng.errs = growScratch(eng.errs, n)
	eng.keys = growScratch(eng.keys, n)
	if cap(eng.toEval) < n {
		//schedlint:allow hotescape -- amortized arena growth: reallocates only when the population outgrows the retained capacity
		eng.toEval = make([]int, 0, n)
	}
	eng.toEval = eng.toEval[:0]
	for i := 0; i < n; i++ {
		eng.errs[i] = nil
	}
	if eng.reps == nil {
		//schedlint:allow hotescape -- lazy one-time init: the map is built on the first batch and cleared, not reallocated, afterwards
		eng.reps = make(map[uint64][]int, n)
	} else {
		clear(eng.reps)
	}
}

// growScratch returns s with length n, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers overwrite what they
// read.
func growScratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// evaluateAll computes fitness for every individual, fanning out across a
// bounded worker pool. Results land at fixed indices, so the outcome is
// independent of goroutine interleaving. Rejected individuals get +Inf.
//
// With memoization enabled, each individual is first resolved against the
// cache and against duplicates earlier in the same batch; only unresolved
// representatives reach the workers. Evaluations counts every individual
// regardless of how its fitness was obtained (the EA's search budget is
// unchanged by caching); CacheHits counts the subset answered without calling
// an Evaluator.
//
//schedlint:hotpath
func (eng *evalEngine) evaluateAll(inds []Individual, rejectAbove float64, res *Result) error {
	n := len(inds)

	const (
		needsEval = -1 // dispatch to a worker
		resolved  = -2 // answered from the memo cache
		// >= 0: duplicate of the representative at that index
	)
	eng.batchScratch(n)
	state := eng.state
	toEval := eng.toEval

	//schedlint:allow hotescape -- rejected is captured by the per-worker closures; one heap move per generation
	var rejected atomic.Int64
	if eng.cached() {
		for i := range inds {
			key := hashAlloc(inds[i].Alloc)
			eng.keys[i] = key
			if f, ok := eng.lookup(key, inds[i].Alloc); ok {
				res.CacheHits++
				if rejectAbove > 0 && f > rejectAbove {
					inds[i].Fitness = math.Inf(1)
					rejected.Add(1)
				} else {
					inds[i].Fitness = f
				}
				state[i] = resolved
				continue
			}
			dup := -1
			for _, j := range eng.reps[key] {
				if allocsEqual(inds[j].Alloc, inds[i].Alloc) {
					dup = j
					break
				}
			}
			if dup >= 0 {
				state[i] = dup
				continue
			}
			eng.reps[key] = append(eng.reps[key], i)
			state[i] = needsEval
			toEval = append(toEval, i)
		}
	} else {
		for i := range inds {
			state[i] = needsEval
			toEval = append(toEval, i)
		}
	}
	eng.toEval = toEval

	// Parallel phase: only unresolved representatives, one Evaluator per
	// worker, disjoint writes per index. Shared bookkeeping is lock-free
	// apart from the sharded cache inserts: rejected is an atomic counter and
	// the first error is captured once-only by compare-and-swap. With a
	// single worker the batch is evaluated inline — no goroutine, no channel
	// — which is the saturated-server regime once the CPU governor degrades
	// concurrent requests to one worker each.
	//schedlint:allow hotescape -- firstErr is captured by the per-worker closures; one heap move per generation
	var firstErr atomic.Pointer[error]
	//schedlint:allow hotescape -- prefiltered is captured by the per-worker closures; one heap move per generation
	var prefiltered atomic.Int64
	if len(toEval) > 0 && eng.batchFactory != nil {
		eng.evalBatch(toEval, inds, rejectAbove, &rejected, &prefiltered, &firstErr)
	} else if len(toEval) > 0 {
		workers := eng.workers
		if workers > len(toEval) {
			workers = len(toEval)
		}
		if workers == 1 {
			//schedlint:allow hotescape -- evaluator is per-worker setup, called once per batch; its lazy construction never inlines
			ev := eng.evaluator(0)
			for _, i := range toEval {
				eng.evalOne(ev, i, inds, rejectAbove, &rejected, &prefiltered, &firstErr)
			}
		} else {
			//schedlint:allow hotescape -- wg is captured by the per-worker closures; one heap move per generation
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				//schedlint:allow hotalloc,hotescape -- one closure per worker per batch, amortized over the whole generation's evaluations
				go func(ev Evaluator) {
					defer wg.Done()
					for i := range next {
						eng.evalOne(ev, i, inds, rejectAbove, &rejected, &prefiltered, &firstErr)
					}
				}(eng.evaluator(w))
			}
			for _, i := range toEval {
				next <- i
			}
			close(next)
			wg.Wait()
		}
	}

	// Resolution phase: duplicates inherit their representative's outcome.
	errs := eng.errs
	for i := range inds {
		j := state[i]
		if j < 0 {
			continue
		}
		inds[i].Fitness = inds[j].Fitness
		errs[i] = errs[j]
		if errs[i] == nil || errors.Is(errs[i], ErrRejected) {
			res.CacheHits++
		}
		if errors.Is(errs[i], ErrRejected) {
			rejected.Add(1)
		}
	}

	res.Evaluations += n
	res.Rejections += int(rejected.Load())
	res.PrefilterRejections += int(prefiltered.Load())
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}
