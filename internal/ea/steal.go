// Work-stealing batch dispatch (DESIGN.md §17). The fixed contiguous-chunk
// dispatch of evalBatch assigns worker w exactly rows [w·n/W, (w+1)·n/W) —
// deterministic, but a worker whose rows happen to be cheap (prefilter
// rejections) idles while a loaded peer still crunches. The
// stealing dispatch keeps the same initial partition but makes it advisory:
// each worker drains its own range from the front in grain-sized spans, and
// when it runs dry it claims spans from the back of its peers' ranges.
//
// Determinism argument: a claimed span [lo, hi) is evaluated by one
// BatchEvaluator call over the engine's batch scratch sub-slices at exactly
// those indices, and BatchMapper rows are evaluated independently of their
// batch-mates (listsched's per-row contract), so every row's outcome lands
// at its fixed index with the same bytes regardless of which worker claimed
// it, in what order, or in what span size. Stealing changes timing, never
// bytes. The one pre-existing timing-dependent value, firstErr's
// once-only capture, is unchanged from the chunked dispatch.

package ea

import (
	"sync"
	"sync/atomic"
)

// stealRange is one worker's row range [lo, hi), packed into a single
// atomic word (lo in the high 32 bits) so a claim is one CAS: the owner
// advances lo, thieves retreat hi. Ranges only ever shrink, so the packed
// word never repeats and the CAS is ABA-free. Padding keeps neighboring
// ranges off each other's cache line.
type stealRange struct {
	cur atomic.Uint64
	_   [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

// reset initializes the range to [lo, hi). Called serially before the
// workers start.
func (r *stealRange) reset(lo, hi int) { r.cur.Store(packRange(lo, hi)) }

// take claims up to grain rows: the owner takes from the front
// (fromFront), thieves from the back, so the two ends never contend on the
// same rows until the range is nearly empty — where the CAS arbitrates.
//
//schedlint:hotpath
func (r *stealRange) take(grain int, fromFront bool) (lo, hi int, ok bool) {
	for {
		cur := r.cur.Load()
		clo, chi := int(cur>>32), int(cur&0xFFFFFFFF)
		if clo >= chi {
			return 0, 0, false
		}
		k := grain
		if k > chi-clo {
			k = chi - clo
		}
		if fromFront {
			if r.cur.CompareAndSwap(cur, packRange(clo+k, chi)) {
				return clo, clo + k, true
			}
		} else {
			if r.cur.CompareAndSwap(cur, packRange(clo, chi-k)) {
				return chi - k, chi, true
			}
		}
	}
}

// stealGrain sizes the span claimed per take: small enough that a straggler
// leaves stealable work behind, large enough that each claim amortizes a
// BatchEvaluator call over several rows.
func stealGrain(n, workers int) int {
	g := n / (workers * 4)
	if g < 1 {
		g = 1
	}
	return g
}

// evalBatchStealing is the work-stealing counterpart of evalBatch's chunked
// fan-out: the rows of toEval are partitioned into the same per-worker
// ranges the chunked dispatch would use, but published as stealable deques.
// Evaluators are constructed serially before any goroutine starts, exactly
// like the chunked path.
//
//schedlint:hotpath
func (eng *evalEngine) evalBatchStealing(workers int, toEval []int, inds []Individual,
	rejectAbove float64, rejected, prefiltered *atomic.Int64, firstErr *atomic.Pointer[error]) {
	n := len(toEval)
	if cap(eng.ranges) < workers {
		//schedlint:allow hotescape -- amortized scratch growth: reallocates only when the worker count grows
		eng.ranges = make([]stealRange, workers)
	}
	ranges := eng.ranges[:workers]
	for w := 0; w < workers; w++ {
		eng.batchEvaluator(w)
		ranges[w].reset(w*n/workers, (w+1)*n/workers)
	}
	grain := stealGrain(n, workers)
	//schedlint:allow hotescape -- wg is captured by the per-worker closures; one heap move per generation, amortized over the batch
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//schedlint:allow hotalloc,hotescape -- one closure per worker per generation, amortized over the claimed spans' evaluations
		go func(w int, ev BatchEvaluator) {
			defer wg.Done()
			eng.stealWorker(w, ranges, grain, ev, toEval, inds, rejectAbove, rejected, prefiltered, firstErr)
		}(w, eng.perWBatch[w])
	}
	wg.Wait()
}

// stealWorker drains worker w's own range from the front, then sweeps the
// peers' ranges (starting at its right neighbor) stealing from the back
// until everything is claimed. One sweep suffices for completeness: ranges
// never grow, and the inner loop only leaves a victim once it is empty, so
// when the sweep finishes every range is empty and every row was claimed by
// exactly one CAS winner.
//
//schedlint:hotpath
func (eng *evalEngine) stealWorker(w int, ranges []stealRange, grain int, ev BatchEvaluator,
	toEval []int, inds []Individual, rejectAbove float64,
	rejected, prefiltered *atomic.Int64, firstErr *atomic.Pointer[error]) {
	workers := len(ranges)
	for {
		lo, hi, ok := ranges[w].take(grain, true)
		if !ok {
			break
		}
		eng.runBatchChunk(ev, toEval[lo:hi], eng.items[lo:hi], eng.fit[lo:hi], eng.batchErrs[lo:hi],
			inds, rejectAbove, rejected, prefiltered, firstErr)
	}
	for off := 1; off < workers; off++ {
		v := w + off
		if v >= workers {
			v -= workers
		}
		for {
			lo, hi, ok := ranges[v].take(grain, false)
			if !ok {
				break
			}
			eng.runBatchChunk(ev, toEval[lo:hi], eng.items[lo:hi], eng.fit[lo:hi], eng.batchErrs[lo:hi],
				inds, rejectAbove, rejected, prefiltered, firstErr)
		}
	}
}
