package main

import (
	"fmt"
	"sort"
	"time"
)

// maxErrors bounds the failure messages a sample keeps for the report.
const maxErrors = 5

// sample is what one measured run observed.
type sample struct {
	attempted, failed, done int
	errs                    []string
	// lat holds the latency in ms of each successful operation that counts
	// toward the latency figures.
	lat   []float64
	latAt []time.Time // completion time of each lat entry
	// doneAt holds every successful operation's completion time.
	doneAt  []time.Time
	start   time.Time
	elapsed time.Duration
	// ratioAt holds makespan/MCPA by operation index over the workload's
	// fixed prefix; ratios is the ordered list the figure is taken over.
	ratioAt map[int]float64
	ratios  []float64
	// Offline EA counters (core.Result), summed over operations.
	evals, cacheHits, rejections, prefilter int
	runSeconds                              float64
	opClass                                 map[int64]string
	// Serving: client-side view of the responses.
	responses, hits int
	respBytes       int
	missLatMS       []float64
	// Jobs: per-phase latencies in ms.
	phase map[string][]float64
	// layer holds per-layer figures measured during the run (traced runs).
	layer map[string]float64
}

func newSample() *sample {
	return &sample{
		ratioAt: make(map[int]float64),
		opClass: make(map[int64]string),
		phase:   make(map[string][]float64),
		layer:   make(map[string]float64),
	}
}

// complete records a successful operation.
func (s *sample) complete() {
	s.done++
	s.doneAt = append(s.doneAt, time.Now())
}

// ok records a successful operation whose latency counts.
func (s *sample) ok(lat time.Duration) {
	s.complete()
	s.lat = append(s.lat, float64(lat)/float64(time.Millisecond))
	s.latAt = append(s.latAt, s.doneAt[len(s.doneAt)-1])
}

// windows is the number of equal time windows a run is cut into for the
// throughput and median-latency figures.
const windows = 10

// window returns the window index of t, or -1 outside the run.
func (s *sample) window(t time.Time) int {
	i := int(float64(windows) * float64(t.Sub(s.start)) / float64(s.elapsed))
	if i < 0 || i >= windows {
		return -1
	}
	return i
}

// windowRate is the median over the run's windows of the operations
// completed per second: a burst of contention from other processes on the
// host moves one or two windows, not the median.
func (s *sample) windowRate() float64 {
	counts := make([]float64, windows)
	for _, t := range s.doneAt {
		if i := s.window(t); i >= 0 {
			counts[i]++
		}
	}
	w := s.elapsed.Seconds() / windows
	for i := range counts {
		counts[i] /= w
	}
	return median(counts)
}

// windowMedianLatency is the median over windows of each window's median
// latency in ms.
func (s *sample) windowMedianLatency() float64 {
	per := make([][]float64, windows)
	for k, t := range s.latAt {
		if i := s.window(t); i >= 0 {
			per[i] = append(per[i], s.lat[k])
		}
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}

// fail records a failed operation (transport error, non-2xx answer or a
// failed correctness check).
func (s *sample) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < maxErrors {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// served records one response's cache outcome and size.
func (s *sample) served(hit bool, bytes int, lat time.Duration) {
	s.responses++
	s.respBytes += bytes
	if hit {
		s.hits++
	} else {
		s.missLatMS = append(s.missLatMS, float64(lat)/float64(time.Millisecond))
	}
}

// orderedRatios returns ratioAt's values by operation index, so the
// geometric mean sums in a fixed order and repeats to the last bit.
func (s *sample) orderedRatios() []float64 {
	idx := make([]int, 0, len(s.ratioAt))
	for n := range s.ratioAt {
		idx = append(idx, n)
	}
	sort.Ints(idx)
	out := make([]float64, len(idx))
	for i, n := range idx {
		out[i] = s.ratioAt[n]
	}
	return out
}

// mergeSamples combines the per-client samples of one run.
func mergeSamples(parts []*sample) *sample {
	s := newSample()
	for _, p := range parts {
		s.attempted += p.attempted
		s.failed += p.failed
		s.done += p.done
		for _, e := range p.errs {
			if len(s.errs) < maxErrors {
				s.errs = append(s.errs, e)
			}
		}
		s.lat = append(s.lat, p.lat...)
		s.latAt = append(s.latAt, p.latAt...)
		s.doneAt = append(s.doneAt, p.doneAt...)
		for n, r := range p.ratioAt {
			s.ratioAt[n] = r
		}
		s.responses += p.responses
		s.hits += p.hits
		s.respBytes += p.respBytes
		s.missLatMS = append(s.missLatMS, p.missLatMS...)
		for k, v := range p.phase {
			s.phase[k] = append(s.phase[k], v...)
		}
	}
	return s
}
