package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/route"
	"emts/internal/schedule"
	"emts/internal/sim"
)

// servingSpecs are the serving workloads' graphs: loadgen's families at
// 25 to 200 tasks (strassen 25, fft8 39, fft16 95), with three random
// structures per size so the total work varies little between workload
// seeds.
var servingSpecs = []string{
	"fft8", "fft16", "strassen",
	"random50", "random100", "random150", "random200",
	"random50", "random100", "random150", "random200",
	"random50", "random100", "random150", "random200",
}

// servingClients is the closed-loop client count of the serve-* workloads:
// one per CPU of the reference host (nproc = 2).
const servingClients = 2

// scheduleAnswer is the part of a /v1/schedule response the checks read.
type scheduleAnswer struct {
	Makespan    float64            `json:"makespan"`
	Generations int                `json:"generations"`
	Schedule    *schedule.Schedule `json:"schedule"`
}

// checkAnswer decodes body and checks its schedule against inst: it must
// pass Schedule.Validate, end at the reported makespan, and be no worse
// than MCPA (an EMTS seed under plus-selection).
func checkAnswer(inst *instance, body []byte) (*scheduleAnswer, error) {
	var a scheduleAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if a.Schedule == nil {
		return nil, fmt.Errorf("response has no schedule")
	}
	if err := a.Schedule.Validate(inst.g, inst.tab); err != nil {
		return nil, fmt.Errorf("invalid schedule: %w", err)
	}
	if a.Makespan != a.Schedule.Makespan() {
		return nil, fmt.Errorf("makespan %v but schedule ends at %v", a.Makespan, a.Schedule.Makespan())
	}
	if a.Makespan > inst.mcpa {
		return nil, fmt.Errorf("makespan %v exceeds MCPA %v", a.Makespan, inst.mcpa)
	}
	return &a, nil
}

// keyed is a request with the response body that must answer it.
type keyed struct {
	inst *instance
	body []byte
	want []byte
}

// serving is the serve-compute and serve-cached workloads: servingClients
// closed-loop clients posting /v1/schedule to the router.
type serving struct {
	cached bool
	seed   int64
	st     *stack
	insts  []*instance
	// warm holds the set-up requests; their answers sit in the backends'
	// response caches, which the proxy sample of the traced run relies on.
	warm []keyed
	// serve-cached only: the hot set and the MCPA answer per instance.
	hot     []keyed
	mcpaRef map[*instance][]byte
	// fillRatios are makespan/MCPA of the EMTS answers set-up put in the
	// response cache: serve-cached's makespan_vs_mcpa.
	fillRatios []float64
	// epoch counts measured runs; fresh seeds depend on it, so a second run
	// in one process never repeats a key the first one cached.
	epoch int
}

// hotSetSize is the number of (graph, seed) pairs serve-cached repeats.
const hotSetSize = 16

// ratioOps is the operation prefix serve-compute's makespan_vs_mcpa and
// bit-identity sample are taken over: four passes of the instances.
func (w *serving) ratioOps() int { return 4 * len(w.insts) }

// setupServing starts the stack and sends the warm-up pass: one EMTS5
// request per instance, which fills the graph and table interns and the
// Mapper pool. serve-cached also fills the response cache with its hot set
// and the MCPA answer of every instance.
func setupServing(cached bool, seed int64, tr *tracer) (bench, error) {
	insts, err := httpInstances(tr, seed, servingSpecs)
	if err != nil {
		return nil, err
	}
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	w := &serving{cached: cached, seed: seed, st: st, insts: insts}
	fill := func(inst *instance, algorithm string, seed int64) (keyed, *scheduleAnswer, error) {
		body := scheduleBody(inst, algorithm, seed, 0, 0)
		code, cache, resp, err := st.post(st.routerURL, "/v1/schedule", body)
		if err != nil {
			return keyed{}, nil, fmt.Errorf("warm-up: %w", err)
		}
		if code != 200 || cache != "miss" {
			return keyed{}, nil, fmt.Errorf("warm-up: status %d, cache %q: %s", code, cache, resp)
		}
		a, err := checkAnswer(inst, resp)
		if err != nil {
			return keyed{}, nil, fmt.Errorf("warm-up %s: %w", inst.class, err)
		}
		return keyed{inst: inst, body: body, want: resp}, a, nil
	}
	for i, inst := range insts {
		k, a, err := fill(inst, "emts5", mixSeed(seed, 3_000_000+i))
		if err != nil {
			st.close()
			return nil, err
		}
		w.warm = append(w.warm, k)
		w.fillRatios = append(w.fillRatios, a.Makespan/inst.mcpa)
	}
	if cached {
		w.mcpaRef = make(map[*instance][]byte)
		for i := 0; i < hotSetSize; i++ {
			inst := insts[i%len(insts)]
			k, a, err := fill(inst, "emts5", mixSeed(seed, 4_000_000+i))
			if err != nil {
				st.close()
				return nil, err
			}
			w.hot = append(w.hot, k)
			w.fillRatios = append(w.fillRatios, a.Makespan/inst.mcpa)
		}
		for i, inst := range insts {
			k, a, err := fill(inst, "mcpa", mixSeed(seed, 5_000_000+i))
			if err != nil {
				st.close()
				return nil, err
			}
			if a.Makespan != inst.mcpa {
				st.close()
				return nil, fmt.Errorf("warm-up %s: served MCPA makespan %v, in-process %v", inst.class, a.Makespan, inst.mcpa)
			}
			w.mcpaRef[inst] = k.want
		}
	}
	return w, nil
}

func (w *serving) close() error { return w.st.close() }

// bitSample is a serve-compute response kept for the bit-identity check.
type bitSample struct {
	inst *instance
	seed int64
	body []byte
}

// computeOp is serve-compute operation n: EMTS5 on instance n mod len with a
// fresh seed, so the response cache never hits.
func (w *serving) computeOp(n int, s *sample, keep func(bitSample)) {
	inst := w.insts[n%len(w.insts)]
	seed := mixSeed(w.seed, freshIndex(2_000_000, w.epoch, n))
	body := scheduleBody(inst, "emts5", seed, 0, 0)
	t0 := time.Now()
	code, cache, resp, err := w.st.post(w.st.routerURL, "/v1/schedule", body)
	lat := time.Since(t0)
	s.attempted++
	switch {
	case err != nil:
		s.fail("op %d: %v", n, err)
		return
	case code != 200:
		s.fail("op %d: status %d: %s", n, code, resp)
		return
	case cache != "miss":
		s.fail("op %d: fresh seed answered from the cache (%q)", n, cache)
		return
	}
	a, err := checkAnswer(inst, resp)
	if err != nil {
		s.fail("op %d (%s): %v", n, inst.class, err)
		return
	}
	s.ok(lat)
	s.served(false, len(resp), lat)
	if n < w.ratioOps() {
		s.ratioAt[n] = a.Makespan / inst.mcpa
		if n%5 == 0 {
			keep(bitSample{inst: inst, seed: seed, body: resp})
		}
	}
}

// cachedOp is serve-cached operation n: three in four repeat the hot set and
// must hit the cache byte-identically; the fourth is MCPA with a fresh seed,
// which misses and must equal the instance's MCPA answer byte for byte (the
// MCPA answer does not depend on the seed).
func (w *serving) cachedOp(n int, s *sample) {
	var req keyed
	wantCache := "hit"
	if n%4 == 3 {
		inst := w.insts[(n/4)%len(w.insts)]
		req = keyed{inst: inst, body: scheduleBody(inst, "mcpa", mixSeed(w.seed, freshIndex(6_000_000, w.epoch, n)), 0, 0), want: w.mcpaRef[inst]}
		wantCache = "miss"
	} else {
		req = w.hot[(n-(n+1)/4)%len(w.hot)]
	}
	t0 := time.Now()
	code, cache, resp, err := w.st.post(w.st.routerURL, "/v1/schedule", req.body)
	lat := time.Since(t0)
	s.attempted++
	switch {
	case err != nil:
		s.fail("op %d: %v", n, err)
	case code != 200:
		s.fail("op %d: status %d: %s", n, code, resp)
	case cache != wantCache:
		s.fail("op %d: cache %q, want %q", n, cache, wantCache)
	case !bytes.Equal(resp, req.want):
		s.fail("op %d (%s): response differs from the answer that filled its key", n, req.inst.class)
	default:
		s.ok(lat)
		s.served(cache == "hit", len(resp), lat)
	}
}

func (w *serving) run(d time.Duration, tr *tracer) (*sample, error) {
	var probe *tierProbe
	if tr != nil {
		var err error
		if probe, err = startProbe(w.st); err != nil {
			return nil, err
		}
	}
	var (
		mu   sync.Mutex
		bits []bitSample
	)
	keep := func(b bitSample) {
		mu.Lock()
		bits = append(bits, b)
		mu.Unlock()
	}
	minOps := 0
	if !w.cached {
		minOps = w.ratioOps()
	}
	defer func() { w.epoch++ }()
	s := closedLoop(d, servingClients, minOps, func(n int, s *sample) {
		root := tr.begin("client.request", -1, int64(n))
		if w.cached {
			w.cachedOp(n, s)
		} else {
			w.computeOp(n, s, keep)
		}
		tr.end(root)
	})
	if probe != nil {
		if err := probe.finish(s); err != nil {
			return nil, err
		}
	}
	if w.cached {
		s.ratios = w.fillRatios
	} else {
		s.ratios = s.orderedRatios()
		if len(s.ratios) != w.ratioOps() {
			s.fail("makespan_vs_mcpa: %d of the first %d operations succeeded", len(s.ratios), w.ratioOps())
		}
		// Bit-identity: the sampled responses must equal an in-process
		// sim.RunTableOpts of the same request, encoded as the backend does.
		for _, b := range bits {
			rep, err := sim.RunTableOpts(context.Background(), b.inst.g, b.inst.cluster, b.inst.tab, "emts5", b.seed, sim.Options{})
			if err != nil {
				s.fail("bit-identity %s seed %d: %v", b.inst.class, b.seed, err)
				continue
			}
			want, err := marshalScheduleResponse(rep)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(want, b.body) {
				s.fail("bit-identity %s seed %d: served response differs from the in-process run", b.inst.class, b.seed)
			}
		}
	}
	return s, nil
}

// replayRequests lists the workload's distinct requests in the order the
// backends first see them.
func (w *serving) replayRequests() []replayReq {
	var out []replayReq
	if w.cached {
		for i, k := range w.hot {
			out = append(out, replayReq{inst: k.inst, body: k.body, algorithm: "emts5", seed: mixSeed(w.seed, 4_000_000+i)})
		}
		for i, inst := range w.insts {
			out = append(out, replayReq{inst: inst, body: scheduleBody(inst, "mcpa", mixSeed(w.seed, freshIndex(6_000_000, 0, i)), 0, 0), algorithm: "mcpa"})
		}
		return out
	}
	// Two passes: the first misses the replay's interns, the second hits.
	for n := 0; n < 2*len(w.insts); n++ {
		inst := w.insts[n%len(w.insts)]
		seed := mixSeed(w.seed, freshIndex(2_000_000, 0, n))
		out = append(out, replayReq{inst: inst, body: scheduleBody(inst, "emts5", seed, 0, 0), algorithm: "emts5", seed: seed})
	}
	return out
}

// proxySample sends every warm-up request through the router and directly
// to the backend the router's table picks for it, interleaved, and returns
// the difference of the two medians in milliseconds: the router's own cost
// on a cache hit. A first pass refills the response cache (serve-compute's
// fresh seeds evict the warm-up answers); every answer must equal the
// warm-up one.
func (w *serving) proxySample(rounds int) (float64, error) {
	urls := make(map[string]string)
	for i, b := range w.st.backendURLs {
		urls[fmt.Sprintf("backend-%d", i)] = b
	}
	for _, k := range w.warm {
		code, _, resp, err := w.st.post(w.st.routerURL, "/v1/schedule", k.body)
		if err != nil {
			return 0, fmt.Errorf("proxy sample: %w", err)
		}
		if code != 200 || !bytes.Equal(resp, k.want) {
			return 0, fmt.Errorf("proxy sample %s: status %d or a changed body", k.inst.class, code)
		}
	}
	var viaRouter, direct []float64
	for r := 0; r < rounds; r++ {
		for _, k := range w.warm {
			key, err := route.RequestKey(k.body)
			if err != nil {
				return 0, err
			}
			owner, ok := w.st.router.Table().Pick(key[:], "")
			if !ok {
				return 0, fmt.Errorf("proxy sample: no backend for %s", k.inst.class)
			}
			for _, base := range []string{w.st.routerURL, urls[owner.ID]} {
				t0 := time.Now()
				code, cache, resp, err := w.st.post(base, "/v1/schedule", k.body)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					return 0, fmt.Errorf("proxy sample: %w", err)
				}
				if code != 200 || cache != "hit" || !bytes.Equal(resp, k.want) {
					return 0, fmt.Errorf("proxy sample %s via %s: status %d, cache %q, or a changed body", k.inst.class, base, code, cache)
				}
				if base == w.st.routerURL {
					viaRouter = append(viaRouter, ms)
				} else {
					direct = append(direct, ms)
				}
			}
		}
	}
	return median(viaRouter) - median(direct), nil
}

// freshIndex is the input index of operation n of measured run epoch in a
// stream starting at base.
func freshIndex(base, epoch, n int) int { return base + epoch*100_000_000 + n }

// closedLoop runs clients closed-loop clients until d has passed and at
// least minOps operations have been claimed. Operation indices come from one
// shared counter, so the sequence of operations is fixed whatever the
// interleaving.
func closedLoop(d time.Duration, clients, minOps int, op func(n int, s *sample)) *sample {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := newSample()
			for {
				n := int(next.Add(1) - 1)
				if n >= minOps && !time.Now().Before(deadline) {
					break
				}
				op(n, s)
			}
			parts[c] = s
		}(c)
	}
	wg.Wait()
	s := mergeSamples(parts)
	s.start, s.elapsed = start, time.Since(start)
	return s
}
