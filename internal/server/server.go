// Package server implements emts-serve: a stdlib-only HTTP/JSON scheduling
// service in front of the simulator's by-name interface (package sim).
//
// # Request lifecycle
//
// POST /v1/schedule carries a PTG (the dag JSON codec), a cluster, a model
// name, an algorithm name, and a seed. The handler validates the body with
// typed errors (400), consults a canonical-hash response cache, and admits
// the request to a depth-limited queue in front of a bounded worker pool;
// queue overflow returns 429 with Retry-After. Each admitted request carries
// a context assembled from the client connection and the per-request
// deadline, and the evolutionary algorithm observes that context once per
// generation (ea.RunContext) — a dropped connection or an expired deadline
// stops an in-flight optimization within one generation, at zero cost on the
// hot fitness path.
//
// Because every scheduler in the repository is deterministic under a fixed
// seed, the response body is a pure function of the request (wall-clock
// observables live in logs and /metrics only), which is what makes the
// response cache exact: repeat submissions are byte-identical replays.
//
// # Operations
//
// /healthz reports process liveness, /readyz flips to 503 the moment
// shutdown begins (so load balancers drain ahead of the listener closing),
// and /metrics exposes hand-rolled Prometheus text series: request counts,
// queue depth, in-flight gauge, cache hit/miss counters, and per-algorithm
// latency histograms. Shutdown stops admission, drains the queue, and waits
// for the workers to go idle.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/evalpool"
	"emts/internal/intern"
	"emts/internal/jobs"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
)

// Config parametrizes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Workers bounds the number of concurrent schedule computations
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue in front of the workers
	// (default 64). A full queue answers 429 with Retry-After.
	QueueDepth int
	// RequestTimeout is the per-request compute deadline (default 30s;
	// negative disables). Requests may lower it via timeout_ms, never raise
	// it.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// CacheEntries bounds the canonical-hash response cache (default 256;
	// negative disables caching).
	CacheEntries int
	// MaxTasks rejects graphs larger than this at admission (default 20000;
	// negative disables the limit).
	MaxTasks int
	// MaxIslands rejects requests asking for more EA islands than this at
	// admission (default 16; negative disables the limit). Each island runs
	// its own subpopulation, so the cap bounds per-request memory the same
	// way MaxTasks bounds graph size.
	MaxIslands int
	// MaxRequestBytes bounds the request body (default 8 MiB).
	MaxRequestBytes int64
	// LogWriter receives JSON-line request logs (nil disables logging).
	LogWriter io.Writer
	// InstanceID, when non-empty, is stamped on every response as the
	// X-Emts-Instance header. The routing tier's tests and smoke harness use
	// it to assert which backend actually served a request.
	InstanceID string
	// GraphEntries bounds the interned-graph LRU (default 64; negative
	// disables graph interning).
	GraphEntries int
	// TableEntries bounds the interned-table LRU (default 128; negative
	// disables table interning).
	TableEntries int
	// DisableInterning turns off graph and table interning: every request
	// then decodes its graph and builds its table from scratch. Responses
	// are bit-identical either way (interned objects are immutable and
	// keyed by content) — the switch exists for A/B measurement and the
	// determinism meta-tests.
	DisableInterning bool
	// DisablePooling turns off the shared Mapper arena pool: every run then
	// allocates fresh evaluation state. Responses are bit-identical either
	// way (Mapper.Rebind resets all instance state); A/B switch like
	// DisableInterning.
	DisablePooling bool
	// DisableGovernor turns off the global CPU governor: every run then
	// fans out to GOMAXPROCS EA workers regardless of concurrent load.
	// Responses are bit-identical either way (ea results are independent of
	// worker count); A/B switch like DisableInterning.
	DisableGovernor bool
	// MaxJobs bounds the async job store behind /v1/jobs (default 256;
	// negative disables the job API entirely — the routes are then not
	// registered). A full store answers 429, like queue admission.
	MaxJobs int
	// JobTTL is how long a finished job's result and event log stay
	// available for polling and SSE replay (default 10m).
	JobTTL time.Duration
	// SSEKeepAlive is the comment-frame period on idle /v1/jobs/{id}/events
	// streams, keeping proxies from severing them (default 15s).
	SSEKeepAlive time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 20000
	}
	if c.MaxIslands == 0 {
		c.MaxIslands = 16
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.GraphEntries == 0 {
		c.GraphEntries = intern.DefaultEntries
	}
	if c.TableEntries == 0 {
		c.TableEntries = 2 * intern.DefaultEntries
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 256
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.SSEKeepAlive <= 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	return c
}

// runFunc is the compute seam: production servers schedule through
// sim.RunTableOpts; lifecycle tests substitute controllable stubs. The table
// is resolved by the server (through the intern when enabled) before the seam
// is crossed.
type runFunc func(ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table, algorithm string, seed int64, opt sim.Options) (*sim.Report, error)

// Server is the scheduling service. Create with New, expose via Handler, and
// stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	log     *logger
	run     runFunc

	queue   chan *job
	workers sync.WaitGroup

	// admission guards queue against send-after-close: enqueuers hold the
	// read lock, Shutdown takes the write lock to flip draining and close the
	// queue exactly once.
	admission sync.RWMutex
	draining  bool

	cacheMu sync.Mutex
	cache   *responseCache

	// Cross-request performance layer (DESIGN.md §12): content-addressed
	// graph/table interns, the shared Mapper arena pool, and the CPU
	// governor. Each is nil when its Config switch disables it; responses
	// are bit-identical in every combination.
	graphs *intern.Graphs
	tables *intern.Tables
	pool   *evalpool.Pool
	gov    *governor

	// jobStore backs the /v1/jobs API; nil when Config.MaxJobs < 0.
	jobStore *jobs.Store

	reqID atomic.Uint64
	ready atomic.Bool
}

// job is one admitted schedule computation.
type job struct {
	ctx    context.Context
	parsed *parsedRequest
	// result is buffered (capacity 1): the worker never blocks on a handler
	// that gave up waiting.
	result chan jobResult
	// onGen, when non-nil, observes per-generation EA statistics (the async
	// job path streams them as SSE events). It is threaded through
	// sim.Options and called once per generation — never on the hot fitness
	// path.
	onGen func(ea.GenStats)
	// anytime marks an async job: a mid-run cancellation then salvages the
	// EA's incumbent as a 200 "anytime" result instead of a 499/504. The
	// synchronous path leaves it false and keeps its status-code contract.
	anytime bool
	// started, when non-nil, is called by the worker the moment the job
	// leaves the queue (the jobs store's queued → running transition).
	started func()
}

// jobResult is the worker's verdict: an HTTP status, a response body, and the
// classified outcome label for metrics.
type jobResult struct {
	code    int
	body    []byte
	outcome string
	// interned is the X-Emts-Interned header value ("graph", "table",
	// "graph,table", or "") describing which interned objects served this
	// computation.
	interned string
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		cache:   newResponseCache(cfg.CacheEntries),
		queue:   make(chan *job, cfg.QueueDepth),
		run:     sim.RunTableOpts,
	}
	if cfg.LogWriter != nil {
		s.log = &logger{w: cfg.LogWriter}
	}
	if !cfg.DisableInterning {
		if cfg.GraphEntries > 0 {
			s.graphs = intern.NewGraphs(cfg.GraphEntries)
		}
		if cfg.TableEntries > 0 {
			s.tables = intern.NewTables(cfg.TableEntries)
		}
	}
	if !cfg.DisablePooling {
		s.pool = evalpool.New(0, 0)
	}
	if !cfg.DisableGovernor {
		s.gov = newGovernor(runtime.GOMAXPROCS(0))
	}
	s.metrics.queueDepth = func() int { return len(s.queue) }
	s.metrics.queueCapacity = cfg.QueueDepth
	s.metrics.cacheEntries = func() int {
		s.cacheMu.Lock()
		defer s.cacheMu.Unlock()
		return s.cache.len()
	}
	if s.graphs != nil {
		s.metrics.graphStats = s.graphs.Stats
	}
	if s.tables != nil {
		s.metrics.tableStats = s.tables.Stats
	}
	if s.pool != nil {
		s.metrics.poolStats = s.pool.Stats
	}
	if s.gov != nil {
		s.metrics.governorAvailable = s.gov.Available
		s.metrics.governorCapacity = s.gov.capacity
	}

	if cfg.MaxJobs > 0 {
		s.jobStore = jobs.NewStore(jobs.Config{MaxJobs: cfg.MaxJobs, TTL: cfg.JobTTL})
		s.metrics.jobStates = s.jobStore.Counts
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.jobStore != nil {
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// Handler returns the HTTP handler tree, wrapped with request-ID assignment,
// status accounting, and structured logging.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "r" + strconv.FormatUint(s.reqID.Add(1), 10)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		rec.Header().Set("X-Request-Id", id)
		if s.cfg.InstanceID != "" {
			rec.Header().Set("X-Emts-Instance", s.cfg.InstanceID)
		}
		start := time.Now()
		s.mux.ServeHTTP(rec, r.WithContext(withRequestID(r.Context(), id)))
		s.metrics.countRequest(rec.code)
		s.log.log(accessLog{
			Req:    id,
			Method: r.Method,
			Path:   r.URL.Path,
			Code:   rec.code,
			DurMS:  float64(time.Since(start)) / float64(time.Millisecond),
			Cache:  rec.Header().Get("X-Emts-Cache"),
		})
	})
}

// Shutdown drains the service: readiness flips to 503 immediately, admission
// of new work stops (503), queued and in-flight jobs run to completion, and
// the worker pool exits. It returns ctx's error if draining outlasts it; the
// pool keeps draining in the background in that case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.admission.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admission.Unlock()
	if s.jobStore != nil {
		// Stop the sweeper and cancel every non-terminal job: queued and
		// running jobs then finalize as cancelled (or cancelled-with-result)
		// within one EA generation, so the drain below is prompt.
		s.jobStore.Close()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// worker executes admitted jobs until the queue closes and drains.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.inflight.Add(1)
		if j.started != nil {
			j.started()
		}
		j.result <- s.compute(j)
		s.metrics.inflight.Add(-1)
	}
}

// resolveTable builds (or fetches from the intern) the execution-time table
// for the request's graph, model, and cluster. Interned hits skip the V×P
// model evaluation entirely. Errors come from sim.ModelByName
// (sim.ErrUnknownModel → 400) or model.NewTable, identical with or without
// the intern.
func (s *Server) resolveTable(p *parsedRequest) (tab *model.Table, interned bool, err error) {
	build := func() (*model.Table, error) {
		m, err := sim.ModelByName(p.model)
		if err != nil {
			return nil, err
		}
		return model.NewTable(p.graph, m, p.cluster)
	}
	if s.tables == nil {
		tab, err = build()
		return tab, false, err
	}
	key := intern.TableKey{GraphKey: p.graphKey, Model: p.model, Cluster: p.cluster}
	return s.tables.Get(key, build)
}

// errorResult classifies a computation failure into an HTTP result.
func (s *Server) errorResult(err error, algorithm string) jobResult {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return s.cancelResult(err, algorithm)
	case errors.Is(err, sim.ErrUnknownAlgorithm), errors.Is(err, sim.ErrUnknownModel), errors.Is(err, sim.ErrBadCluster):
		s.metrics.countOutcome(algorithm, "client_error")
		return jobResult{code: http.StatusBadRequest, body: errorBody(err.Error(), ""), outcome: "client_error"}
	default:
		s.metrics.countOutcome(algorithm, "error")
		return jobResult{code: http.StatusInternalServerError, body: errorBody(err.Error(), ""), outcome: "error"}
	}
}

// compute runs one schedule computation and classifies the outcome.
func (s *Server) compute(j *job) jobResult {
	p := j.parsed
	// The client may have vanished (or the deadline passed) while the job sat
	// in the queue; skip the work entirely in that case.
	if err := j.ctx.Err(); err != nil {
		return s.cancelResult(err, p.algorithm)
	}
	tab, tableInterned, err := s.resolveTable(p)
	if err != nil {
		return s.errorResult(err, p.algorithm)
	}
	interned := ""
	switch {
	case p.graphInterned && tableInterned:
		interned = "graph,table"
	case p.graphInterned:
		interned = "graph"
	case tableInterned:
		interned = "table"
	}

	// The governor sizes this run's EA parallelism to the tokens currently
	// free; responses are identical for any grant (worker-count-independent
	// engine), so only throughput depends on the grant.
	opt := sim.Options{
		MapperPool:        s.pool,
		OnGeneration:      j.onGen,
		Islands:           p.req.Islands,
		MigrationInterval: p.req.MigrationInterval,
	}
	if s.gov != nil {
		tokens, release := s.gov.acquire()
		defer release()
		opt.Workers = tokens
	}

	start := time.Now()
	rep, err := s.run(j.ctx, p.graph, p.cluster, tab, p.algorithm, p.req.Seed, opt)
	elapsed := time.Since(start)
	if err != nil {
		// Anytime salvage (async jobs only): a mid-run cancellation that
		// still yielded a materialized incumbent (see sim.RunTableOpts) is a
		// first-class 200 answer. It is deliberately NOT inserted into the
		// response cache — the partial result is not the canonical response
		// for this digest. The synchronous path keeps its 504/499 contract.
		if j.anytime && rep != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			body, merr := marshalResponse(rep)
			if merr == nil {
				s.metrics.countOutcome(p.algorithm, "anytime")
				return jobResult{code: http.StatusOK, body: body, outcome: "anytime", interned: interned}
			}
		}
		return s.errorResult(err, p.algorithm)
	}
	body, merr := marshalResponse(rep)
	if merr != nil {
		s.metrics.countOutcome(p.algorithm, "error")
		return jobResult{code: http.StatusInternalServerError, body: errorBody("encoding response: "+merr.Error(), ""), outcome: "error"}
	}
	s.metrics.countOutcome(p.algorithm, "ok")
	s.metrics.observeLatency(p.algorithm, elapsed.Seconds())
	s.cacheMu.Lock()
	s.cache.put(p.key, body)
	s.cacheMu.Unlock()
	return jobResult{code: http.StatusOK, body: body, outcome: "ok", interned: interned}
}

// cancelResult classifies a context failure: deadline expiry is reported as
// 504 (the handler may still be waiting on the result), client cancellation
// as the conventional 499 (undeliverable — the connection is gone — but it
// keeps the accounting honest).
func (s *Server) cancelResult(err error, algorithm string) jobResult {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.countOutcome(algorithm, "deadline")
		return jobResult{code: http.StatusGatewayTimeout, body: errorBody("deadline exceeded", ""), outcome: "deadline"}
	}
	s.metrics.countOutcome(algorithm, "cancelled")
	return jobResult{code: 499, body: errorBody("client cancelled", ""), outcome: "cancelled"}
}

// handleSchedule is the POST /v1/schedule lifecycle described in the package
// comment.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	body, err := readRequestBody(w, r, s.cfg.MaxRequestBytes)
	if err != nil {
		return // readRequestBody already answered
	}
	parsed, err := parseScheduleRequest(body, s.maxTasks(), s.maxIslands(), s.graphs)
	if err != nil {
		writeParseError(w, err)
		return
	}

	// Cache fast path: a hit bypasses admission entirely.
	s.cacheMu.Lock()
	cached, hit := s.cache.get(parsed.key)
	s.cacheMu.Unlock()
	if hit {
		s.metrics.cacheHits.Add(1)
		w.Header().Set("X-Emts-Cache", "hit")
		if parsed.graphInterned {
			// Only the graph component is known on the fast path — no table
			// was consulted.
			w.Header().Set("X-Emts-Interned", "graph")
		}
		writeBody(w, http.StatusOK, cached)
		return
	}
	s.metrics.cacheMisses.Add(1)
	w.Header().Set("X-Emts-Cache", "miss")

	ctx := r.Context()
	if timeout := s.requestTimeout(parsed); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	j := &job{ctx: ctx, parsed: parsed, result: make(chan jobResult, 1)}

	s.admission.RLock()
	if s.draining {
		s.admission.RUnlock()
		writeJSONError(w, http.StatusServiceUnavailable, "server is shutting down", "")
		return
	}
	admitted := false
	//schedlint:allow lockscope -- send-vs-close protocol: the send is non-blocking (default case) and MUST happen under the read lock, so Shutdown's write lock can guarantee no send is in flight when it closes the queue
	select {
	case s.queue <- j:
		admitted = true
	default:
	}
	s.admission.RUnlock()
	if !admitted {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSONError(w, http.StatusTooManyRequests, "admission queue full", "")
		return
	}

	// Either the worker answers, or the context ends first — on deadline the
	// client gets a prompt 504 instead of waiting for the EA to notice; on
	// client cancellation the 499 write goes nowhere but keeps logs and
	// metrics honest. The worker observes the same context either way and
	// aborts the EA within one generation, freeing the slot.
	select {
	case res := <-j.result:
		if res.interned != "" {
			w.Header().Set("X-Emts-Interned", res.interned)
		}
		writeBody(w, res.code, res.body)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			writeJSONError(w, http.StatusGatewayTimeout, "deadline exceeded", "")
		} else {
			writeJSONError(w, 499, "client cancelled", "")
		}
	}
}

// maxTasks is the admission graph-size limit (0 = unlimited).
func (s *Server) maxTasks() int {
	if s.cfg.MaxTasks < 0 {
		return 0
	}
	return s.cfg.MaxTasks
}

// maxIslands is the admission island-count limit (0 = unlimited).
func (s *Server) maxIslands() int {
	if s.cfg.MaxIslands < 0 {
		return 0
	}
	return s.cfg.MaxIslands
}

// requestTimeout resolves the compute deadline for a parsed request: the
// server cap, tightened (never raised) by the request's timeout_ms. 0 means
// no deadline.
func (s *Server) requestTimeout(parsed *parsedRequest) time.Duration {
	timeout := s.cfg.RequestTimeout
	if timeout < 0 {
		timeout = 0
	}
	if reqTimeout := time.Duration(parsed.req.TimeoutMS) * time.Millisecond; reqTimeout > 0 && (timeout == 0 || reqTimeout < timeout) {
		timeout = reqTimeout
	}
	return timeout
}

// handleAlgorithms lists the accepted algorithm and model names.
func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Algorithms []string `json:"algorithms"`
		Models     []string `json:"models"`
	}{sim.AlgorithmNames(), sim.ModelNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeText(w, http.StatusOK, "ok\n")
}

// handleReadyz keeps the PR 4 status-code contract (200 ready, 503
// draining) and adds a small JSON detail body consumed by the routing
// tier's health checker: the draining flag plus the queue depth and
// in-flight gauge, so an operator (or a future load-aware router) can see
// saturation without scraping the full metrics page.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	code := http.StatusOK
	draining := !s.ready.Load()
	if draining {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"draining\":%v,\"queue_depth\":%d,\"inflight\":%d}\n",
		draining, len(s.queue), s.metrics.inflight.Load())
}

func writeText(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// requestIDKey carries the request ID through handler contexts.
type requestIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID extracts the request ID assigned by Handler, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the recorder; a non-flushing underlying writer makes it a no-op.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
