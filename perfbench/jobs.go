package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Job parameters of the jobs-islands workload.
const (
	jobIslands   = 2
	jobMigration = 2
	// jobCancelGen is the generation at which every second job is cancelled.
	jobCancelGen = 2
)

// jobsBench is the jobs-islands workload: one closed-loop client submits
// island-model EMTS5 jobs through the router, follows each job's SSE stream
// to the end, fetches the result and purges the job. Every second job is
// cancelled once its stream reaches generation jobCancelGen.
type jobsBench struct {
	seed  int64
	st    *stack
	insts []*instance
	epoch int // measured runs so far; see serving.epoch
}

func setupJobs(seed int64, tr *tracer) (bench, error) {
	insts, err := httpInstances(tr, seed, servingSpecs)
	if err != nil {
		return nil, err
	}
	st, err := startStack()
	if err != nil {
		return nil, err
	}
	// Warm-up: one synchronous island run per instance fills the interns
	// and the Mapper pool.
	for i, inst := range insts {
		body := scheduleBody(inst, "emts5", mixSeed(seed, 8_000_000+i), jobIslands, jobMigration)
		code, _, resp, err := st.post(st.routerURL, "/v1/schedule", body)
		if err == nil && code != 200 {
			err = fmt.Errorf("status %d: %s", code, resp)
		}
		if err == nil {
			_, err = checkAnswer(inst, resp)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", inst.class, err)
		}
	}
	return &jobsBench{seed: seed, st: st, insts: insts}, nil
}

func (j *jobsBench) close() error { return j.st.close() }

// ratioOps is the operation prefix makespan_vs_mcpa is taken over (its
// uncancelled half).
func (j *jobsBench) ratioOps() int { return 4 * len(j.insts) }

func (j *jobsBench) run(d time.Duration, tr *tracer) (*sample, error) {
	var probe *tierProbe
	if tr != nil {
		var err error
		if probe, err = startProbe(j.st); err != nil {
			return nil, err
		}
	}
	defer func() { j.epoch++ }()
	s := closedLoop(d, 1, j.ratioOps(), func(n int, s *sample) { j.op(n, s, tr) })
	if probe != nil {
		if err := probe.finish(s); err != nil {
			return nil, err
		}
	}
	s.ratios = s.orderedRatios()
	if want := j.ratioOps() / 2; len(s.ratios) != want {
		s.fail("makespan_vs_mcpa: %d of the first %d uncancelled jobs succeeded", len(s.ratios), want)
	}
	return s, nil
}

// jobEnvelope is the part of a job envelope the client reads.
type jobEnvelope struct {
	ID string `json:"id"`
}

// streamResult is what following one job's event stream observed.
type streamResult struct {
	gens       int
	lastBest   float64
	done       doneEvent
	firstEvent time.Duration // submit → first generation event
	gaps       []float64     // ms between generation events
	cancelMS   float64       // DELETE round trip; 0 when not cancelled
}

// op is job n: submit, follow, fetch, check, purge.
func (j *jobsBench) op(n int, s *sample, tr *tracer) {
	op := int64(n)
	root := tr.begin("job", -1, op)
	defer tr.end(root)
	inst := j.insts[n%len(j.insts)]
	cancel := n%2 == 1
	body := scheduleBody(inst, "emts5", mixSeed(j.seed, freshIndex(7_000_000, j.epoch, n)), jobIslands, jobMigration)
	s.attempted++

	t0 := time.Now()
	id := tr.begin("jobs.submit", root, op)
	code, _, resp, err := j.st.post(j.st.routerURL, "/v1/jobs", body)
	tr.end(id)
	var env jobEnvelope
	switch {
	case err != nil:
		s.fail("job %d: submit: %v", n, err)
		return
	case code != http.StatusAccepted:
		s.fail("job %d: submit: status %d: %s", n, code, resp)
		return
	case json.Unmarshal(resp, &env) != nil || env.ID == "":
		s.fail("job %d: submit: bad envelope %s", n, resp)
		return
	}
	s.phase["submit"] = append(s.phase["submit"], msSince(t0))

	id = tr.begin("jobs.stream", root, op)
	sr, err := j.follow(env.ID, t0, cancel, tr, id, op)
	tr.end(id)
	if err != nil {
		s.fail("job %d: %v", n, err)
		return
	}
	tDone := time.Now()
	id = tr.begin("jobs.result", root, op)
	code, result, err := j.st.do("GET", j.st.routerURL+"/v1/jobs/"+env.ID+"/result")
	tr.end(id)
	lat := time.Since(t0)
	resultMS := msSince(tDone)

	id = tr.begin("jobs.purge", root, op)
	pcode, pbody, perr := j.st.do("DELETE", j.st.routerURL+"/v1/jobs/"+env.ID+"?purge=1")
	tr.end(id)

	switch {
	case err != nil:
		s.fail("job %d: result: %v", n, err)
		return
	case code != 200:
		s.fail("job %d: result: status %d (%s): %s", n, code, sr.done.State, result)
		return
	case perr != nil || pcode != 200:
		s.fail("job %d: purge: status %d %v: %s", n, pcode, perr, pbody)
		return
	case sr.done.State != "done" && sr.done.State != "cancelled-with-result":
		s.fail("job %d: ended %q", n, sr.done.State)
		return
	}
	a, err := checkAnswer(inst, result)
	switch {
	case err != nil:
		s.fail("job %d (%s): %v", n, inst.class, err)
		return
	case sr.gens != a.Generations*jobIslands:
		s.fail("job %d: %d generation events for %d generations × %d islands", n, sr.gens, a.Generations, jobIslands)
		return
	case a.Makespan != sr.lastBest:
		s.fail("job %d (%s): result makespan %v, last streamed best_makespan %v", n, sr.done.State, a.Makespan, sr.lastBest)
		return
	}
	s.phase["first_event"] = append(s.phase["first_event"], float64(sr.firstEvent)/float64(time.Millisecond))
	s.phase["sse_gap"] = append(s.phase["sse_gap"], sr.gaps...)
	s.phase["result"] = append(s.phase["result"], resultMS)
	if sr.cancelMS > 0 {
		s.phase["cancel"] = append(s.phase["cancel"], sr.cancelMS)
	}
	if cancel {
		s.complete()
		return
	}
	// Uncancelled jobs alone give the latency figures and the quality ratio:
	// a cancelled job's length depends on when the cancel landed.
	s.ok(lat)
	if n < j.ratioOps() {
		s.ratioAt[n] = a.Makespan / inst.mcpa
	}
}

// follow reads the job's SSE stream to its done event. With cancel set it
// sends the DELETE (without purge) once a generation event reaches
// jobCancelGen; the handler answers once the job is terminal.
func (j *jobsBench) follow(jobID string, t0 time.Time, cancel bool, tr *tracer, parent int, op int64) (*streamResult, error) {
	resp, err := j.st.client.Get(j.st.routerURL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sr := &streamResult{}
	rd := newSSEReader(bufio.NewScanner(resp.Body))
	var last time.Time
	for {
		f, ok, err := rd.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("events: stream ended without a done event")
		}
		switch f.Event {
		case "generation":
			now := time.Now()
			ev, err := parseGenEvent(f.Data)
			if err != nil {
				return nil, err
			}
			if ev.Island == nil {
				return nil, fmt.Errorf("events: island run streamed an event without an island field")
			}
			if sr.gens == 0 {
				sr.firstEvent = now.Sub(t0)
				tr.record("jobs.first_event", parent, op, t0, now)
			} else {
				sr.gaps = append(sr.gaps, float64(now.Sub(last))/float64(time.Millisecond))
			}
			last = now
			sr.gens++
			sr.lastBest = ev.BestMakespan
			if cancel && sr.cancelMS == 0 && ev.Generation >= jobCancelGen {
				c0 := time.Now()
				id := tr.begin("jobs.cancel", parent, op)
				code, body, err := j.st.do("DELETE", j.st.routerURL+"/v1/jobs/"+jobID)
				tr.end(id)
				if err != nil || code != 200 {
					return nil, fmt.Errorf("cancel: status %d %v: %s", code, err, body)
				}
				sr.cancelMS = msSince(c0)
			}
		case "done":
			if err := json.Unmarshal([]byte(f.Data), &sr.done); err != nil {
				return nil, fmt.Errorf("events: done event %q: %w", f.Data, err)
			}
			return sr, nil
		}
	}
}

// replayRequests lists the first pass of jobs as synchronous requests.
func (j *jobsBench) replayRequests() []replayReq {
	out := make([]replayReq, 0, len(j.insts))
	for n, inst := range j.insts {
		seed := mixSeed(j.seed, freshIndex(7_000_000, 0, n))
		out = append(out, replayReq{inst: inst, body: scheduleBody(inst, "emts5", seed, jobIslands, jobMigration),
			algorithm: "emts5", seed: seed, islands: jobIslands, migration: jobMigration})
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
