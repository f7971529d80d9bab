package main

import (
	"bufio"
	"strings"
	"testing"
	"time"
)

// serverPage and routerPage follow the text internal/server and
// internal/route write on /metrics.
const serverPage = `# HELP emts_requests_total Finished HTTP requests by status code.
# TYPE emts_requests_total counter
emts_requests_total{code="200"} 12
emts_request_duration_seconds_sum{algorithm="emts5"} 0.5
emts_request_duration_seconds_count{algorithm="emts5"} 10
emts_request_duration_seconds_sum{algorithm="mcpa"} 0.01
emts_request_duration_seconds_count{algorithm="mcpa"} 2
emts_intern_graph_hits_total 9
emts_intern_graph_misses_total 3
emts_governor_tokens_available -1
emts_jobs_states{state="running"} 2
emts_jobs_states{state="done"} 1
`

const routerPage = `# HELP emts_router_affinity_interned_total Proxied 200s whose graph/table was already interned on the backend.
emts_router_affinity_interned_total{backend="backend-0",kind="graph"} 4
emts_router_affinity_interned_total{backend="backend-0",kind="table"} 3
emts_router_affinity_interned_total{backend="backend-1",kind="graph"} 5
emts_router_ok_total{backend="backend-0"} 5
emts_router_ok_total{backend="backend-1"} 5
emts_router_request_duration_seconds_bucket{backend="backend-0",le="+Inf"} 5
emts_router_retries_total 0
`

func mustParse(t *testing.T, page string) promSample {
	t.Helper()
	p, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPromServerTier(t *testing.T) {
	before := mustParse(t, serverPage)
	after := mustParse(t, strings.NewReplacer(
		`emts_intern_graph_hits_total 9`, `emts_intern_graph_hits_total 15`,
		`{algorithm="emts5"} 10`, `{algorithm="emts5"} 14`,
		`{algorithm="emts5"} 0.5`, `{algorithm="emts5"} 0.9`,
	).Replace(serverPage))
	d := delta(before, after)
	if got := hitRate(d, "emts_intern_graph"); got != 1 {
		t.Errorf("graph hit rate of the delta = %v, want 1 (6 hits, 0 misses)", got)
	}
	if got := hitRate(after, "emts_intern_graph"); got != 15.0/18 {
		t.Errorf("lifetime graph hit rate = %v, want 15/18", got)
	}
	if got := d.sum("emts_request_duration_seconds_sum"); got < 0.4-1e-12 || got > 0.4+1e-12 {
		t.Errorf("duration sum delta = %v, want 0.4", got)
	}
	if got := d.sum("emts_request_duration_seconds_count"); got != 4 {
		t.Errorf("duration count delta = %v, want 4", got)
	}
	if got := after.sum("emts_jobs_states"); got != 3 {
		t.Errorf("jobs resident = %v, want 3", got)
	}
	if got := after.sum("emts_governor_tokens_available"); got != -1 {
		t.Errorf("governor = %v, want -1", got)
	}
}

func TestPromRouterTier(t *testing.T) {
	p := mustParse(t, routerPage)
	if got := p.sum("emts_router_affinity_interned_total", `kind="graph"`); got != 9 {
		t.Errorf("graph affinity = %v, want 9", got)
	}
	if got := p.sum("emts_router_ok_total"); got != 10 {
		t.Errorf("ok = %v, want 10", got)
	}
	if got := p.sum("emts_router_request_duration_seconds_bucket", `le="+Inf"`); got != 5 {
		t.Errorf("+Inf bucket = %v, want 5", got)
	}
	// A new series after the first scrape counts from zero.
	d := delta(promSample{}, p)
	if d.sum("emts_router_ok_total") != 10 {
		t.Error("delta from an empty scrape must equal the scrape")
	}
	if _, err := parseProm(strings.NewReader("emts_router_ok_total{backend=\"x\"} notanumber\n")); err == nil {
		t.Error("want an error for a non-numeric value")
	}
}

func TestSSEFrames(t *testing.T) {
	stream := ": keep-alive\n\n" +
		"id: 1\nevent: generation\ndata: {\"generation\":0,\"island\":1,\"best_makespan\":12.5,\"evaluations\":30}\n\n" +
		": keep-alive\n\n" +
		"id: 2\nevent: generation\ndata: {\"generation\":1,\"best_makespan\":11}\n\n" +
		"id: 3\nevent: done\ndata: {\"state\":\"done\",\"code\":200}\n\n"
	rd := newSSEReader(bufio.NewScanner(strings.NewReader(stream)))
	var frames []sseFrame
	for {
		f, ok, err := rd.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3: %+v", len(frames), frames)
	}
	ev, err := parseGenEvent(frames[0].Data)
	if err != nil || ev.Island == nil || *ev.Island != 1 || ev.BestMakespan != 12.5 {
		t.Errorf("island event = %+v, %v", ev, err)
	}
	ev, err = parseGenEvent(frames[1].Data)
	if err != nil || ev.Island != nil || ev.Generation != 1 {
		t.Errorf("single-population event = %+v, %v; want no island field", ev, err)
	}
	if frames[2].Event != "done" || frames[2].ID != "3" {
		t.Errorf("done frame = %+v", frames[2])
	}

	rd = newSSEReader(bufio.NewScanner(strings.NewReader("id: 1\nevent: generation\n")))
	if _, _, err := rd.next(); err == nil {
		t.Error("a stream cut inside a frame must be an error")
	}
	if _, err := parseGenEvent("{"); err == nil {
		t.Error("want an error for malformed event data")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 1 * ms, End: 3 * ms, Parent: 0},
		{Name: "b", Start: 2 * ms, End: 5 * ms, Parent: 0},  // overlaps a
		{Name: "c", Start: 8 * ms, End: 12 * ms, Parent: 0}, // runs past op's end
		{Name: "leaf", Start: 3 * ms, End: 4 * ms, Parent: 2},
		{Name: "open", Start: 6 * ms, End: -1, Parent: 0}, // never closed
	}
	self := selfTimes(spans)
	// op: children cover [1,5] and [8,10] of [0,10] → 10 - 6 = 4.
	for i, want := range []time.Duration{4 * ms, 2 * ms, 2 * ms, 4 * ms, 1 * ms, 0} {
		if self[i] != want {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	st := byName(spans, nil)
	if _, ok := st["open"]; ok {
		t.Error("an open span must not be aggregated")
	}
	if got := meanSelf(st, "op", ms); got != 4 {
		t.Errorf("meanSelf(op) = %v ms, want 4", got)
	}
	if got := meanDur(st, "b", ms); got != 3 {
		t.Errorf("meanDur(b) = %v ms, want 3", got)
	}
}
