package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// probePeriod is the /readyz and /metrics sampling period of traced runs.
const probePeriod = 100 * time.Millisecond

// tierProbe is the traced run's outside view of the serving tier: counter
// deltas of both tiers' /metrics across the run, and gauges sampled on a
// fixed period.
type tierProbe struct {
	st                   *stack
	before, routerBefore promSample
	stop                 chan struct{}
	done                 sync.WaitGroup

	mu                                  sync.Mutex
	err                                 error
	queue, inflight, governor, resident []float64
}

func startProbe(st *stack) (*tierProbe, error) {
	p := &tierProbe{st: st, stop: make(chan struct{})}
	var err error
	if p.before, err = scrapeAll(st.client, st.backendURLs); err != nil {
		return nil, err
	}
	if p.routerBefore, err = scrape(st.client, st.routerURL); err != nil {
		return nil, err
	}
	p.done.Add(1)
	go p.loop()
	return p, nil
}

func (p *tierProbe) loop() {
	defer p.done.Done()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		if err := p.sampleOnce(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			return
		}
	}
}

// sampleOnce reads every backend's /readyz detail and gauges and records
// their sums across backends.
func (p *tierProbe) sampleOnce() error {
	var queue, inflight float64
	for _, b := range p.st.backendURLs {
		code, body, err := p.st.do("GET", b+"/readyz")
		if err != nil {
			return fmt.Errorf("readyz: %w", err)
		}
		var rz struct {
			QueueDepth int `json:"queue_depth"`
			Inflight   int `json:"inflight"`
		}
		if code != 200 || json.Unmarshal(body, &rz) != nil {
			return fmt.Errorf("readyz: status %d: %s", code, body)
		}
		queue += float64(rz.QueueDepth)
		inflight += float64(rz.Inflight)
	}
	m, err := scrapeAll(p.st.client, p.st.backendURLs)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, queue)
	p.inflight = append(p.inflight, inflight)
	p.governor = append(p.governor, m.sum("emts_governor_tokens_available"))
	p.resident = append(p.resident, m.sum("emts_jobs_states"))
	return nil
}

// hitRate is hits/(hits+misses) of a *_hits_total/*_misses_total pair.
func hitRate(d promSample, name string) float64 {
	h, m := d.sum(name+"_hits_total"), d.sum(name+"_misses_total")
	return ratio(h, h+m)
}

// finish stops sampling and files the tier's per-layer figures into s.
func (p *tierProbe) finish(s *sample) error {
	close(p.stop)
	p.done.Wait()
	if p.err != nil {
		return p.err
	}
	after, err := scrapeAll(p.st.client, p.st.backendURLs)
	if err != nil {
		return err
	}
	routerAfter, err := scrape(p.st.client, p.st.routerURL)
	if err != nil {
		return err
	}
	d, rd := delta(p.before, after), delta(p.routerBefore, routerAfter)
	s.layer["intern.graph_hit_rate"] = hitRate(d, "emts_intern_graph")
	s.layer["intern.table_hit_rate"] = hitRate(d, "emts_intern_table")
	s.layer["evalpool.hit_rate"] = hitRate(d, "emts_mapper_pool")
	computeMS := 1000 * ratio(d.sum("emts_request_duration_seconds_sum"), d.sum("emts_request_duration_seconds_count"))
	s.layer["server.compute_ms_mean"] = computeMS
	if len(s.missLatMS) > 0 {
		s.layer["server.outside_compute_ms"] = mean(s.missLatMS) - computeMS
	}
	s.layer["route.affinity_graph"] = ratio(rd.sum("emts_router_affinity_interned_total", `kind="graph"`), rd.sum("emts_router_ok_total"))
	s.layer["server.cache_hit_rate"] = ratio(float64(s.hits), float64(s.responses))
	s.layer["server.response_kb"] = ratio(float64(s.respBytes), float64(s.responses)) / 1024
	s.layer["server.queue_depth_mean"] = mean(p.queue)
	s.layer["server.inflight_mean"] = mean(p.inflight)
	s.layer["server.governor_available_mean"] = mean(p.governor)
	s.layer["jobs.resident"] = mean(p.resident)
	return nil
}
