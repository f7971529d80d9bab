package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the recorder's spans, -1 for a root
	Op     int64         `json:"op"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval is already known.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Op: op})
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans' list (open spans keep End -1).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats aggregates self times by span name.
type layerStats struct {
	self, dur []float64 // seconds, one per span
}

// byName groups closed spans' self times by name; keep, when non-nil,
// selects the spans to include.
func byName(spans []span, keep func(span) bool) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for i, s := range spans {
		if s.End < s.Start || (keep != nil && !keep(s)) {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.self = append(ls.self, self[i].Seconds())
		ls.dur = append(ls.dur, (s.End - s.Start).Seconds())
	}
	return out
}

// meanSelf returns the mean self time of the named spans in unit (e.g.
// time.Millisecond), or 0 when there are none.
func meanSelf(st map[string]*layerStats, name string, unit time.Duration) float64 {
	ls := st[name]
	if ls == nil {
		return 0
	}
	return mean(ls.self) / unit.Seconds()
}

// meanDur is meanSelf with whole durations, children included.
func meanDur(st map[string]*layerStats, name string, unit time.Duration) float64 {
	ls := st[name]
	if ls == nil {
		return 0
	}
	return mean(ls.dur) / unit.Seconds()
}

// medianSelf is meanSelf with the median.
func medianSelf(st map[string]*layerStats, name string, unit time.Duration) float64 {
	ls := st[name]
	if ls == nil {
		return 0
	}
	return median(append([]float64(nil), ls.self...)) / unit.Seconds()
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
