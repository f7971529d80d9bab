package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
)

// sseFrame is one server-sent event.
type sseFrame struct {
	ID, Event, Data string
}

// sseReader splits a text/event-stream body into frames, skipping comment
// (keep-alive) lines.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(sc *bufio.Scanner) *sseReader {
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseReader{sc: sc}
}

// next returns the next complete frame. It returns an error when the stream
// fails or ends in the middle of a frame, and ok false at a clean end.
func (r *sseReader) next() (f sseFrame, ok bool, err error) {
	started := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if started {
				return f, true, nil
			}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id: "):
			f.ID, started = line[len("id: "):], true
		case strings.HasPrefix(line, "event: "):
			f.Event, started = line[len("event: "):], true
		case strings.HasPrefix(line, "data: "):
			f.Data, started = line[len("data: "):], true
		default:
			return f, false, fmt.Errorf("sse: unexpected line %q", line)
		}
	}
	if err := r.sc.Err(); err != nil {
		return f, false, fmt.Errorf("sse: %w", err)
	}
	if started {
		return f, false, fmt.Errorf("sse: stream ended inside a frame")
	}
	return f, false, nil
}

// genEvent is the payload of a "generation" frame; Island is absent on
// single-population runs.
type genEvent struct {
	Generation   int     `json:"generation"`
	Island       *int    `json:"island"`
	BestMakespan float64 `json:"best_makespan"`
}

// doneEvent is the payload of the terminal "done" frame.
type doneEvent struct {
	State string `json:"state"`
	Code  int    `json:"code"`
}

func parseGenEvent(data string) (genEvent, error) {
	var ev genEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		return ev, fmt.Errorf("sse: generation event %q: %w", data, err)
	}
	return ev, nil
}
