package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request (or
// one in-process probe) share a trace id; Parent 0 marks a root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Work is the amount the span processed (accesses, calls), so a
	// per-unit cost can be derived from its self time.
	Work float64 `json:"work,omitempty"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span; the returned function closes it with the amount
// of work done and returns its id for use as a parent.
func (r *recorder) start(trace string, parent int, name string) (id int, end func(work float64)) {
	if r == nil {
		return 0, func(float64) {}
	}
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Now()})
	r.mu.Unlock()
	return id, func(work float64) {
		now := time.Now()
		r.mu.Lock()
		r.spans[id-1].End = now
		r.spans[id-1].Work = work
		r.mu.Unlock()
	}
}

// add files a span measured elsewhere (the server's own spans fetched
// from /debug/traces), nested under parent, and returns its id.
func (r *recorder) add(trace string, parent int, name string, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: start.Add(d)})
	return id
}

// layerCost is a span name's summed self time and work.
type layerCost struct {
	Self time.Duration
	Work float64
}

// perUnit is self time per unit of work, in the given unit.
func (c layerCost) perUnit(unit time.Duration) float64 {
	if c.Work == 0 {
		return 0
	}
	return float64(c.Self) / float64(unit) / c.Work
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover.
func (r *recorder) selfTimes() map[string]layerCost {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	out := make(map[string]layerCost)
	for _, s := range r.spans {
		c := out[s.Name]
		c.Self += s.End.Sub(s.Start) - child[s.ID]
		c.Work += s.Work
		out[s.Name] = c
	}
	return out
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
