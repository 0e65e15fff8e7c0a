package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
)

// call times one request. In a traced phase it tags the request with a
// unique X-Request-Id and records a client span; when sample is set it
// then fetches simd's own span tree for that id from /debug/traces
// (outside the timing) and files it under the client span.
func (b *bench) call(ctx context.Context, ph phase, c *service.Client, class string, sample bool, fn func(*service.Client) error) (time.Duration, error) {
	if ph.spans == nil {
		t0 := time.Now()
		err := fn(c)
		return time.Since(t0), err
	}
	rid := fmt.Sprintf("pb-%s-%d", class, b.reqSeq.Add(1))
	tagged := *c
	tagged.RequestID = rid
	id, end := ph.spans.start(rid, 0, "http."+class)
	t0 := time.Now()
	err := fn(&tagged)
	d := time.Since(t0)
	end(1)
	if sample && err == nil {
		if td, ferr := c.DebugTrace(ctx, rid); ferr == nil {
			ids := make(map[int]int, len(td.Spans))
			for _, s := range td.Spans {
				parent, ok := ids[s.Parent]
				if !ok {
					parent = id
				}
				ids[s.ID] = ph.spans.add(rid, parent, "simd."+s.Name, s.Start, time.Duration(s.MS*float64(time.Millisecond)))
			}
		}
	}
	return d, err
}

// meter snapshots simd's counters; the returned function gives their
// change since the snapshot.
func meter(ctx context.Context, c *service.Client) (func() (map[string]float64, error), error) {
	read := func() (map[string]float64, error) {
		m, err := scrape(ctx, c.HTTPClient, c.BaseURL)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"journal_entries": family(m, "simd_journal_entries", ""),
			"results_stored":  family(m, "simd_results_stored", ""),
			"cache_hits":      family(m, "simd_cache_hits_total", ""),
			"cache_misses":    family(m, "simd_cache_misses_total", ""),
			"gc_cycles":       family(m, "simd_go_gc_cycles_total", ""),
		}, nil
	}
	before, err := read()
	if err != nil {
		return nil, err
	}
	return func() (map[string]float64, error) {
		after, err := read()
		if err != nil {
			return nil, err
		}
		for k := range after {
			after[k] -= before[k]
		}
		return after, nil
	}, nil
}

// addCounters accumulates one window's counter deltas.
func (o *outcome) addCounters(d map[string]float64) {
	for k, v := range d {
		o.counters[k] += v
	}
}

// profile saves simd's CPU profile over the next secs seconds to path;
// the returned function waits for it.
func profile(ctx context.Context, c *service.Client, path string, secs int) func() error {
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", c.BaseURL, secs)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			// The profile holds a connection of its own, outside the
			// client's bounded pool.
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("CPU profile: HTTP %d", resp.StatusCode)
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if _, err := io.Copy(f, resp.Body); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}()
	}()
	return func() error { return <-done }
}
