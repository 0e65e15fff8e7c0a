package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/tracesim"
)

// replaySerial is a closed loop with one request in flight: every
// trace × config × SKU replayed cold through POST /v1/replay. Replay
// results are cached by key, so each pass starts a fresh simd over a
// fresh data directory and uploads the traces again (the set-up); the
// 64 replays of a pass are then all distinct and cold.
func (b *bench) replaySerial(ctx context.Context, sp spec, ph phase) (_ *outcome, err error) {
	o := newOutcome()
	streams := make([][]tracesim.Access, len(sp.Traces))
	bins := make([][]byte, len(sp.Traces))
	ids := make([]string, len(sp.Traces))
	for i, ts := range sp.Traces {
		streams[i] = generate(ts, b.seed*64+int64(i))
		if bins[i], ids[i], err = binaryTrace(filepath.Join(b.work, ts.Name+".trc"), streams[i]); err != nil {
			return nil, err
		}
	}
	if err := b.refs.compute(streams, ids, sp.Configs, sp.SKUs); err != nil {
		return nil, err
	}
	type replay struct {
		trace       int
		config, sku string
	}
	var order []replay
	for t := range sp.Traces {
		for _, c := range sp.Configs {
			for _, sku := range sp.SKUs {
				order = append(order, replay{t, c, sku})
			}
		}
	}
	rand.New(rand.NewSource(b.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	upload := func(c *service.Client) error {
		for i := range bins {
			up, err := c.UploadTrace(ctx, bytes.NewReader(bins[i]))
			if err != nil {
				return fmt.Errorf("set-up upload of %s: %w", sp.Traces[i].Name, err)
			}
			if up.ID != ids[i] {
				o.mismatch(fmt.Errorf("trace %s stored as %s, encoder says %s", sp.Traces[i].Name, up.ID, ids[i]))
			}
		}
		return nil
	}
	srv, c, err := b.startFresh(ctx, o, ph, sp.Conns, upload)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ferr := o.finish(srv, c); err == nil && ferr != nil {
			err = ferr
		}
	}()
	var accesses int64
	var busy time.Duration
	deadline := time.Now().Add(ph.dur)
	for pass := 0; ; pass++ {
		if pass > 0 {
			// Replay results are cached by key: a further pass needs a
			// fresh simd over a fresh data directory.
			if err := o.finish(srv, c); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if srv, err = startSimd(ctx, b.simdBin, filepath.Join(b.work, "data")); err != nil {
				return nil, err
			}
			c = client(srv.URL, sp.Conns)
			if err := upload(c); err != nil {
				return nil, err
			}
			o.setups = append(o.setups, time.Since(t0).Seconds())
		}
		passStart := time.Now()
		var prof func() error
		if ph.profile != "" && pass == 0 {
			prof = profile(ctx, c, ph.profile, max(1, int(ph.dur/time.Second)))
		}
		var delta func() (map[string]float64, error)
		if ph.spans != nil {
			if delta, err = meter(ctx, c); err != nil {
				return nil, err
			}
		}
		win, err := openWindow(srv)
		if err != nil {
			return nil, err
		}
		for i, r := range order {
			if i%4 == 0 {
				b.probe(o)
			}
			var resp service.ReplayResponse
			d, err := b.call(ctx, ph, c, "replay", true, func(c *service.Client) (err error) {
				resp, err = c.Replay(ctx, service.ReplayRequest{Trace: ids[r.trace], Config: r.config, SKU: r.sku})
				return err
			})
			o.attempted++
			if err != nil {
				o.failed++
				continue
			}
			o.primary.add(d)
			busy += d
			accesses += resp.Stats.Accesses
			if resp.Cached {
				o.mismatch(fmt.Errorf("replay %s/%s/%s served from cache; the workload must be cold", sp.Traces[r.trace].Name, r.config, r.sku))
			}
			if err := b.refs.checkReplay(resp, r.config, r.sku); err != nil {
				o.mismatch(err)
			}
		}
		if err := win.close(o, len(order)); err != nil {
			return nil, err
		}
		if delta != nil {
			d, err := delta()
			if err != nil {
				return nil, err
			}
			o.addCounters(d)
			o.counters["requests"] += float64(len(order))
		}
		if prof != nil {
			// The profile covers the first pass's replays, never a
			// set-up (an idle tail adds no samples).
			if err := prof(); err != nil {
				return nil, err
			}
		}
		// Stop when another pass would overrun the measured time.
		if time.Now().Add(time.Since(passStart)).After(deadline) {
			break
		}
	}
	s := o.primary.summary()
	o.detail["replay_p50_ms"] = s["p50_ms"]
	o.detail["replay_p99_ms"] = s["p99_ms"]
	o.detail["replay_n"] = s["n"]
	o.detail["replay_maccess_s"] = float64(accesses) / 1e6 / busy.Seconds()
	return o, nil
}
