package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/tracesim"
)

// An end-to-end run sets up at least setupReps times and until
// setupBudget is spent, at most maxSetupReps times; set-up time is
// reported as the median. A cheap set-up (a bare simd start, about
// 8 ms) is thus timed a few hundred times, not nine.
const (
	setupReps    = 9
	setupBudget  = 3 * time.Second
	maxSetupReps = 400
)

// startFresh sets simd up over a fresh data directory as often as ph
// asks, recording each set-up time, and keeps the last one running.
// ready runs after each start and belongs to the set-up.
func (b *bench) startFresh(ctx context.Context, o *outcome, ph phase, conns int, ready func(*service.Client) error) (*simd, *service.Client, error) {
	begin := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		srv, err := startSimd(ctx, b.simdBin, filepath.Join(b.work, "data"))
		if err != nil {
			return nil, nil, err
		}
		c := client(srv.URL, conns)
		if ready != nil {
			if err := ready(c); err != nil {
				srv.stop()
				return nil, nil, err
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if i >= ph.setups-1 && (time.Since(begin) >= ph.setupBudget || i >= maxSetupReps-1) {
			return srv, c, nil
		}
		c.HTTPClient.CloseIdleConnections()
		if err := srv.stop(); err != nil {
			return nil, nil, fmt.Errorf("simd exit: %w", err)
		}
	}
}

// finish records simd's peak RSS and GOMAXPROCS and stops it.
func (o *outcome) finish(srv *simd, c *service.Client) error {
	rss, err := srv.peakRSSMB()
	o.rssMB = max(o.rssMB, rss)
	o.simdProcs = srv.gomaxprocs()
	c.HTTPClient.CloseIdleConnections()
	if serr := srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("simd exit: %w", serr)
	}
	return err
}

// uploadCampaign is a closed loop with one client: each iteration
// generates three fresh traces (outside the timing), uploads them as
// NDJSON, CSV and gzip NDJSON, then runs a replay-fidelity campaign
// over them × the four configs with wait=1.
func (b *bench) uploadCampaign(ctx context.Context, sp spec, ph phase) (_ *outcome, err error) {
	o := newOutcome()
	srv, c, err := b.startFresh(ctx, o, ph, sp.Conns, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ferr := o.finish(srv, c); err == nil && ferr != nil {
			err = ferr
		}
	}()
	var uploads, iters latencies
	var uploaded int64
	var uploadBusy time.Duration
	var delta func() (map[string]float64, error)
	if ph.spans != nil {
		if delta, err = meter(ctx, c); err != nil {
			return nil, err
		}
	}
	var prof func() error
	if ph.profile != "" {
		prof = profile(ctx, c, ph.profile, max(1, int(ph.dur/time.Second)))
	}
	deadline := time.Now().Add(ph.dur)
	for it := int64(0); it == 0 || time.Now().Before(deadline); it++ {
		streams, bodies, ids, err := uploadInputs(sp.Traces, (b.seed*1_000_003+it)*8)
		if err != nil {
			return nil, err
		}
		if err := b.refs.compute(streams, ids, sp.Configs, sp.SKUs); err != nil {
			return nil, err
		}

		b.probe(o)
		win, err := openWindow(srv)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		failed := false
		for i := range bodies {
			var up service.TraceUploadResponse
			d, err := b.call(ctx, ph, c, "upload", true, func(c *service.Client) (err error) {
				up, err = c.UploadTrace(ctx, bytes.NewReader(bodies[i]))
				return err
			})
			o.attempted++
			if err != nil {
				o.failed++
				failed = true
				continue
			}
			uploads.add(d)
			uploadBusy += d
			uploaded += int64(len(streams[i]))
			if up.ID != ids[i] || up.Existed {
				o.mismatch(fmt.Errorf("upload %d: stored as %s (existed %v), encoder says %s", i, up.ID, up.Existed, ids[i]))
			}
		}
		var resp service.CampaignResponse
		spec := campaign.Spec{Fidelity: campaign.FidelityReplay, Traces: ids, Configs: sp.Configs, SKU: sp.SKUs[0]}
		d, err := b.call(ctx, ph, c, "campaign", true, func(c *service.Client) (err error) {
			resp, err = c.SubmitCampaign(ctx, spec, true)
			return err
		})
		o.attempted++
		iterTime := time.Since(t0)
		if err := win.close(o, 1); err != nil {
			return nil, err
		}
		if err != nil || failed {
			o.failed++
			continue
		}
		o.primary.add(d)
		iters.add(iterTime)
		o.queueMS = append(o.queueMS, resp.Job.QueueMS)
		b.checkCampaign(o, resp, len(ids)*len(sp.Configs), sp.SKUs[0])
	}
	if prof != nil {
		if err := prof(); err != nil {
			return nil, err
		}
	}
	if delta != nil {
		d, err := delta()
		if err != nil {
			return nil, err
		}
		o.addCounters(d)
		o.counters["requests"] = float64(o.attempted)
	}
	cs, us := o.primary.summary(), uploads.summary()
	o.detail["campaign_p50_s"] = cs["p50_ms"] / 1000
	o.detail["campaign_n"] = cs["n"]
	o.detail["upload_p50_ms"] = us["p50_ms"]
	o.detail["upload_n"] = us["n"]
	o.detail["upload_maccess_s"] = float64(uploaded) / 1e6 / uploadBusy.Seconds()
	o.detail["iteration_p50_ms"] = median(iters.ms)
	return o, nil
}

// uploadInputs generates one iteration's traces, from seeds seed,
// seed+1, ..., with their content addresses and upload bodies (NDJSON,
// CSV and gzip NDJSON in turn). The traces are prepared in parallel on
// every CPU, so more of a run is spent inside the timed windows.
func uploadInputs(traces []traceSpec, seed int64) (streams [][]tracesim.Access, bodies [][]byte, ids []string, err error) {
	streams = make([][]tracesim.Access, len(traces))
	bodies = make([][]byte, len(traces))
	ids = make([]string, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	sem := make(chan struct{}, nproc())
	for i, ts := range traces {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			streams[i] = generate(ts, seed+int64(i))
			ids[i], errs[i] = contentID(streams[i])
			switch i % 3 {
			case 0:
				bodies[i] = ndjson(streams[i])
			case 1:
				bodies[i] = csvBody(streams[i])
			default:
				bodies[i] = gzipped(ndjson(streams[i]))
			}
		}()
	}
	wg.Wait()
	return streams, bodies, ids, errors.Join(errs...)
}

// checkCampaign gates a replay campaign's result: every point present
// and equal to the scalar reference.
func (b *bench) checkCampaign(o *outcome, resp service.CampaignResponse, points int, sku string) {
	if resp.Result == nil || resp.Job.State != service.JobDone {
		o.mismatch(fmt.Errorf("campaign %s ended %s without a result", resp.Job.ID, resp.Job.State))
		return
	}
	if resp.Result.Cached || resp.Result.CacheHits != 0 {
		o.mismatch(fmt.Errorf("campaign %s was served from cache; its traces are fresh", resp.Job.ID))
	}
	if len(resp.Result.Results) != points {
		o.mismatch(fmt.Errorf("campaign %s: %d points, want %d", resp.Job.ID, len(resp.Result.Results), points))
	}
	for _, p := range resp.Result.Results {
		if err := b.refs.checkCampaignPoint(p, sku); err != nil {
			o.mismatch(err)
		}
	}
}
