package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/tracesim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Control-plane latency limit: cp_max_rps is the highest rate whose
// p99 stays within it with no failure and no growing backlog.
const cpLimitMS = 20

// Request kinds of the control-plane mix, with their shares.
const (
	kColdRun = iota
	kColdAdvise
	kColdCluster
	kWarm
	kCampaign
	kJobGet
)

var cpMix = []struct {
	kind  int
	share float64
}{
	{kColdRun, 0.30}, {kColdAdvise, 0.15}, {kColdCluster, 0.15},
	{kWarm, 0.25}, {kCampaign, 0.10}, {kJobGet, 0.05},
}

var cpWorkloads = []string{"STREAM", "DGEMM", "MiniFE", "GUPS", "Graph500", "XSBench"}

// cpCampaignConfigs are the configs of the mix's model campaigns: one
// point per config.
var cpCampaignConfigs = []string{"dram", "hbm"}

// jobRecords is how many journal records a campaign job appends:
// accepted and done.
const jobRecords = 2

// cp is one control-plane run's shared state.
type cp struct {
	b    *bench
	sp   spec
	ph   phase
	c    *service.Client
	cold atomic.Int64 // cold-key counter: every cold request is a new key

	warmTrace string

	mu       sync.Mutex
	jobs     []string      // finished campaign jobs, for GET /v1/jobs/{id}
	runs     []modelResult // cold /v1/run results and campaign points, checked after each step
	queueMS  []float64
	requests int
}

// modelResult is a served model point with the size it was asked for
// (the response echoes a rounded spelling).
type modelResult struct {
	resp service.RunResponse
	size units.Bytes
}

// step is one fixed-rate window of the open loop.
type step struct {
	rate      float64
	lat       latencies // from each request's due time
	late      []float64 // generator lateness (send − due), ms
	backlog   int       // due by the window's end but not completed
	sent      int
	failed    int
	abandoned int                // never sent: the window's drain budget ran out
	achieved  float64            // completions within the window per second
	service   map[string]float64 // median send-to-reply time per request kind, ms
}

var kindNames = []string{"cold_run", "cold_advise", "cold_cluster", "warm", "campaign", "job_get"}

// ok reports whether the step met the latency limit: no failure, p99
// within the limit, no growing backlog.
func (s step) ok(conns int) bool {
	return s.failed == 0 && s.abandoned == 0 && quantile(s.lat.ms, 0.99) <= cpLimitMS && s.backlog <= conns
}

// controlPlane is an open loop on a fixed arrival schedule at the lo
// and hi rates, followed by a stepped search for cp_max_rps.
func (b *bench) controlPlane(ctx context.Context, sp spec, ph phase) (_ *outcome, err error) {
	o := newOutcome()
	st := &cp{b: b, sp: sp, ph: ph}
	warmAccs := generate(sp.Traces[0], b.seed*64+63)
	bin, id, err := binaryTrace(filepath.Join(b.work, "warm.trc"), warmAccs)
	if err != nil {
		return nil, err
	}
	st.warmTrace = id
	if err := b.refs.compute([][]tracesim.Access{warmAccs}, []string{id}, []string{"cache"}, []string{sp.SKUs[0]}); err != nil {
		return nil, err
	}
	srv, c, err := b.startFresh(ctx, o, ph, sp.Conns, func(c *service.Client) error {
		st.c = c
		return st.warmUp(ctx, o, bin)
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if ferr := o.finish(srv, c); err == nil && ferr != nil {
			err = ferr
		}
	}()
	st.c = c
	// A closed-loop baseline of warm hits: the fixed cost of a request
	// (transport + middleware + cache lookup + JSON).
	var warm latencies
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := c.Run(ctx, service.RunRequest{Workload: "STREAM", Config: "hbm", Size: "8GB", Threads: 64}); err != nil {
			return nil, fmt.Errorf("warm baseline: %w", err)
		}
		warm.add(time.Since(t0))
	}
	o.detail["warm_p50_ms"] = median(warm.ms)

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
	start := time.Now()
	lo, hi := sp.Rates["lo"], sp.Rates["hi"]
	for range 8 {
		b.probe(o)
	}
	st.run(ctx, lo, 300*time.Millisecond, 0, o) // warm-up, discarded
	los := st.run(ctx, lo, ph.dur/5, 1, o)
	win, err := openWindow(srv)
	if err != nil {
		return nil, err
	}
	his := st.run(ctx, hi, ph.dur*4/15, 2, o)
	if err := win.close(o, his.sent); err != nil {
		return nil, err
	}
	o.primary = his.lat
	// Stepped search from the rate hi is meant to be 70% of: by 10%
	// up or down until a step meets and a step misses the limit, then
	// bisect the bracket to 2%.
	stepDur := max(ph.dur/10, time.Second)
	best, pass, fail := his, 0.0, math.Inf(1)
	if his.ok(sp.Conns) {
		pass = hi
	} else {
		fail = hi
	}
	rate := hi / 0.7
	for n := int64(3); ; n++ {
		if pass > 0 && fail/pass < 1.02 {
			break // bracket resolved
		}
		if time.Since(start)+stepDur > ph.dur {
			break
		}
		b.probe(o)
		s := st.run(ctx, rate, stepDur, n, o)
		// The newest step wins over older evidence it contradicts, so
		// a noisy step cannot leave an inverted bracket.
		if s.ok(sp.Conns) {
			pass = rate
			if rate >= fail {
				fail = math.Inf(1)
			}
			if s.achieved > best.achieved || !best.ok(sp.Conns) {
				best = s
			}
		} else {
			fail = rate
			if rate <= pass {
				pass, best = 0, his
			}
		}
		switch {
		case pass == 0:
			rate = fail / 1.1
		case math.IsInf(fail, 1):
			rate = pass * 1.1
		default:
			rate = math.Sqrt(pass * fail)
		}
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
		o.counters["requests"] = float64(st.requests)
	}
	o.queueMS = st.queueMS
	maxRPS := best.achieved
	if pass == 0 {
		maxRPS = 0 // no step met the limit
	}
	for name, s := range map[string]step{"lo": los, "hi": his} {
		sum := s.lat.summary()
		o.detail["cp_"+name+"_p50_ms"] = sum["p50_ms"]
		o.detail["cp_"+name+"_p99_ms"] = sum["p99_ms"]
		o.detail["cp_"+name+"_n"] = sum["n"]
		o.detail["cp_"+name+"_rps"] = s.rate
		o.detail["cp_"+name+"_backlog"] = float64(s.backlog)
		o.detail["cp_"+name+"_late_p99_ms"] = quantile(s.late, 0.99)
		for k, v := range s.service {
			o.detail["cp_"+name+"_"+k+"_ms"] = v
		}
	}
	o.detail["cp_max_rps"] = maxRPS
	o.detail["cp_max_step_rps"] = pass
	o.detail["cp_max_p99_ms"] = quantile(best.lat.ms, 0.99)
	return o, nil
}

// warmUp uploads the warm trace and computes every warm key plus one
// campaign whose job the mix polls.
func (st *cp) warmUp(ctx context.Context, o *outcome, bin []byte) error {
	up, err := st.c.UploadTrace(ctx, bytes.NewReader(bin))
	if err != nil {
		return fmt.Errorf("warm trace upload: %w", err)
	}
	if up.ID != st.warmTrace {
		o.mismatch(fmt.Errorf("warm trace stored as %s, encoder says %s", up.ID, st.warmTrace))
	}
	for k := 0; k < 3; k++ {
		if err := st.warm(ctx, st.c, k, o); err != nil {
			return fmt.Errorf("warm set-up: %w", err)
		}
	}
	resp, err := st.c.SubmitCampaign(ctx, campaign.Spec{Workloads: []string{"STREAM"}, Configs: cpCampaignConfigs, Sizes: []string{"2GB"}}, true)
	if err != nil {
		return fmt.Errorf("set-up campaign: %w", err)
	}
	st.mu.Lock()
	st.jobs = []string{resp.Job.ID}
	st.mu.Unlock()
	return nil
}

// warm issues warm request k (mod 3): a model run, an advice, a replay.
func (st *cp) warm(ctx context.Context, c *service.Client, k int, o *outcome) error {
	switch k % 3 {
	case 0:
		_, err := c.Run(ctx, service.RunRequest{Workload: "STREAM", Config: "hbm", Size: "8GB", Threads: 64})
		return err
	case 1:
		_, err := c.Advise(ctx, service.AdviseRequest{Workload: "GUPS", Size: "8GB", Threads: 64})
		return err
	}
	resp, err := c.Replay(ctx, service.ReplayRequest{Trace: st.warmTrace, Config: "cache"})
	if err == nil {
		if cerr := st.b.refs.checkReplay(resp, "cache", st.sp.SKUs[0]); cerr != nil {
			o.mismatch(cerr)
		}
	}
	return err
}

// do issues request kind k with cold index n.
func (st *cp) do(ctx context.Context, c *service.Client, k int, n int64, o *outcome) error {
	w := cpWorkloads[n%int64(len(cpWorkloads))]
	switch k {
	case kColdRun:
		cfg := st.sp.Configs[(n/int64(len(cpWorkloads)))%int64(len(st.sp.Configs))]
		resp, err := c.Run(ctx, service.RunRequest{Workload: w, Config: cfg, Size: fmt.Sprintf("%dMB", 1024+n), Threads: 64})
		if err == nil {
			st.mu.Lock()
			st.runs = append(st.runs, modelResult{resp, units.MB(float64(1024 + n))})
			st.mu.Unlock()
		}
		return err
	case kColdAdvise:
		maxMB := int64(st.sp.AdviseMax/units.MiB) - 512
		_, err := c.Advise(ctx, service.AdviseRequest{Workload: w, Size: fmt.Sprintf("%dMB", 512+n%maxMB), Threads: 64})
		return err
	case kColdCluster:
		_, err := c.Cluster(ctx, service.ClusterRequest{Workload: w, Size: fmt.Sprintf("%dMB", 8192+n)})
		return err
	case kWarm:
		return st.warm(ctx, c, int(n), o)
	case kCampaign:
		resp, err := c.SubmitCampaign(ctx, campaign.Spec{Workloads: []string{w}, Configs: cpCampaignConfigs, Sizes: []string{fmt.Sprintf("%dMB", 1024+n)}}, true)
		if err != nil {
			return err
		}
		if resp.Result == nil {
			return fmt.Errorf("campaign %s ended %s", resp.Job.ID, resp.Job.State)
		}
		st.mu.Lock()
		st.jobs = append(st.jobs, resp.Job.ID)
		for _, p := range resp.Result.Results {
			st.runs = append(st.runs, modelResult{p, units.MB(float64(1024 + n))})
		}
		st.queueMS = append(st.queueMS, resp.Job.QueueMS)
		st.mu.Unlock()
		return nil
	default:
		st.mu.Lock()
		id := st.jobs[n%int64(len(st.jobs))]
		st.mu.Unlock()
		_, err := c.Job(ctx, id)
		return err
	}
}

// run drives one fixed-rate window: requests due every 1/rate seconds,
// sent over at most Conns connections, each timed from its due time.
// Requests still unsent a window after the end are abandoned (they
// count as misses, not as failures of simd). id seeds the window's mix.
func (st *cp) run(ctx context.Context, rate float64, dur time.Duration, id int64, o *outcome) step {
	n := int(rate * dur.Seconds())
	rng := rand.New(rand.NewSource(st.b.seed*1024 + id))
	kinds := make([]int, n)
	for i := range kinds {
		x := rng.Float64()
		for _, m := range cpMix {
			if kinds[i] = m.kind; x < m.share {
				break
			}
			x -= m.share
		}
	}
	s := step{rate: rate, late: make([]float64, n)}
	lat := make([]float64, n)
	svc := make([]float64, n)
	status := make([]int8, n) // 0 ok, 1 failed, 2 abandoned
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	cutoff := end.Add(dur)
	var next, doneByEnd atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < st.sp.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				if t0.After(cutoff) || ctx.Err() != nil {
					status[i] = 2
					continue
				}
				k := kinds[i]
				var coldN int64
				if k == kWarm || k == kJobGet {
					coldN = int64(i)
				} else {
					coldN = st.cold.Add(1)
				}
				sample := i%20 == 0
				_, err := st.b.call(ctx, st.ph, st.c, "cp", sample, func(c *service.Client) error {
					return st.do(ctx, c, k, coldN, o)
				})
				t1 := time.Now()
				s.late[i] = ms(t0.Sub(due))
				lat[i] = ms(t1.Sub(due))
				svc[i] = ms(t1.Sub(t0))
				if err != nil {
					status[i] = 1
				}
				if !t1.After(end) {
					doneByEnd.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range lat {
		switch status[i] {
		case 0:
			s.lat.ms = append(s.lat.ms, lat[i])
			s.sent++
		case 1:
			s.lat.ms = append(s.lat.ms, math.Inf(1)) // a failure misses any limit
			s.sent++
			s.failed++
		default:
			s.abandoned++
		}
	}
	byKind := make(map[int][]float64)
	for i, k := range kinds {
		if status[i] == 0 {
			byKind[k] = append(byKind[k], svc[i])
		}
	}
	s.service = make(map[string]float64)
	for k, v := range byKind {
		s.service[kindNames[k]] = median(v)
	}
	s.backlog = n - int(doneByEnd.Load())
	s.achieved = float64(doneByEnd.Load()) / dur.Seconds()
	o.attempted += s.sent
	o.failed += s.failed
	st.mu.Lock()
	st.requests += s.sent
	st.mu.Unlock()
	st.verify(o)
	fmt.Fprintf(os.Stderr, "control-plane: %.0f req/s for %v: p50 %.2f p90 %.2f p99 %.2f ms, backlog %d, failed %d, abandoned %d\n",
		rate, dur, quantile(s.lat.ms, 0.5), quantile(s.lat.ms, 0.9), quantile(s.lat.ms, 0.99), s.backlog, s.failed, s.abandoned)
	return s
}

// verify checks the cold model results and campaign points gathered so
// far against in-process predictions, then drops them.
func (st *cp) verify(o *outcome) {
	st.mu.Lock()
	rs := st.runs
	st.runs = nil
	st.mu.Unlock()
	for _, r := range rs {
		if err := st.b.checkModel(r.resp, r.size); err != nil {
			o.mismatch(err)
		}
	}
}

// checkModel compares a model-fidelity result with an in-process
// prediction of the same point.
func (b *bench) checkModel(r service.RunResponse, size units.Bytes) error {
	var cfg engine.MemoryConfig
	for _, c := range configs {
		if m, _ := engine.ParseConfig(c); m.String() == r.Config {
			cfg = m
		}
	}
	sys, err := b.refs.exec.System(r.SKU)
	if err != nil {
		return err
	}
	mdl, err := sys.Workload(r.Workload)
	if err != nil {
		return err
	}
	v, err := mdl.Predict(sys.Machine, cfg, size, r.Threads)
	var nofit engine.ErrDoesNotFit
	switch {
	case err != nil && (errors.As(err, &nofit) || errors.Is(err, workload.ErrNotMeasured)):
		if r.Unavailable == "" {
			return fmt.Errorf("run %s/%s/%s: served %v, model says unavailable (%v)", r.Workload, r.Config, r.Size, r.Value, err)
		}
	case err != nil:
		return err
	case r.Unavailable != "" || r.Value != v:
		return fmt.Errorf("run %s/%s/%s: served %v %q, model says %v", r.Workload, r.Config, r.Size, r.Value, r.Unavailable, v)
	}
	return nil
}
