package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/knl"
	"repro/internal/service"
	"repro/internal/tracesim"
	"repro/internal/tracestore"
	"repro/internal/units"
)

// The traced run: every layer's public functions timed in-process on
// the benchmark's generated inputs, each call wrapped in a span; then
// every workload run briefly untraced and traced, so the layer costs
// can be set against end-to-end medians.

// probeTrace is the trace id of the in-process layer spans.
const probeTrace = "layers"

// layer runs fn inside one span named name that did work units of work.
func layer(rec *recorder, name string, work float64, fn func() error) error {
	_, end := rec.start(probeTrace, 0, name)
	err := fn()
	end(work)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// repeat calls fn n times with the call index.
func repeat(n int, fn func(i int) error) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// probes measures each layer in-process, filing spans in rec, and
// returns the exact simulated counts plus any gate failures.
func (b *bench) probes(ctx context.Context, rec *recorder) (map[string]float64, []error, error) {
	m := make(map[string]float64)
	var gate []error
	rs, err := specFor(wReplaySerial, nproc())
	if err != nil {
		return nil, nil, err
	}
	var streams [][]tracesim.Access
	for i, ts := range rs.Traces {
		streams = append(streams, generate(ts, b.seed*64+int64(i)))
	}

	// Simulator, per config, on pre-decoded blocks (SKU 7210).
	var counts tracesim.Result
	for _, cfgName := range configs {
		cfg, err := hierarchy(b.refs.exec, "7210", cfgName)
		if err != nil {
			return nil, nil, err
		}
		short, _, _ := strings.Cut(cfgName, ":")
		for _, accs := range streams {
			src := blocksOf(accs)
			sim, err := tracesim.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			var res tracesim.Result
			if err := layer(rec, "tracesim.RunBlockPasses/"+short, float64(len(accs)), func() (err error) {
				res, err = sim.RunBlockPasses(src, 1)
				return err
			}); err != nil {
				return nil, nil, err
			}
			if cfgName != "cache" {
				continue
			}
			counts.Accesses += res.Accesses
			counts.L2.Hits += res.L2.Hits
			counts.L2.Misses += res.L2.Misses
			counts.MemCache.Hits += res.MemCache.Hits
			counts.MemCache.Misses += res.MemCache.Misses
			counts.MemReads += res.MemReads
			counts.MemWrites += res.MemWrites
			counts.Prefetches += res.Prefetches
			sh, err := tracesim.NewSharded(cfg, 2)
			if err != nil {
				return nil, nil, err
			}
			var got tracesim.Result
			if err := layer(rec, "tracesim.Sharded2.RunBlockPasses", float64(len(accs)), func() (err error) {
				got, err = sh.RunBlockPasses(src, 1)
				return err
			}); err != nil {
				return nil, nil, err
			}
			if replayStats(got) != replayStats(res) || got.TotalTimePS != res.TotalTimePS {
				gate = append(gate, fmt.Errorf("sharded x2 replay diverges from scalar:\n got %+v\nwant %+v", replayStats(got), replayStats(res)))
			}
		}
	}
	n := float64(counts.Accesses)
	m["tracesim.l2_hit_ratio"] = float64(counts.L2.Hits) / float64(counts.L2.Hits+counts.L2.Misses)
	m["tracesim.mcdram_hit_ratio"] = float64(counts.MemCache.Hits) / float64(max(counts.MemCache.Hits+counts.MemCache.Misses, 1))
	m["tracesim.mem_lines_per_access"] = float64(counts.MemReads+counts.MemWrites) / n
	m["tracesim.prefetch_per_access"] = float64(counts.Prefetches) / n

	// The simulator's parts: L2 probe, prefetcher, MCDRAM tags.
	if err := b.probeCache(rec, streams); err != nil {
		return nil, nil, err
	}
	if err := b.probeStore(rec); err != nil {
		return nil, nil, err
	}
	if err := b.probeJournal(rec); err != nil {
		return nil, nil, err
	}
	if err := b.probeService(ctx, rec); err != nil {
		return nil, nil, err
	}
	if err := b.probeEngines(ctx, rec, streams[:3], m, &gate); err != nil {
		return nil, nil, err
	}
	return m, gate, nil
}

// probeCache times the simulator's parts on their own streams: every
// line through an L2 at 7210 geometry, then the L2-miss stream through
// the stream prefetcher and the scaled MCDRAM memory-side cache.
func (b *bench) probeCache(rec *recorder, streams [][]tracesim.Access) error {
	chip := knl.KNL7210()
	newL2 := func() (*cache.SetAssoc, error) {
		return cache.NewSetAssoc("L2", chip.L2PerTile, chip.L2Assoc, units.CacheLine)
	}
	l2, err := newL2()
	if err != nil {
		return err
	}
	var lines, misses []tracesim.Access
	for _, accs := range streams {
		for _, a := range accs {
			line := tracesim.Access{Addr: a.Addr / lineBytes, Kind: a.Kind}
			lines = append(lines, line)
			if hit, _, _ := l2.AccessLine(line.Addr, line.Kind); !hit {
				misses = append(misses, line)
			}
		}
	}
	if l2, err = newL2(); err != nil {
		return err
	}
	if err := layer(rec, "cache.SetAssoc.AccessLine", float64(len(lines)), func() error {
		for _, l := range lines {
			l2.AccessLine(l.Addr, l.Kind)
		}
		return nil
	}); err != nil {
		return err
	}
	pf := cache.NewStreamPrefetcher(16, 8, units.CacheLine)
	if err := layer(rec, "cache.StreamPrefetcher.ObserveLines", float64(len(misses)), func() error {
		for i, l := range misses {
			pf.ObserveLines(l.Addr, uint64(i))
		}
		return nil
	}); err != nil {
		return err
	}
	mc, err := cache.NewMemSideCache(chip.MCDRAM.Capacity>>10, units.CacheLine)
	if err != nil {
		return err
	}
	return layer(rec, "cache.MemSideCache.AccessLine", float64(len(misses)), func() error {
		for _, l := range misses {
			mc.AccessLine(l.Addr, l.Kind)
		}
		return nil
	})
}

// probeStore times ingest per upload format, the block encoder alone,
// and the block decoder, on upload-campaign's traces.
func (b *bench) probeStore(rec *recorder) error {
	us, err := specFor(wUploadCampaign, nproc())
	if err != nil {
		return err
	}
	st, err := tracestore.Open(filepath.Join(b.work, "probe-traces"))
	if err != nil {
		return err
	}
	var ids []string
	for i, ts := range us.Traces {
		accs := generate(ts, b.seed*8+int64(i))
		format, body := "ndjson", ndjson(accs)
		switch i % 3 {
		case 1:
			format, body = "csv", csvBody(accs)
		case 2:
			format, body = "gzip", gzipped(body)
		}
		var meta tracestore.Meta
		if err := layer(rec, "tracestore.Store.Ingest/"+format, float64(len(accs)), func() (err error) {
			meta, _, err = st.Ingest(bytes.NewReader(body), 1<<30)
			return err
		}); err != nil {
			return err
		}
		ids = append(ids, meta.ID)
		if err := layer(rec, "tracestore.Encoder", float64(len(accs)), func() error {
			enc := tracestore.NewEncoder(io.Discard)
			for _, a := range accs {
				enc.Append(a)
			}
			_, _, err := enc.Finish()
			return err
		}); err != nil {
			return err
		}
	}
	for _, id := range ids {
		prov, err := st.Open(id)
		if err != nil {
			return err
		}
		br := prov.Blocks()
		n := 0
		err = layer(rec, "tracestore.BlockReader.NextBlock", float64(prov.Meta().Accesses), func() error {
			for {
				blk, ok := br.NextBlock()
				if !ok {
					return br.Err()
				}
				n += len(blk)
			}
		})
		prov.Close()
		if err != nil {
			return err
		}
		if int64(n) != prov.Meta().Accesses {
			return fmt.Errorf("decoded %d of %d accesses", n, prov.Meta().Accesses)
		}
	}
	return nil
}

// probeJournal times one fsync'd journal append and one durable result
// put.
func (b *bench) probeJournal(rec *recorder) error {
	j, _, err := journal.Open(filepath.Join(b.work, "probe-journal"))
	if err != nil {
		return err
	}
	const n = 100
	err = layer(rec, "journal.Journal.Append", n, repeat(n, func(i int) error {
		return j.Append(journal.Entry{State: journal.StateAccepted, Job: fmt.Sprintf("j%06d", i), Kind: "campaign", Key: fmt.Sprintf("%064d", i), Time: time.Now()})
	}))
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res, err := journal.OpenResults(filepath.Join(b.work, "probe-results"))
	if err != nil {
		return err
	}
	v := service.RunResponse{Workload: "STREAM", Config: "hbm", Size: "8GB", Threads: 64, SKU: "7210", Fidelity: "model", Metric: "GB/s", Value: 412.5}
	return layer(rec, "journal.Results.Put", n, repeat(n, func(i int) error {
		return res.Put("run", fmt.Sprintf("%064d", i), v)
	}))
}

// probeService drives an in-process durable server's handler: warm
// hits, cold model runs (with their fsync'd result put), the bare
// middleware chain (GET /healthz), and JSON round trips of the
// response types.
func (b *bench) probeService(ctx context.Context, rec *recorder) error {
	srv, _, err := service.NewDurableServer(service.Options{DataDir: filepath.Join(b.work, "probe-simd")})
	if err != nil {
		return err
	}
	// Nothing is queued on the probe server, so Close cannot fail.
	defer func() { _ = srv.Close(ctx) }()
	h := srv.Handler()
	serve := func(method, path, body string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, w.Code, w.Body.String())
		}
		return w, nil
	}
	const warmBody = `{"workload":"STREAM","config":"hbm","size":"8GB","threads":64}`
	first, err := serve(http.MethodPost, "/v1/run", warmBody)
	if err != nil {
		return err
	}
	if err := layer(rec, "service.ServeHTTP/warm", 1000, repeat(1000, func(int) error {
		_, err := serve(http.MethodPost, "/v1/run", warmBody)
		return err
	})); err != nil {
		return err
	}
	if err := layer(rec, "service.ServeHTTP/cold-run", 300, repeat(300, func(i int) error {
		_, err := serve(http.MethodPost, "/v1/run", fmt.Sprintf(`{"workload":"%s","config":"dram","size":"%dMB","threads":64}`, cpWorkloads[i%len(cpWorkloads)], 4096+i))
		return err
	})); err != nil {
		return err
	}
	if err := layer(rec, "obs.Chain/healthz", 2000, repeat(2000, func(int) error {
		_, err := serve(http.MethodGet, "/healthz", "")
		return err
	})); err != nil {
		return err
	}
	var run service.RunResponse
	if err := json.Unmarshal(first.Body.Bytes(), &run); err != nil {
		return err
	}
	replay := service.ReplayResponse{Config: "cache", SKU: "7210", Passes: 1, Metric: "ns/access", Value: 97.25, Stats: service.ReplayStats{Accesses: 1 << 20, L2Hits: 123456}}
	camp := service.CampaignResponse{Job: service.JobInfo{ID: "j000001", Kind: "campaign", State: service.JobDone}, Result: &service.CampaignResult{Points: 2, Results: []service.RunResponse{run, run}}}
	return layer(rec, "service.JSON", 3000, repeat(1000, func(int) error {
		for _, v := range []any{&run, &replay, &camp} {
			buf, err := json.Marshal(v)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(buf, v); err != nil {
				return err
			}
		}
		return nil
	}))
}

// probeEngines times the analytic engines behind the control plane,
// campaign expansion and tables, and the paper-verification harness
// (which must pass all its checks).
func (b *bench) probeEngines(ctx context.Context, rec *recorder, streams [][]tracesim.Access, m map[string]float64, gate *[]error) error {
	sys, err := core.NewSystem()
	if err != nil {
		return err
	}
	models := sys.Workloads()
	if err := layer(rec, "engine.Predict", 3000, repeat(3000, func(i int) error {
		_, err := models[i%len(models)].Predict(sys.Machine, engine.DRAM, units.MB(float64(1024+i)), 64)
		var nofit engine.ErrDoesNotFit
		if errors.As(err, &nofit) {
			err = nil
		}
		return err
	})); err != nil {
		return err
	}
	exec := service.NewExecutor()
	if err := layer(rec, "placement.Advise", 200, repeat(200, func(i int) error {
		_, err := exec.RunPoint(ctx, campaign.Point{Workload: cpWorkloads[i%len(cpWorkloads)], Size: units.MB(float64(512 + i)), Threads: 64, SKU: campaign.DefaultSKU, Fidelity: campaign.FidelityAdvise})
		return err
	})); err != nil {
		return err
	}
	cl, err := cluster.New(sys.Machine, 4, cluster.Aries())
	if err != nil {
		return err
	}
	mdl, err := sys.Workload("MiniFE")
	if err != nil {
		return err
	}
	if err := layer(rec, "cluster.Iterate", 1000, repeat(1000, func(i int) error {
		_, err := cl.Iterate(mdl, units.MB(float64(8192+i)), 64)
		return err
	})); err != nil {
		return err
	}
	spec := campaign.Spec{Workloads: []string{"STREAM", "GUPS"}, Configs: configs, Sizes: []string{"2GB", "8GB", "16GB", "32GB"}}
	if err := layer(rec, "campaign.Spec.Expand", 1000, repeat(1000, func(int) error {
		_, _, err := spec.Expand()
		return err
	})); err != nil {
		return err
	}
	// The tables of a 12-point replay campaign, from reference results.
	var outcomes []campaign.Outcome
	for i, accs := range streams {
		id := fmt.Sprintf("%064d", i)
		for _, c := range configs {
			cfg, err := hierarchy(b.refs.exec, "7210", c)
			if err != nil {
				return err
			}
			mc, _ := engine.ParseConfig(c)
			sim, err := tracesim.New(cfg)
			if err != nil {
				return err
			}
			res, err := sim.RunBlockPasses(blocksOf(accs[:1<<14]), 1)
			if err != nil {
				return err
			}
			outcomes = append(outcomes, campaign.Outcome{
				Point:  campaign.Point{TraceID: id, Config: mc, SKU: "7210", Fidelity: campaign.FidelityReplay},
				Metric: "ns/access", Value: res.AvgLatencyNS(),
				Trace: &campaign.TraceStats{Accesses: res.Accesses, AvgLatencyNS: res.AvgLatencyNS()},
			})
		}
	}
	if err := layer(rec, "campaign.Tables", 1000, repeat(1000, func(int) error {
		if len(campaign.Tables(outcomes)) == 0 {
			return errors.New("no tables")
		}
		return nil
	})); err != nil {
		return err
	}
	var failed int
	var gerr error
	if err := layer(rec, "harness.VerifyAllN", 1, func() (err error) {
		failed, gerr, err = verifyPaper()
		return err
	}); err != nil {
		return err
	}
	m["harness.checks_failed"] = float64(failed)
	if gerr != nil {
		*gate = append(*gate, gerr)
	}
	return nil
}
