package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
)

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"tracesim.dram_ns", "ns"}, {"tracesim.hbm_ns", "ns"}, {"tracesim.cache_ns", "ns"}, {"tracesim.hybrid_ns", "ns"},
	{"tracesim.sharded2_ns", "ns"},
	{"tracesim.l2_hit_ratio", "ratio"}, {"tracesim.mcdram_hit_ratio", "ratio"},
	{"tracesim.mem_lines_per_access", "lines/access"}, {"tracesim.prefetch_per_access", "lines/access"},
	{"cache.l2_ns", "ns"}, {"cache.prefetch_ns", "ns"}, {"cache.mcdram_ns", "ns"},
	{"tracestore.ingest_ndjson_ns", "ns"}, {"tracestore.ingest_csv_ns", "ns"}, {"tracestore.ingest_gzip_ns", "ns"},
	{"tracestore.encode_ns", "ns"}, {"tracestore.decode_ns", "ns"},
	{"journal.append_us", "us"}, {"journal.put_us", "us"},
	{"journal.appends_per_req", "count/req"}, {"journal.puts_per_req", "count/req"},
	{"service.serve_warm_us", "us"}, {"service.serve_cold_run_us", "us"}, {"obs.chain_us", "us"},
	{"service.json_us", "us"}, {"http.transport_us", "us"},
	{"service.queue_wait_ms", "ms"}, {"service.cache_hit_ratio", "ratio"},
	{"engine.predict_us", "us"}, {"placement.advise_us", "us"}, {"cluster.iterate_us", "us"},
	{"campaign.expand_us", "us"}, {"campaign.tables_us", "us"},
	{"harness.verify_ms", "ms"}, {"harness.checks_failed", "count"},
	{"simd.gc_cycles", "count"}, {"loadgen.late_p99_ms", "ms"},
	{"trace.unattributed_replay", "ratio"}, {"trace.unattributed_upload", "ratio"},
	{"trace.unattributed_campaign", "ratio"}, {"trace.unattributed_cp", "ratio"},
	{"trace.overhead_frac", "ratio"}, {"fail_frac", "ratio"},
}

// traced is the per-layer run: the in-process layer probes, then every
// workload for a quarter of the measured time (at least 3 s) untraced
// and again traced. The requested workload's traced window is the one
// profiled and metered. Spans and the CPU profile are written under
// the output directory.
func (b *bench) traced(ctx context.Context, sp spec, env map[string]any) (result, map[string]float64, error, error) {
	rec := &recorder{}
	m, gate, err := b.probes(ctx, rec)
	if err != nil {
		return result{}, nil, nil, err
	}
	short := max(b.dur/4, 3*time.Second)
	plain := make(map[string]*outcome)
	traced := make(map[string]*outcome)
	detail := make(map[string]float64)
	var res result
	for _, name := range workloadNames {
		wsp, err := specFor(name, nproc())
		if err != nil {
			return result{}, nil, nil, err
		}
		u, err := b.runWorkload(ctx, wsp, phase{dur: short, setups: 1})
		if err != nil {
			return result{}, nil, nil, fmt.Errorf("%s untraced: %w", name, err)
		}
		ph := phase{dur: short, setups: 1, spans: rec}
		if name == sp.Workload {
			ph.profile = filepath.Join(b.out, fmt.Sprintf("%s-seed%d.cpu.pprof", name, b.seed))
			env["cpu_profile"] = ph.profile
		}
		t, err := b.runWorkload(ctx, wsp, ph)
		if err != nil {
			return result{}, nil, nil, fmt.Errorf("%s traced: %w", name, err)
		}
		plain[name], traced[name] = u, t
		for _, o := range []*outcome{u, t} {
			res.Attempted += o.attempted
			res.Failed += o.failed
			gate = append(gate, o.gate...)
		}
		for k, v := range u.detail {
			detail[name+"."+k] = v
		}
		env["simd_gomaxprocs"] = u.simdProcs
	}

	costs := rec.selfTimes()
	per := func(span string, unit time.Duration) float64 { return costs[span].perUnit(unit) }
	ns, us := time.Nanosecond, time.Microsecond
	simAvg := 0.0
	for _, c := range configs {
		short, _, _ := strings.Cut(c, ":")
		m["tracesim."+short+"_ns"] = per("tracesim.RunBlockPasses/"+short, ns)
		simAvg += m["tracesim."+short+"_ns"] / float64(len(configs))
	}
	m["tracesim.sharded2_ns"] = per("tracesim.Sharded2.RunBlockPasses", ns)
	m["cache.l2_ns"] = per("cache.SetAssoc.AccessLine", ns)
	m["cache.prefetch_ns"] = per("cache.StreamPrefetcher.ObserveLines", ns)
	m["cache.mcdram_ns"] = per("cache.MemSideCache.AccessLine", ns)
	ingestAvg := 0.0
	for _, f := range []string{"ndjson", "csv", "gzip"} {
		m["tracestore.ingest_"+f+"_ns"] = per("tracestore.Store.Ingest/"+f, ns)
		ingestAvg += m["tracestore.ingest_"+f+"_ns"] / 3
	}
	m["tracestore.encode_ns"] = per("tracestore.Encoder", ns)
	m["tracestore.decode_ns"] = per("tracestore.BlockReader.NextBlock", ns)
	m["journal.append_us"] = per("journal.Journal.Append", us)
	m["journal.put_us"] = per("journal.Results.Put", us)
	m["service.serve_warm_us"] = per("service.ServeHTTP/warm", us)
	m["service.serve_cold_run_us"] = per("service.ServeHTTP/cold-run", us)
	m["obs.chain_us"] = per("obs.Chain/healthz", us)
	m["service.json_us"] = per("service.JSON", us)
	m["engine.predict_us"] = per("engine.Predict", us)
	m["placement.advise_us"] = per("placement.Advise", us)
	m["cluster.iterate_us"] = per("cluster.Iterate", us)
	m["campaign.expand_us"] = per("campaign.Spec.Expand", us)
	m["campaign.tables_us"] = per("campaign.Tables", us)
	m["harness.verify_ms"] = per("harness.VerifyAllN", time.Millisecond)

	// A warm hit's closed-loop latency is the fixed cost of a request;
	// what the in-process handler does not explain of it is transport.
	warmUS := plain[wControlPlane].detail["warm_p50_ms"] * 1000
	m["http.transport_us"] = warmUS - m["service.serve_warm_us"]
	queue := append(append([]float64(nil), plain[wUploadCampaign].queueMS...), plain[wControlPlane].queueMS...)
	m["service.queue_wait_ms"] = median(queue)
	m["loadgen.late_p99_ms"] = plain[wControlPlane].detail["cp_hi_late_p99_ms"]
	w := traced[sp.Workload].counters
	reqs := max(w["requests"], 1)
	m["journal.appends_per_req"] = w["journal_entries"] / reqs
	m["journal.puts_per_req"] = w["results_stored"] / reqs
	m["service.cache_hit_ratio"] = w["cache_hits"] / max(w["cache_hits"]+w["cache_misses"], 1)
	m["simd.gc_cycles"] = w["gc_cycles"]
	m["fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))

	// The share of each request class's untraced median the layer self
	// times leave uncovered (negative when they over-explain it).
	unattributed := func(e2eUS, coveredUS float64) float64 { return 1 - coveredUS/e2eUS }
	rs, err := specFor(wReplaySerial, nproc())
	if err != nil {
		return result{}, nil, nil, err
	}
	ups, err := specFor(wUploadCampaign, nproc())
	if err != nil {
		return result{}, nil, nil, err
	}
	write := m["journal.put_us"]
	replayUS := func(accesses float64) float64 {
		return accesses*(m["tracestore.decode_ns"]+simAvg)/1000 + write
	}
	rd, ud := plain[wReplaySerial].detail, plain[wUploadCampaign].detail
	m["trace.unattributed_replay"] = unattributed(rd["replay_p50_ms"]*1000,
		replayUS(meanAccesses(rs.Traces))+warmUS)
	m["trace.unattributed_upload"] = unattributed(ud["upload_p50_ms"]*1000,
		meanAccesses(ups.Traces)*ingestAvg/1000+warmUS)
	workers := float64(max(plain[wUploadCampaign].simdProcs, 1))
	points := float64(len(ups.Traces) * len(ups.Configs))
	// A campaign job: expansion, its points, the job's journal records
	// and result, the tables, its queue wait and the request itself.
	jobUS := func(pointsUS, queueMS, requestUS float64) float64 {
		return m["campaign.expand_us"] + pointsUS + jobRecords*m["journal.append_us"] + write +
			m["campaign.tables_us"] + queueMS*1000 + requestUS
	}
	m["trace.unattributed_campaign"] = unattributed(ud["campaign_p50_s"]*1e6,
		jobUS(points*replayUS(meanAccesses(ups.Traces))/workers, median(plain[wUploadCampaign].queueMS), warmUS))
	// The control-plane mix at the lo rate, as the mix's weighted mean
	// of what each request kind costs in-process, plus transport.
	warm := m["service.serve_warm_us"]
	cost := map[int]float64{
		kColdRun:     m["service.serve_cold_run_us"],
		kColdAdvise:  m["placement.advise_us"] + write + warm,
		kColdCluster: float64(len(campaign.DefaultNodeCounts()))*m["cluster.iterate_us"] + write + warm,
		kWarm:        warm,
		kCampaign:    jobUS(float64(len(cpCampaignConfigs))*(m["engine.predict_us"]+write), m["service.queue_wait_ms"], warm),
		kJobGet:      warm,
	}
	cpUS := m["http.transport_us"]
	for _, k := range cpMix {
		cpUS += k.share * cost[k.kind]
	}
	m["trace.unattributed_cp"] = unattributed(plain[wControlPlane].detail["cp_lo_p50_ms"]*1000, cpUS)
	base := plain[sp.Workload].primary.summary()["p50_ms"]
	m["trace.overhead_frac"] = (traced[sp.Workload].primary.summary()["p50_ms"] - base) / base

	spans := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.spans.json", sp.Workload, b.seed))
	if err := rec.write(spans); err != nil {
		return result{}, nil, nil, err
	}
	env["spans"] = spans
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		res.Metrics[p.name] = metric{m[p.name], p.unit}
	}
	return res, detail, errors.Join(gate...), nil
}
