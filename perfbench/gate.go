package main

import (
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/tracesim"
	"repro/internal/units"
)

// The correctness gate: every response the benchmark times is checked
// against an in-process computation outside the timed region. A
// mismatch fails the run; it is never a metric.

// paperChecks is how many paper-versus-reproduction checks
// harness.VerifyAllN must pass.
const paperChecks = 34

// verifyPaper runs the paper-verification harness and returns how many
// checks failed, plus a gate error unless all paperChecks passed.
func verifyPaper() (failed int, gate, err error) {
	sys, err := core.NewSystem()
	if err != nil {
		return 0, nil, err
	}
	checks, err := harness.VerifyAllN(sys, 0)
	if err != nil {
		return 0, nil, err
	}
	for _, c := range checks {
		if !c.Pass {
			failed++
		}
	}
	if len(checks) != paperChecks || failed != 0 {
		gate = fmt.Errorf("harness.VerifyAllN: %d of %d checks failed, want 0 of %d", failed, len(checks), paperChecks)
	}
	return failed, gate, nil
}

// hierarchy maps a memory configuration onto the scaled functional
// hierarchy for a SKU: the mapping simd's replay path uses (1 MiB L2,
// MCDRAM scaled 1:1024), rebuilt here from public types so the gate
// does not trust the server's own code path.
func hierarchy(exec *service.Executor, sku, config string) (tracesim.Config, error) {
	mc, err := engine.ParseConfig(config)
	if err != nil {
		return tracesim.Config{}, err
	}
	sys, err := exec.System(sku)
	if err != nil {
		return tracesim.Config{}, err
	}
	chip := sys.Machine.Chip
	scaledMC := chip.MCDRAM.Capacity >> 10
	cfg := tracesim.DefaultConfig(0)
	cfg.L1Size, cfg.L1Ways = chip.L1DPerCore, chip.L1Assoc
	cfg.L2Size, cfg.L2Ways = chip.L2PerTile, chip.L2Assoc
	cfg.L2Lat = float64(chip.Cal.L2HitLatency)
	cfg.MemCacheLat = float64(chip.MCDRAM.IdleLatency)
	dram, hbm := float64(chip.DDR.IdleLatency), float64(chip.MCDRAM.IdleLatency)
	switch mc.Kind {
	case engine.BindDRAM:
		cfg.MemLat = dram
	case engine.BindHBM:
		cfg.MemLat = hbm
	case engine.InterleaveFlat:
		cfg.MemLat = (dram + hbm) / 2
	case engine.CacheMode:
		cfg.MemCache, cfg.MemLat = scaledMC, dram
	case engine.Hybrid:
		cfg.MemCache = units.Bytes(float64(scaledMC) * (1 - mc.HybridFlatFraction))
		cfg.MemLat = dram
	default:
		return tracesim.Config{}, fmt.Errorf("no replay mapping for config %q", config)
	}
	return cfg, nil
}

// replayStats is the wire form of a tracesim result (service.ReplayStats).
func replayStats(r tracesim.Result) service.ReplayStats {
	return service.ReplayStats{
		Accesses: r.Accesses,
		L1Hits:   r.L1.Hits, L1Misses: r.L1.Misses,
		L2Hits: r.L2.Hits, L2Misses: r.L2.Misses,
		MCHits: r.MemCache.Hits, MCMisses: r.MemCache.Misses,
		MemReads: r.MemReads, MemWrites: r.MemWrites,
		Prefetches:  r.Prefetches,
		TotalTimeNS: r.TotalTimeNS,
	}
}

// refKey names one reference replay.
type refKey struct{ trace, config, sku string }

// references computes scalar replays of streams in parallel on every
// CPU (outside any timed region) and keeps them by trace id, config
// and SKU.
type references struct {
	exec *service.Executor
	mu   sync.Mutex
	res  map[refKey]tracesim.Result
}

func newReferences() *references {
	return &references{exec: service.NewExecutor(), res: make(map[refKey]tracesim.Result)}
}

// compute replays every stream under every config × SKU. ids[i] is
// the content address of streams[i].
func (r *references) compute(streams [][]tracesim.Access, ids, cfgs, skus []string) error {
	type job struct {
		k    refKey
		accs []tracesim.Access
	}
	var jobs []job
	for i, accs := range streams {
		for _, c := range cfgs {
			for _, sku := range skus {
				jobs = append(jobs, job{refKey{ids[i], c, sku}, accs})
			}
		}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, nproc())
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j job) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg, err := hierarchy(r.exec, j.k.sku, j.k.config)
			if err != nil {
				errs[i] = err
				return
			}
			sim, err := tracesim.New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			// sliceGen has no NextBatch, so this is the per-access
			// Access loop, not the block path simd's replays take.
			res, err := sim.RunPasses(&sliceGen{accs: j.accs}, 1)
			if err != nil {
				errs[i] = err
				return
			}
			r.mu.Lock()
			r.res[j.k] = res
			r.mu.Unlock()
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
	}
	return nil
}

func (r *references) get(trace, config, sku string) (tracesim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.res[refKey{trace, config, sku}]
	return res, ok
}

// checkReplay compares a /v1/replay response with the scalar reference.
func (r *references) checkReplay(resp service.ReplayResponse, config, sku string) error {
	want, ok := r.get(resp.Trace.ID, config, sku)
	if !ok {
		return fmt.Errorf("replay %s/%s/%s: no reference", resp.Trace.ID[:12], config, sku)
	}
	if resp.Stats != replayStats(want) || resp.Value != want.AvgLatencyNS() {
		return fmt.Errorf("replay %s/%s/%s diverges from the scalar simulator:\n got %+v\nwant %+v",
			resp.Trace.ID[:12], config, sku, resp.Stats, replayStats(want))
	}
	return nil
}

// checkCampaignPoint compares one replay-fidelity campaign point with
// the scalar reference.
func (r *references) checkCampaignPoint(p service.RunResponse, sku string) error {
	// Points echo the canonical config spelling ("Hybrid(50% flat)").
	var name string
	for _, c := range configs {
		if m, _ := engine.ParseConfig(c); m.String() == p.Config {
			name = c
		}
	}
	want, ok := r.get(p.TraceID, name, sku)
	if !ok || p.Trace == nil {
		return fmt.Errorf("campaign point %s/%s: no reference or no stats", p.TraceID, p.Config)
	}
	ratio := func(h, m int64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	exp := campaign.TraceStats{
		Accesses:     want.Accesses,
		L1HitRate:    ratio(want.L1.Hits, want.L1.Misses),
		L2HitRate:    ratio(want.L2.Hits, want.L2.Misses),
		MCHitRate:    ratio(want.MemCache.Hits, want.MemCache.Misses),
		MemReads:     want.MemReads,
		MemWrites:    want.MemWrites,
		AvgLatencyNS: want.AvgLatencyNS(),
	}
	if *p.Trace != exp || p.Value != want.AvgLatencyNS() {
		return fmt.Errorf("campaign point %s/%s diverges from the scalar simulator:\n got %+v\nwant %+v", p.TraceID[:12], p.Config, *p.Trace, exp)
	}
	return nil
}
