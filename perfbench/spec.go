package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/engine"
	"repro/internal/knl"
	"repro/internal/units"
)

// Workload names; later changes cite them.
const (
	wReplaySerial   = "replay-serial"
	wUploadCampaign = "upload-campaign"
	wControlPlane   = "control-plane"
)

var workloadNames = []string{wReplaySerial, wUploadCampaign, wControlPlane}

// configs are the four memory modes every replay workload sweeps.
var configs = []string{"dram", "hbm", "cache", "hybrid:0.5"}

// spec is one workload's inputs: what it generates and how it drives
// simd. The seed is not part of it: the same spec runs with any seed.
type spec struct {
	Workload string
	// Conns bounds the client's open connections.
	Conns int
	// Traces are generated per pass (replay-serial), per iteration
	// (upload-campaign) or once as the warm trace (control-plane).
	Traces  []traceSpec
	Configs []string
	SKUs    []string
	// Rates are the open loop's fixed arrival rates (requests/s).
	Rates map[string]float64
	// AdviseMax bounds cold /v1/advise footprints.
	AdviseMax units.Bytes
}

// Fixed open-loop rates of control-plane: about 25% and 70% of the
// cp_max_rps measured on a 2-vCPU Xeon VM while its hypervisor stole a
// quarter to a half of its CPU (about 230 requests/s; 420-940 without
// steal), so a steal phase does not push the hi step past capacity.
const (
	cpLoRPS = 60
	cpHiRPS = 160
)

// specFor returns the named workload's spec for a machine with nproc
// CPUs.
func specFor(name string, nproc int) (spec, error) {
	mib := int64(units.MiB)
	switch name {
	case wReplaySerial:
		return spec{
			Workload: name, Conns: 1, Configs: configs,
			SKUs: []string{"7210", "7230", "7250", "7290"},
			Traces: []traceSpec{
				{Name: "seq", Pattern: "seq", Accesses: 1 << 20, Footprint: 8 * mib, WriteFrac: 0.25},
				{Name: "random", Pattern: "random", Accesses: 1 << 20, Footprint: 64 * mib, WriteFrac: 0.25},
				{Name: "chase", Pattern: "chase", Accesses: 1 << 20, Footprint: 4 * mib},
				{Name: "mixed", Pattern: "mixed", Accesses: 1 << 20, Footprint: 32 * mib, WriteFrac: 0.10, JumpFrac: 1.0 / 3},
			},
		}, nil
	case wUploadCampaign:
		return spec{
			Workload: name, Conns: 1, Configs: configs, SKUs: []string{"7210"},
			// Uploaded as NDJSON, CSV and gzip NDJSON respectively.
			Traces: []traceSpec{
				{Name: "seq", Pattern: "seq", Accesses: 1 << 18, Footprint: 8 * mib, WriteFrac: 0.25},
				{Name: "random", Pattern: "random", Accesses: 1 << 18, Footprint: 64 * mib, WriteFrac: 0.25},
				{Name: "mixed", Pattern: "mixed", Accesses: 1 << 18, Footprint: 32 * mib, WriteFrac: 0.10, JumpFrac: 1.0 / 3},
			},
		}, nil
	case wControlPlane:
		return spec{
			Workload: name, Conns: nproc, Configs: configs, SKUs: []string{"7210"},
			Rates:     map[string]float64{"lo": cpLoRPS, "hi": cpHiRPS},
			AdviseMax: 64 * units.GiB,
			Traces: []traceSpec{
				{Name: "warm", Pattern: "random", Accesses: 1 << 14, Footprint: 2 * mib, WriteFrac: 0.25},
			},
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// Validate reports every problem with the spec at once, so a bad spec
// fails before simd starts rather than as 400s mid-run.
func (s spec) Validate(nproc int) error {
	var errs []error
	if s.Conns < 1 || s.Conns > nproc {
		errs = append(errs, fmt.Errorf("conns: %d outside [1, nproc=%d]", s.Conns, nproc))
	}
	for _, t := range s.Traces {
		switch t.Pattern {
		case "seq", "random", "chase", "mixed":
		default:
			errs = append(errs, fmt.Errorf("trace %s: unknown pattern %q", t.Name, t.Pattern))
		}
		if t.Accesses <= 0 {
			errs = append(errs, fmt.Errorf("trace %s: accesses %d must be positive", t.Name, t.Accesses))
		}
		if t.Footprint < lineBytes {
			errs = append(errs, fmt.Errorf("trace %s: footprint %d below one line", t.Name, t.Footprint))
		}
		if t.WriteFrac < 0 || t.WriteFrac > 1 || t.JumpFrac < 0 || t.JumpFrac > 1 {
			errs = append(errs, fmt.Errorf("trace %s: fractions must lie in [0, 1]", t.Name))
		}
	}
	for _, c := range s.Configs {
		if _, err := engine.ParseConfig(c); err != nil {
			errs = append(errs, fmt.Errorf("config %q: %w", c, err))
		}
	}
	for _, sku := range s.SKUs {
		if _, err := knl.ChipForSKU(sku); err != nil {
			errs = append(errs, fmt.Errorf("sku %q: %w", sku, err))
		}
	}
	names := make([]string, 0, len(s.Rates))
	for n := range s.Rates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if r := s.Rates[n]; !(r > 0) {
			errs = append(errs, fmt.Errorf("rate %s: %v requests/s must be positive", n, r))
		}
	}
	if ddr := knl.KNL7210().DDR.Capacity; s.AdviseMax > ddr {
		errs = append(errs, fmt.Errorf("advise sizes up to %s exceed the %s DDR node", s.AdviseMax, ddr))
	}
	return errors.Join(errs...)
}

// nproc is the CPU count the client sizes itself by.
func nproc() int { return runtime.NumCPU() }
