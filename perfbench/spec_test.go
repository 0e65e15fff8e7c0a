package main

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestWorkloadSpecsValidate(t *testing.T) {
	for _, name := range workloadNames {
		s, err := specFor(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(2); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := specFor("bogus", 2); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*spec)
		want   string
	}{
		{"unknown pattern", func(s *spec) { s.Traces[0].Pattern = "zigzag" }, `unknown pattern "zigzag"`},
		{"zero accesses", func(s *spec) { s.Traces[0].Accesses = 0 }, "accesses 0 must be positive"},
		{"zero rate", func(s *spec) { s.Rates["lo"] = 0 }, "rate lo"},
		{"negative rate", func(s *spec) { s.Rates["hi"] = -5 }, "rate hi"},
		{"more conns than nproc", func(s *spec) { s.Conns = 3 }, "conns: 3 outside [1, nproc=2]"},
		{"no conns", func(s *spec) { s.Conns = 0 }, "conns: 0"},
		{"bare hybrid", func(s *spec) { s.Configs = append(s.Configs, "hybrid") }, `config "hybrid"`},
		{"unknown config", func(s *spec) { s.Configs = []string{"optane"} }, `config "optane"`},
		{"unknown sku", func(s *spec) { s.SKUs = []string{"9999"} }, `sku "9999"`},
		{"advise past the DDR node", func(s *spec) { s.AdviseMax = 97 * units.GiB }, "exceed the"},
		{"write share above one", func(s *spec) { s.Traces[0].WriteFrac = 1.5 }, "fractions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := specFor(wControlPlane, 2)
			if err != nil {
				t.Fatal(err)
			}
			s.Traces = append([]traceSpec(nil), s.Traces...)
			s.Rates = map[string]float64{"lo": s.Rates["lo"], "hi": s.Rates["hi"]}
			tc.mutate(&s)
			err = s.Validate(2)
			if err == nil {
				t.Fatalf("accepted; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, err := specFor(wReplaySerial, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range s.Traces {
		ts.Accesses = 4096
		a, b, c := generate(ts, 7), generate(ts, 7), generate(ts, 8)
		idA, _ := contentID(a)
		idB, _ := contentID(b)
		idC, _ := contentID(c)
		if idA != idB {
			t.Errorf("%s: same seed, different streams", ts.Name)
		}
		if idA == idC {
			t.Errorf("%s: different seeds, same stream", ts.Name)
		}
		for _, x := range a {
			if off := x.Addr - a[0].Addr&^(1<<32-1); off >= uint64(ts.Footprint) {
				t.Fatalf("%s: address %#x outside the %d-byte footprint", ts.Name, x.Addr, ts.Footprint)
			}
		}
	}
}
