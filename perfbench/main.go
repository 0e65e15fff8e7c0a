// Command perfbench is the repository's end-to-end benchmark. It
// starts the real cmd/simd as a separate process on loopback with a
// fresh on-disk data directory, drives it over HTTP with the service's
// Go client (retries disabled, so a 429 or 503 counts as a failure),
// checks every timed response against an in-process computation, and
// prints one JSON result line.
//
//	perfbench -simd <simd binary> -workload replay-serial -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of one workload;
// with -trace 1 it times each layer's public functions in-process,
// runs every workload briefly untraced and traced, and reports the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// bench is one invocation's settings and shared state.
type bench struct {
	simdBin string
	work    string // data directories and scratch files, removed at exit
	out     string // spans and profiles, kept
	seed    int64
	dur     time.Duration
	refs    *references
	pace    *pacer
	reqSeq  atomic.Int64 // X-Request-Id sequence of traced requests
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: replay-serial, upload-campaign or control-plane")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	simdBin := flag.String("simd", "", "path of the simd binary to benchmark")
	out := flag.String("out", ".bench_build/out", "directory for spans, profiles and scratch data")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *simdBin == "" {
		return fail(errors.New("-simd is required"))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	sp, err := specFor(*workload, nproc())
	if err != nil {
		return fail(err)
	}
	if err := sp.Validate(nproc()); err != nil {
		return fail(fmt.Errorf("workload %s: %w", sp.Workload, err))
	}
	absOut, err := filepath.Abs(*out)
	if err != nil {
		return fail(err)
	}
	b := &bench{
		simdBin: *simdBin,
		out:     absOut,
		work:    filepath.Join(absOut, fmt.Sprintf("run-%d", os.Getpid())),
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		refs:    newReferences(),
		pace:    newPacer(),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := environment(b.work)
	env["seed"] = *seed
	var res result
	var detail map[string]float64
	var gateErr error
	if *trace == 0 {
		var o *outcome
		o, err = b.runWorkload(ctx, sp, phase{dur: b.dur, setups: setupReps, setupBudget: setupBudget})
		if err == nil {
			var gerr error
			if _, gerr, err = verifyPaper(); gerr != nil {
				o.mismatch(gerr)
			}
			res, detail, gateErr = o.endToEnd()
			env["simd_gomaxprocs"] = o.simdProcs
		}
	} else {
		res, detail, gateErr, err = b.traced(ctx, sp, env)
	}
	if err != nil {
		return fail(err)
	}
	// A gate failure is reported through "correct", not the exit code:
	// the run itself completed.
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", gateErr)
	}
	res.Correct = gateErr == nil
	line, err := json.Marshal(map[string]any{"workload": sp.Workload, "trace": *trace, "environment": env, "detail": detail})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// phase is how one workload run is driven: for how long, and, in the
// traced run, with which recorder and profile.
type phase struct {
	dur         time.Duration
	setups      int           // minimum set-ups before the timed part
	setupBudget time.Duration // set up again until this much time is spent
	spans       *recorder     // nil: untraced
	profile     string        // where to save simd's CPU profile of the timed window ("": none)
}

// runWorkload runs the named workload.
func (b *bench) runWorkload(ctx context.Context, sp spec, ph phase) (*outcome, error) {
	switch sp.Workload {
	case wReplaySerial:
		return b.replaySerial(ctx, sp, ph)
	case wUploadCampaign:
		return b.uploadCampaign(ctx, sp, ph)
	case wControlPlane:
		return b.controlPlane(ctx, sp, ph)
	}
	return nil, fmt.Errorf("unknown workload %q", sp.Workload)
}

// outcome is what one workload run measured.
type outcome struct {
	primary   latencies // the workload's unit of work (p50_ms)
	setups    []float64 // seconds per set-up
	rssMB     float64   // simd peak RSS
	simdProcs int       // simd's GOMAXPROCS
	attempted int
	failed    int
	gateMu    sync.Mutex
	gate      []error // correctness mismatches; guarded by gateMu
	// detail holds the workload's metrics under their own names
	// (replay_p50_ms, cp_max_rps, ...), with sample counts.
	detail map[string]float64
	// counters are /metrics deltas over the timed window (traced only).
	counters map[string]float64
	// queueMS are the job queue waits of campaigns submitted.
	queueMS []float64
	// simdCPU is simd's CPU time inside the timed windows; units counts
	// the units of work done there.
	simdCPU time.Duration
	units   int
	// steal and ticks are the host's stolen and total CPU ticks over
	// the timed windows.
	steal, ticks int64
	// pace holds the host-pace probe's times (ms), taken between timed
	// requests.
	pace []float64
}

// probe times the host-pace probe once, outside any timed request.
func (b *bench) probe(o *outcome) {
	o.pace = append(o.pace, b.pace.probe())
}

// window measures simd's CPU time and the host's steal over one timed
// window. Opening one first collects perfbench's own garbage, so its
// collector does not run inside the window.
type window struct {
	srv      *simd
	cpu      time.Duration
	steal, t int64
}

func openWindow(srv *simd) (window, error) {
	runtime.GC()
	cpu, err := srv.cpu()
	s, t := stealTicks()
	return window{srv, cpu, s, t}, err
}

// close adds the window's CPU time and units of work to o.
func (w window) close(o *outcome, units int) error {
	cpu, err := w.srv.cpu()
	s, t := stealTicks()
	o.simdCPU += cpu - w.cpu
	o.units += units
	o.steal += s - w.steal
	o.ticks += t - w.t
	return err
}

func newOutcome() *outcome {
	return &outcome{detail: make(map[string]float64), counters: make(map[string]float64)}
}

// mismatch records a correctness failure.
func (o *outcome) mismatch(err error) {
	o.gateMu.Lock()
	defer o.gateMu.Unlock()
	if len(o.gate) < 8 {
		o.gate = append(o.gate, err)
	}
}

// endToEnd renders the outcome as the end-to-end result.
func (o *outcome) endToEnd() (result, map[string]float64, error) {
	s := o.primary.summary()
	cpuOp := ms(o.simdCPU) / float64(max(o.units, 1))
	pace := median(o.pace)
	o.detail["p50_ms"] = s["p50_ms"]
	o.detail["cpu_ms_op"] = cpuOp
	o.detail["pace_ms"] = pace
	o.detail["pace_n"] = float64(len(o.pace))
	o.detail["fail_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.detail["p90_ms"] = s["p90_ms"]
	o.detail["p99_ms"] = s["p99_ms"]
	o.detail["primary_n"] = s["n"]
	o.detail["setups_n"] = float64(len(o.setups))
	o.detail["units_n"] = float64(o.units)
	o.detail["steal_frac"] = float64(o.steal) / float64(max(o.ticks, 1))
	return result{
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(o.setups), "s"},
			"rss_peak_mb":     {o.rssMB, "MB"},
			"p50_paced_ms":    {s["p50_ms"] * paceRefMS / pace, "ms"},
			"cpu_paced_ms_op": {cpuOp * paceRefMS / pace, "ms"},
		},
	}, o.detail, errors.Join(o.gate...)
}

// client builds the benchmark's HTTP client for one simd: at most
// conns connections, no retries.
func client(url string, conns int) *service.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &service.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1}
}
