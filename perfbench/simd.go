package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// simd is one running server process on loopback with its own data
// directory, started with default flags plus -data.
type simd struct {
	cmd    *exec.Cmd
	URL    string
	Data   string
	log    *urlSniffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // exit status; read after exited closes
}

// startSimd launches bin on a free loopback port over a fresh data
// directory and returns once /healthz answers.
func startSimd(ctx context.Context, bin, data string) (*simd, error) {
	if err := os.RemoveAll(data); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	s := &simd{Data: data, log: &urlSniffer{found: make(chan string, 1)}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-data", data)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.log
	// simd must not outlive the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start simd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.URL = <-s.log.found:
	case <-s.exited:
		return nil, fmt.Errorf("simd exited before serving (%v): %s", s.err, s.log.tail())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("simd did not announce its address within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	c := service.NewClient(s.URL)
	c.MaxRetries = -1
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := c.Healthz(ctx); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("simd not healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks simd to drain (SIGTERM) and waits for it to exit, killing
// it if the drain takes longer than 20s.
func (s *simd) stop() error {
	if s == nil {
		return nil
	}
	// Signalling a process that already exited fails harmlessly; the
	// exit status below is what counts.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	return s.err
}

// status reads one "Key: value" field of /proc/<pid>/status.
func (s *simd) status(key string) (string, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc status", key)
}

// cpu is simd's CPU time so far, all threads, user plus system. The
// kernel leaves out time the hypervisor stole, so on a shared host this
// is steadier than wall time.
func (s *simd) cpu() (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields, in USER_HZ (100/s) ticks.
	f := strings.Fields(string(buf[bytes.LastIndexByte(buf, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stealTicks reads the host's stolen and total CPU ticks from /proc/stat.
func stealTicks() (steal, total int64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is simd's VmHWM in MiB.
func (s *simd) peakRSSMB() (float64, error) {
	v, err := s.status("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	return float64(kb) / 1024, err
}

// gomaxprocs is simd's GOMAXPROCS: simd runs without a GOMAXPROCS
// variable, so the runtime takes the size of its CPU affinity set.
func (s *simd) gomaxprocs() int {
	v, err := s.status("Cpus_allowed_list")
	if err != nil {
		return 0
	}
	return countCPUList(v)
}

// countCPUList counts the CPUs in a list like "0-3,6".
func countCPUList(list string) int {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// urlSniffer is simd's stderr: it picks the listen URL out of the
// "serving" log line and keeps the last few KiB for error reports.
type urlSniffer struct {
	mu    sync.Mutex
	line  []byte
	last  []byte
	found chan string
	sent  bool
}

func (u *urlSniffer) Write(p []byte) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.last = append(u.last, p...)
	if len(u.last) > 4096 {
		u.last = u.last[len(u.last)-4096:]
	}
	if u.sent {
		return len(p), nil
	}
	u.line = append(u.line, p...)
	for {
		i := bytes.IndexByte(u.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(u.line[:i])
		u.line = u.line[i+1:]
		if _, rest, ok := strings.Cut(line, "url="); ok && strings.Contains(line, "serving") {
			u.found <- strings.Trim(strings.Fields(rest)[0], `"`)
			u.sent = true
			u.line = nil
			return len(p), nil
		}
	}
}

func (u *urlSniffer) tail() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return string(u.last)
}

// scrape reads simd's /metrics into series → value, keyed by the
// series text as printed ("name{labels}").
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// family sums every series of one metric name (all label sets) whose
// labels contain match.
func family(m map[string]float64, name, match string) float64 {
	t := 0.0
	for k, v := range m {
		if (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, match) {
			t += v
		}
	}
	return t
}
