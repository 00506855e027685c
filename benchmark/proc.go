package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one slimfast process under test.
type server struct {
	cmd  *exec.Cmd
	addr string // base URL, http://host:port
	out  *tailBuffer
	done chan struct{} // closed once the stdout reader hit EOF
}

// tailBuffer keeps the last bytes a process printed, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8192 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-4096:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startServer launches bin with args (which must include -listen
// 127.0.0.1:0), waits for the "# listening on" line and then for the
// first 200 from /v1/readyz, and returns the process and the set-up
// time from just before exec to that 200.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	// A server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, out: &tailBuffer{}, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.out, line)
			if a, ok := strings.CutPrefix(line, "# listening on "); ok && !sent {
				addrc <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, pr) // a line beyond the scanner's limit: keep draining
	}()
	select {
	case a := <-addrc:
		s.addr = "http://" + a
	case <-s.done:
		s.stop()
		return nil, 0, fmt.Errorf("%s exited before listening: %s", bin, s.out)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("%s did not listen within 60s: %s", bin, s.out)
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := probe.Get(s.addr + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(began), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("%s not ready within 90s: %s", bin, s.out)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop asks the process to drain and exit, kills it if it does not
// within 20 s, and waits until it has exited.
func (s *server) stop() error {
	if s == nil || s.cmd.Process == nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-s.done; exited <- s.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		return errors.Join(errors.New("killed after 20s"), <-exited)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns the CPU seconds the threads of pid have run, from
// /proc/<pid>/task/*/schedstat. Its nanosecond resolution is what lets
// sub-second windows measure CPU per op; utime and stime in
// /proc/<pid>/stat count 10 ms ticks.
func procCPU(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// resetPeakRSS sets pid's VmHWM back to its current RSS, so the next
// procPeakRSSMB reports the peak since this call.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procPeakRSSMB returns VmHWM of pid in MB (10^6 bytes).
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// stealTicks reads the aggregate cpu line of /proc/stat and returns
// (steal, total) ticks.
func stealTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: no aggregate cpu line")
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user/nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter measures host.steal_share: hypervisor steal ticks over
// all ticks between start and share.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t, _ := stealTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t, err := stealTicks()
	if err != nil || t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
