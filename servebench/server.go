package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
)

// serverFlags are the documented production flags (docs/SERVING.md):
// a 200000-state compile cap and the default 1024-plan LRU. The
// address is an ephemeral loopback port the server reports on stdout.
var serverFlags = []string{"-addr", "127.0.0.1:0", "-max-states", "200000"}

// server is one cmd/serve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec
	done    chan struct{}
	waitErr error
}

// procs tracks every child still running, so every exit path of the
// benchmark can stop them.
var procs struct {
	sync.Mutex
	live map[*server]bool
}

// startServer execs the server binary and returns once it reports its
// listening address. Its output goes to logPath.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string{}, serverFlags...), extra...)...)
	cmd.Stderr = logf
	// If the benchmark dies without running its deferred stops (a
	// panic on another goroutine), the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*server]bool{}
	}
	procs.live[s] = true
	procs.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				addrc <- strings.TrimSpace(a)
			}
		}
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		s.forget()
		return nil, fmt.Errorf("server exited before listening (%v); see %s", s.waitErr, logPath)
	case <-time.After(60 * time.Second):
		s.stop(0)
		return nil, fmt.Errorf("server did not listen within 60s; see %s", logPath)
	}
}

func (s *server) forget() {
	procs.Lock()
	delete(procs.live, s)
	procs.Unlock()
}

// stopGrace is how long a server may take to shut down after SIGTERM
// (it drains requests and flushes its plan store) before it is killed.
const stopGrace = 15 * time.Second

// stop sends SIGTERM, waits up to grace for the exit, then kills the
// process and waits for it.
func (s *server) stop(grace time.Duration) {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(grace):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.forget()
}

// stopAll stops every child still running; grace is as for stop.
func stopAll(grace time.Duration) {
	procs.Lock()
	live := make([]*server, 0, len(procs.live))
	for s := range procs.live {
		live = append(live, s)
	}
	procs.Unlock()
	for _, s := range live {
		s.stop(grace)
	}
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

var probeClient = &http.Client{Timeout: 10 * time.Second}

// waitReady polls GET /readyz until it answers 200 and returns its body.
func (s *server) waitReady() (map[string]any, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := probeClient.Get(s.url("/readyz"))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var out map[string]any
				if err := json.Unmarshal(body, &out); err != nil {
					return nil, fmt.Errorf("readyz: %w", err)
				}
				return out, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited while warming: %v", s.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready after 90s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metrics scrapes GET /metrics into name → value (Prometheus names).
func (s *server) metrics() (map[string]float64, error) {
	resp, err := probeClient.Get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTime returns the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine's CPUs so far (the steal column of /proc/stat, all CPUs
// together); 0 where the kernel does not report it.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	st, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(st) * time.Second / clockTicks
}

// rssPeakMB returns the server's peak resident set (VmHWM) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
