package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running fpserved process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// listenWatcher is fpserved's stdout: it hands the first line (the
// listen line) to ready and discards the rest.  exec writes to it from
// one goroutine.
type listenWatcher struct {
	buf   []byte
	sent  bool
	ready chan string // buffered 1: the one listen line
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.ready <- string(w.buf[:i])
			w.sent, w.buf = true, nil
		}
	}
	return len(p), nil
}

// startServer launches fpserved on a random loopback port and returns
// once a first conversion has answered correctly, with the time that
// took from exec.  Its stderr, one access-log line per request, goes to
// /dev/null (exec's default for a nil Stderr), so no pipe can fill and
// stall the server and the benchmark copies nothing.
func startServer(bin string, args ...string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	lw := &listenWatcher{ready: make(chan string, 1)}
	cmd.Stdout = lw
	// The server dies with the benchmark, whatever ends the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start fpserved: %w", err)
	}
	s := &server{cmd: cmd}
	var line string
	select {
	case line = <-lw.ready:
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("fpserved printed no listen line within 30s")
	}
	addr, ok := strings.CutPrefix(line, "fpserved listening on ")
	if !ok {
		s.stop()
		return nil, 0, fmt.Errorf("unexpected fpserved output %q", line)
	}
	s.base = "http://" + addr
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Get(s.base + "/v1/shortest?v=0.1")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && string(b) == "0.1\n" {
				return s, time.Since(t0), nil
			}
			s.stop()
			return nil, 0, fmt.Errorf("first conversion answered %d %q", resp.StatusCode, b)
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("fpserved did not answer within 30s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server and waits for it (and exec's stdout and
// stderr copiers) to end.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, which
// Linux fixes at 100 for user space).
const clockTick = 10 * time.Millisecond

// cpu is the server's user + system CPU time, all threads.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the server's VmHWM in MB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns a keep-alive client holding at most conns
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
}

// scrape reads /metrics as name{labels} → value.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// machineCPU reads the machine-wide CPU counters of /proc/stat: the
// time stolen by the hypervisor and the total, in clock ticks.  The
// benchmark prints the stolen share of the served phases, because a noisy
// neighbour explains a slow run that nothing in this repository does.
func machineCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
