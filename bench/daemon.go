package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bundling/client"
)

// binaries are the daemons built from the working tree.
type binaries struct {
	bundled, worker string
}

// buildDaemons builds cmd/bundled and cmd/bundleworker from the repository
// at root into dir/bin. It is never timed.
func buildDaemons(root, dir string) (binaries, error) {
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/bundled", "./cmd/bundleworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("build daemons: %v\n%s", err, out)
	}
	return binaries{bundled: filepath.Join(bin, "bundled"), worker: filepath.Join(bin, "bundleworker")}, nil
}

// proc is one running daemon, its stderr and stdout going to a log file.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// live tracks every started daemon, so a signal or a fatal error can stop
// them all before the bench exits.
var live struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

func startProc(bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The kernel kills the daemon if the bench dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon is not a result
		lf.Close()
		close(p.done)
	}()
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// pause stops the processes with SIGSTOP, in order, and returns once every
// thread of each has stopped.
func pause(ps []*proc) error {
	for _, p := range ps {
		if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
			resume(ps)
			return fmt.Errorf("pause %s: %w", filepath.Base(p.cmd.Path), err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, p := range ps {
		for {
			stopped, err := procStopped(p.pid())
			if err != nil {
				resume(ps)
				return fmt.Errorf("pause %s: %w", filepath.Base(p.cmd.Path), err)
			}
			if stopped {
				break
			}
			if time.Now().After(deadline) {
				resume(ps)
				return fmt.Errorf("pause %s: still running after 2s", filepath.Base(p.cmd.Path))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// resume continues paused processes in reverse order: a fleet's workers
// before the coordinator that calls them.
func resume(ps []*proc) {
	for i := len(ps) - 1; i >= 0; i-- {
		_ = ps[i].cmd.Process.Signal(syscall.SIGCONT) // an exited process needs no resuming
	}
}

// stop sends SIGTERM (the daemons drain and flush their store), escalates
// to SIGKILL after 20 s, and returns once the process has ended.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	_ = p.cmd.Process.Signal(syscall.SIGCONT) // a paused daemon acts on SIGTERM only once continued
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// newHTTPClient is the bench's one HTTP client: at most two connections to
// any daemon, so a workload's load never exceeds two in-flight requests.
func newHTTPClient(wrap func(http.RoundTripper) http.RoundTripper) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}, tr
}

// waitHealthy polls base/healthz until it answers 200, the process exits
// or 15 s pass.
func waitHealthy(hc *http.Client, base string, p *proc) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", base, p.log.Name())
		}
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return fmt.Errorf("%s not healthy after 15s: %w", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleet is one booted deployment: bundled, and for fleet workloads its
// bundleworkers.
type fleet struct {
	bundled *proc
	workers []*proc
	waddrs  []string
	base    string
	c       *client.Client
}

// bootWorkers starts n bundleworkers and waits for them to serve.
func bootWorkers(bins binaries, hc *http.Client, n int, dir string) ([]*proc, []string, error) {
	var ps []*proc
	var addrs []string
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return ps, addrs, err
		}
		p, err := startProc(bins.worker, []string{"-addr", addr}, filepath.Join(dir, fmt.Sprintf("bundleworker%d.log", i)))
		if err != nil {
			return ps, addrs, err
		}
		ps = append(ps, p)
		addrs = append(addrs, addr)
	}
	for i, p := range ps {
		if err := waitHealthy(hc, "http://"+addrs[i], p); err != nil {
			return ps, addrs, err
		}
	}
	return ps, addrs, nil
}

// boot starts a deployment for wl with a fresh data dir under dir and the
// daemons' shipped defaults otherwise.
func boot(bins binaries, hc *http.Client, wl workload, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	args := []string{"-data-dir", filepath.Join(dir, "data")}
	if wl.fleet {
		var err error
		f.workers, f.waddrs, err = bootWorkers(bins, hc, 2, dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		args = append(args, "-workers", strings.Join(f.waddrs, ","))
	}
	addr, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.bundled, err = startProc(bins.bundled, append([]string{"-addr", addr}, args...), filepath.Join(dir, "bundled.log"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.base = "http://" + addr
	if err := waitHealthy(hc, f.base, f.bundled); err != nil {
		f.stop()
		return nil, err
	}
	f.c = client.New(f.base, hc)
	return f, nil
}

// procs lists the deployment's processes, the coordinator first.
func (f *fleet) procs() []*proc {
	return append([]*proc{f.bundled}, f.workers...)
}

// stop stops the deployment and waits for every process to end.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.bundled.stop()
	for _, w := range f.workers {
		w.stop()
	}
}

// waitFed polls the coordinator's fleet view until the workers hold want
// spans in all — the eager span feeds of every uploaded corpus have landed.
func waitFed(ctx context.Context, c *client.Client, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		fr, err := c.Fleet(ctx)
		if err != nil {
			return fmt.Errorf("fleet view: %w", err)
		}
		have := 0
		for _, w := range fr.Workers {
			have += len(w.Spans)
		}
		if have >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("span feeds did not land within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
