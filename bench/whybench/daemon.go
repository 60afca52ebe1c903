package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// supervisor owns every daemon the harness starts, so that none outlives
// it: daemons run in their own process group, and killAll — deferred in
// main, and called on SIGINT, SIGTERM, SIGHUP and SIGPIPE — kills the groups
// that are left. (In prototyping the harness died on SIGPIPE and the next
// run silently measured the stale daemon.)
type supervisor struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func newSupervisor() *supervisor {
	s := &supervisor{live: make(map[*daemon]bool)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		got := <-sig
		s.killAll()
		fmt.Fprintf(os.Stderr, "whybench: %v: daemons killed, exiting\n", got)
		os.Exit(1)
	}()
	return s
}

func (s *supervisor) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d := range s.live {
		d.kill()
		delete(s.live, d)
	}
}

// daemon is one running whydbd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    *os.File
	sup    *supervisor
	exited chan struct{} // closed once the child has been reaped
	once   sync.Once     // stop is deferred and also called early
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func ready(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// start execs whydbd with the flags the issue fixes (-addr, -datasets
// ldbc,dbpedia, -scale; GOMAXPROCS=2), plus one that keeps the brownout
// controller out of the measurement, and waits for the first /readyz 200.
// The controller degrades explains once an endpoint's latency average passes
// half of -latency-budget (500 ms by default); on a sandbox whose speed
// halves for a minute, a graph write takes 250 ms and every explain after it
// comes back degraded — a different, cheaper answer, which the oracle
// rightly fails. The workloads are meant to leave that layer idle.
// The returned duration, exec to ready, is one setup_s sample. It refuses an
// address that already answers /readyz: that would be somebody else's
// daemon, and it would be the thing measured.
func (s *supervisor) start(bin, addr string, scale float64, logPath string, client *http.Client) (*daemon, time.Duration, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, 0, fmt.Errorf("finding a free port: %w", err)
		}
	}
	base := "http://" + addr
	if ready(client, base) {
		return nil, 0, fmt.Errorf("%s already answers /readyz: refusing to measure a daemon this run did not start", base)
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-datasets", "ldbc,dbpedia", "-scale", fmt.Sprint(scale), "-latency-budget", "30s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group, so that kill reaches anything the daemon forks;
	// Pdeathsig covers the one exit path no handler sees, a SIGKILL of the
	// harness itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: base, log: logFile, sup: s, exited: make(chan struct{})}
	s.mu.Lock()
	began := time.Now()
	err = cmd.Start()
	if err == nil {
		s.live[d] = true
	}
	s.mu.Unlock()
	if err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	for deadline := began.Add(90 * time.Second); ; {
		if ready(client, base) {
			return d, time.Since(began), nil
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, 0, fmt.Errorf("whydbd exited before becoming ready (see %s)", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("whydbd not ready after 90 s (see %s)", logPath)
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon's process group at once.
func (d *daemon) kill() {
	syscall.Kill(-d.pid(), syscall.SIGKILL)
}

// stop ends the daemon and returns once it is gone: SIGTERM first (the
// daemon drains and exits), SIGKILL to the group if that takes over 5 s.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			d.kill()
			<-d.exited
		}
		d.sup.mu.Lock()
		delete(d.sup.live, d)
		d.sup.mu.Unlock()
		d.log.Close()
	})
}
