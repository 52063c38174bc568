package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
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

// readyTimeout bounds how long a daemon may take to serve after starting.
const readyTimeout = 90 * time.Second

// daemon is one goalrecd process the benchmark started.
type daemon struct {
	name string
	addr string // HTTP address
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has been reaped
	err  error         // exit status, valid after done
}

// procs tracks every live daemon so an aborted run still stops them all.
var procs = struct {
	sync.Mutex
	live map[*daemon]bool
}{live: map[*daemon]bool{}}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches goalrecd with args, logging to dir/name.log.
func startDaemon(bin, dir, name, addr string, args ...string) (*daemon, error) {
	lf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, log: lf, done: make(chan struct{})}
	procs.Lock()
	procs.live[d] = true
	procs.Unlock()
	go func() {
		d.err = cmd.Wait()
		lf.Close()
		procs.Lock()
		delete(procs.live, d)
		procs.Unlock()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, waits for a graceful exit and escalates to SIGKILL.
func (d *daemon) stop() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (d *daemon) kill() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stopAll stops every daemon still running.
func stopAll() {
	procs.Lock()
	var ds []*daemon
	for d := range procs.live {
		ds = append(ds, d)
	}
	procs.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// statusMiB reads a size field of the process's /proc status ("VmHWM:",
// "VmRSS:") in MiB.
func (d *daemon) statusMiB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// probeClient is used for readiness and metrics probes, never for timed
// traffic.
var probeClient = &http.Client{Timeout: 10 * time.Second}

// getJSON GETs url and decodes a JSON body, returning the status code.
func getJSON(url string, v interface{}) (int, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitReady polls /readyz until it answers 200 and cond (if non-nil)
// accepts the body.
func (d *daemon) waitReady(deadline time.Time, cond func(map[string]interface{}) bool) error {
	for {
		if d.exited() {
			return fmt.Errorf("%s exited before serving: %v (see %s)", d.name, d.err, d.log.Name())
		}
		var body map[string]interface{}
		code, err := getJSON(d.url("/readyz"), &body)
		if err == nil && code == http.StatusOK && (cond == nil || cond(body)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last: %d %v)", d.name, readyTimeout, code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
