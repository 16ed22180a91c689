package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cinderella/client"
)

// baseFlags is the daemon configuration every workload runs against:
// two shards, the paper's B and w at the repo's usual bench values, the
// reclusterer and the tier manager on, group commit (the default flush
// policy) and the binary protocol on an ephemeral port.
var baseFlags = []string{"-shards", "2", "-b", "500", "-w", "0.2", "-recluster", "-tier"}

// buildDaemon compiles cmd/cinderellad from the checkout's source into
// buildDir and returns the binary's absolute path. benchDir is the
// harness's own module directory, whose go.mod maps the cinderella
// module onto the checkout root.
func buildDaemon(benchDir, buildDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "cinderellad"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "cinderella/cmd/cinderellad")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cinderellad: %v\n%s", err, out)
	}
	return bin, nil
}

// staleDaemons lists live processes still executing bin — daemons a
// previous run failed to reap. A run refuses to start beside them: they
// would share the machine's two cores with the measured daemon.
func staleDaemons(bin string) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		// A rebuilt binary leaves the old process's link as "<bin> (deleted)".
		if exe == bin || strings.HasPrefix(exe, bin+" ") {
			pids = append(pids, pid)
		}
	}
	return pids
}

// procs tracks every daemon this process started, so that exit, panic
// and SIGINT paths can reap them all.
var procs struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

// reapAll kills every daemon still running and waits for each.
func reapAll() {
	procs.mu.Lock()
	ds := make([]*daemon, 0, len(procs.live))
	for d := range procs.live {
		ds = append(ds, d)
	}
	procs.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one spawned cinderellad.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	log      *os.File
	exited   chan struct{} // closed once Wait has returned
	waitErr  error
}

// spawn starts cinderellad on dataDir and returns once a binary-protocol
// Ping succeeds. The returned duration runs from just before exec to
// that first Ping: on an existing data dir it is the reopen time. The
// daemon runs in its own process group and dies with the harness.
func spawn(bin, runDir, dataDir string, extra ...string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(runDir, "addr")
	binFile := filepath.Join(runDir, "bin-addr")
	os.Remove(addrFile)
	os.Remove(binFile)
	logf, err := os.OpenFile(filepath.Join(runDir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-bin-addr", "127.0.0.1:0", "-bin-addr-file", binFile,
		"-wal", dataDir,
	}, baseFlags...)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting cinderellad: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan struct{})}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*daemon]struct{})
	}
	procs.live[d] = struct{}{}
	procs.mu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	if d.binAddr, err = d.awaitAddr(binFile); err == nil {
		d.httpAddr, err = d.awaitAddr(addrFile)
	}
	if err == nil {
		err = d.awaitPing()
	}
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// spawnTimeout bounds the wait for a daemon to come up; replaying the
// largest store a workload builds takes a few seconds.
const spawnTimeout = 120 * time.Second

func (d *daemon) awaitAddr(path string) (string, error) {
	deadline := time.Now().Add(spawnTimeout)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 && b[len(b)-1] == '\n' {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-d.exited:
			return "", fmt.Errorf("cinderellad exited before listening: %v", d.waitErr)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return "", errors.New("cinderellad did not listen in time")
		}
	}
}

func (d *daemon) awaitPing() error {
	bc, err := client.NewBinary(d.binAddr, client.WithConns(1), client.WithBinaryRetries(0))
	if err != nil {
		return err
	}
	defer bc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), spawnTimeout)
	defer cancel()
	for {
		if err = bc.Ping(ctx); err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("cinderellad exited before answering: %v", d.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("cinderellad did not answer Ping: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// term drains the daemon with SIGTERM (checkpoint on exit) and returns
// how long the drain took.
func (d *daemon) term() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(spawnTimeout):
		d.kill()
		return 0, errors.New("cinderellad did not drain in time")
	}
	d.forget()
	if d.waitErr != nil {
		return 0, fmt.Errorf("cinderellad drain: %w", d.waitErr)
	}
	return time.Since(start), nil
}

// kill sends SIGKILL to the daemon's process group and waits for it.
func (d *daemon) kill() {
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	d.forget()
}

func (d *daemon) forget() {
	procs.mu.Lock()
	delete(procs.live, d)
	procs.mu.Unlock()
	d.log.Close()
}

// memMB reads one of the daemon's memory figures (VmRSS, VmHWM) from
// /proc, in MB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// counters is a scrape of the daemon's /metrics: sample name (with its
// label set, as printed) → value.
type counters map[string]float64

// sub returns c − earlier for every sample in c.
func (c counters) sub(earlier counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - earlier[k]
	}
	return out
}

func parseMetrics(r io.Reader) (counters, error) {
	out := make(counters)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
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
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (d *daemon) scrape() (counters, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			// The daemon replaces files (checkpoint, tier images) while
			// we walk; one that vanished is simply not counted.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n, err
}
