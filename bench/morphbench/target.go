package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// env is where a run reads and writes; all of it is inside the checkout.
type env struct {
	root     string // repository root (holds go.mod)
	buildDir string // morphserve binary and per-run data directories
	results  string // traces and repeat.json
	smoke    bool
}

func (e *env) span() uint64 {
	if e.smoke {
		return smokeLines
	}
	return spanLines
}

func (e *env) serverBin() string { return filepath.Join(e.buildDir, "morphserve") }

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(mod), "module github.com/securemem/morphtree\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("morphbench must run inside the morphtree module (no go.mod found)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/morphserve into the build directory.
func (e *env) buildServer(ctx context.Context) error {
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.serverBin(), "./cmd/morphserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build morphserve: %w\n%s", err, out)
	}
	return nil
}

func shardConfig() (shard.Config, error) {
	enc, tree, err := shard.Organization(orgName)
	if err != nil {
		return shard.Config{}, err
	}
	return shard.Config{
		Shards: numShards,
		Mem:    secmem.Config{MemoryBytes: memoryBytes, Enc: enc, Tree: tree, Key: masterKey},
	}, nil
}

// child is a morphserve process under test.
type child struct {
	cmd  *exec.Cmd
	addr string
	out  bytes.Buffer
	done chan struct{} // closed once the process has been waited for
}

// startChild launches morphserve on a port that was free a moment ago and
// returns once it answers a ping. ctx cancellation kills the process.
func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	c := &child{addr: addr, done: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start morphserve: %w", err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child says nothing
		close(c.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := wire.Dial(addr, time.Second)
		if err == nil {
			err = cl.Ping()
			_ = cl.Close()
			if err == nil {
				return c, nil
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("morphserve exited during start-up:\n%s", c.out.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("morphserve not ready after 10s: %v\n%s", err, c.out.String())
		}
	}
}

// pid names the process under /proc.
func (c *child) pid() string { return strconv.Itoa(c.cmd.Process.Pid) }

func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

// procCPU returns the user+system CPU seconds a process has consumed, from
// /proc/<pid>/stat (fields 14 and 15, in 100 Hz clock ticks).
func procCPU(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicksPerSecond = 100
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// store is what a caller drives: *wire.Client, *shard.Sharded, and the
// ladder's engines all satisfy it.
type store interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, line []byte) error
}

// target is a workload's system under test after set-up: started,
// connected and prefilled, with one caller per closed loop.
type target struct {
	w       *workload
	sh      *shard.Sharded // in-process workloads
	child   *child         // serve workloads
	clients []*wire.Client // one data connection per caller
	ctl     *wire.Client   // stats / verify, off the data connections
	dataDir string
	callers []*caller
}

// setUp starts workload w's target and prefills its span: every line gets
// version 1 of its content from the caller that owns it.
func setUp(ctx context.Context, e *env, w *workload, seed int64) (*target, error) {
	t := &target{w: w}
	var stores []store
	if w.serve {
		args := []string{"-shards", strconv.Itoa(numShards), "-org", orgName, "-mem", strconv.Itoa(memoryBytes)}
		if w.durable {
			dir, err := os.MkdirTemp(e.buildDir, "data-")
			if err != nil {
				return nil, err
			}
			t.dataDir = dir
			args = append(args, "-data-dir", dir, "-fsync", "interval", "-snapshot-every", "0", "-delta-every", deltaEvery)
		}
		var err error
		if t.child, err = startChild(ctx, e.serverBin(), args...); err != nil {
			t.close()
			return nil, err
		}
		for c := 0; c <= w.callers; c++ {
			cl, err := wire.Dial(t.child.addr, 30*time.Second)
			if err != nil {
				t.close()
				return nil, err
			}
			if c == w.callers {
				t.ctl = cl
			} else {
				t.clients = append(t.clients, cl)
				stores = append(stores, cl)
			}
		}
	} else {
		cfg, err := shardConfig()
		if err != nil {
			return nil, err
		}
		if t.sh, err = shard.New(cfg); err != nil {
			return nil, err
		}
		for c := 0; c < w.callers; c++ {
			stores = append(stores, t.sh)
		}
	}
	for c, st := range stores {
		t.callers = append(t.callers, newCaller(w, seed, e.span(), c, w.callers, st))
	}
	if err := t.prefill(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *target) prefill() error {
	var wg sync.WaitGroup
	errs := make([]error, len(t.callers))
	for i, c := range t.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.prefill()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (t *target) stats() (secmem.Stats, error) {
	if t.sh != nil {
		return t.sh.Stats(), nil
	}
	return t.ctl.Stats()
}

// verify re-verifies every written line from a cold metadata cache.
func (t *target) verify() error {
	if t.sh != nil {
		return t.sh.VerifyAll()
	}
	return t.ctl.Verify()
}

// close disconnects, kills the child and removes its data directory.
func (t *target) close() {
	for _, cl := range append(t.clients, t.ctl) {
		if cl != nil {
			_ = cl.Close() // the child is about to be killed anyway
		}
	}
	if t.child != nil {
		t.child.stop()
	}
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir) // best effort; the build dir is scratch
	}
}

// dirUsage sums the sizes of a durable child's files by kind.
type dirUsage struct {
	wal   map[string]int64 // segment name -> size
	ckpt  map[string]int64 // snapshot.* and delta.* name -> size
	total int64
}

func readDirUsage(dir string) dirUsage {
	u := dirUsage{wal: map[string]int64{}, ckpt: map[string]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return u
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue // deleted by a concurrent checkpoint sweep
		}
		name := ent.Name()
		u.total += info.Size()
		switch {
		case strings.HasPrefix(name, "wal."):
			u.wal[name] = info.Size()
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "delta."), strings.HasPrefix(name, "snapshot."):
			u.ckpt[name] = info.Size()
		}
	}
	return u
}

// grownSince sums how much each file in now grew relative to before (files
// new since before count in full; files that vanished are ignored).
func grownSince(now, before map[string]int64) (bytes int64, newFiles int) {
	for name, size := range now {
		old, existed := before[name]
		if !existed {
			newFiles++
		}
		bytes += max(size-old, 0)
	}
	return bytes, newFiles
}
