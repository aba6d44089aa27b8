package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/wire"
)

// syncBuffer collects log output written from several goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// dirState is a directory's names, sizes and modification times.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %d\n", e.Name(), info.Size(), info.ModTime().UnixNano())
	}
	return b.String()
}

// TestGracefulStopEndsOnTheFinalSnapshot: a durable morphserve under writes
// and a 100 µs delta cadence, stopped gracefully. The background checkpointer
// must be gone before the final checkpoint and the close: the newest epoch in
// the directory is the final snapshot — the next start replays nothing — no
// temp file remains, nothing in the directory changes once serve has
// returned, and no checkpoint was refused for coming after Close.
func TestGracefulStopEndsOnTheFinalSnapshot(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	o, err := parseAndValidate(t, "-shards", "2", "-mem", "65536", "-data-dir", dir,
		"-fsync", "interval", "-snapshot-every", "0", "-delta-every", "100us")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, o, ln); close(served) }()
	defer func() { cancel(); <-served }() // a failed test too waits serve out of its directory

	cl, err := wire.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	line := make([]byte, 64)
	// Write until the cadence has cut a few deltas, so the stop lands among
	// them, then stop with the writer's last lines still dirty.
	for i := uint64(0); ; i++ {
		line[0] = byte(i)
		if err := cl.Write(i%512*64, line); err != nil {
			t.Fatal(err)
		}
		if i >= 2000 && i%256 == 0 {
			live, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(fmt.Sprint(live), "delta.") >= 2 {
				break
			}
		}
		if i > 1<<20 {
			t.Fatal("no delta cut in a million writes under a 100 µs cadence")
		}
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}

	stopped := dirState(t, dir)
	var newest string
	for _, f := range strings.Fields(stopped) {
		// snapshot.<seq> and delta.<seq>.<base>, both seq in %016x.
		if _, rest, ok := strings.Cut(f, "."); ok && (strings.HasPrefix(f, "snapshot.") || strings.HasPrefix(f, "delta.")) && rest[:16] >= newest {
			newest = rest[:16]
		}
	}
	if !strings.Contains(stopped, "snapshot."+newest+" ") {
		t.Errorf("the newest epoch %s is not the final snapshot:\n%s", newest, stopped)
	}
	if strings.Contains(stopped, ".tmp") {
		t.Errorf("a temp file outlived the stop:\n%s", stopped)
	}
	time.Sleep(20 * time.Millisecond) // two hundred cadences
	if now := dirState(t, dir); now != stopped {
		t.Errorf("the directory changed after serve returned:\n%s->\n%s", stopped, now)
	}
	if out := logs.String(); strings.Contains(out, "after Close") || strings.Contains(out, "background checkpoint:") {
		t.Errorf("a background checkpoint failed:\n%s", out)
	}
}
