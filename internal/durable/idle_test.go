package durable

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/oracle"
)

// TestIdleStoreCutsNoDelta: a delta checkpoint of a store nobody wrote to
// since the last one is no checkpoint — no file, the epoch where it was, no
// delta counted, and the cuts closed so the next one can begin — while a
// single write makes the next call cut exactly one delta. A crash after each
// step recovers what was written.
func TestIdleStoreCutsNoDelta(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncAlways})
	defer m.Close()

	var addrs []uint64
	seq, deltas := uint64(1), 0
	step := func(what string, writes uint64) {
		t.Helper()
		addrs = append(addrs, writeSome(t, m, uint64(len(addrs)), writes)...)
		if writes > 0 {
			seq++
			deltas++
		}
		before := listEpochFiles(t, dir)
		if err := m.CheckpointDelta(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := listEpochFiles(t, dir)
		if writes == 0 && !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: an idle delta changed the directory: %v -> %v", what, before, after)
		}
		if got := m.Seq(); got != seq {
			t.Fatalf("%s: seq = %d, want %d", what, got, seq)
		}
		if got := int(m.Durability().DeltaCheckpoints); got != deltas {
			t.Fatalf("%s: %d deltas counted, want %d", what, got, deltas)
		}
		if got := strings.Count(strings.Join(after, "\n"), "delta."); got != deltas {
			t.Fatalf("%s: %d delta files in %v, want %d", what, got, after, deltas)
		}
		// Crash here: a copy of the directory recovers every write so far.
		re, info, err := Open(shcfg, Config{Dir: copyDir(t, dir), Sync: SyncAlways, VerifyAll: true})
		if err != nil {
			t.Fatalf("%s: recovery: %v", what, err)
		}
		defer re.Close()
		if info.DeltasApplied != deltas {
			t.Fatalf("%s: recovery applied %d deltas, want %d", what, info.DeltasApplied, deltas)
		}
		verifyAddrs(t, m, re, addrs)
	}

	step("fresh and idle", 0)
	step("idle again", 0)
	step("one write", 1)
	step("idle after the delta", 0)
	step("idle once more", 0)
	step("five writes", 5)
	step("idle at the end", 0)
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

// TestCloseRacesCheckpoints: a checkpoint, full or delta, that waits out a
// Close behind ckptMu must find the store closed and write nothing — the
// directory Close leaves is the directory the next Open finds. Run it with
// -race -count=20.
func TestCloseRacesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	shcfg := testShardConfig(t, 2, 1<<13)
	m, _ := mustOpen(t, shcfg, Config{Dir: dir, Sync: SyncNone})

	var wg sync.WaitGroup
	for g, cut := range []func() error{m.CheckpointDelta, m.Checkpoint, m.CheckpointDelta} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				// Something to cut each time, until Close refuses the write.
				addr := uint64(g*16+i%16) * LineBytes
				if err := m.Write(addr, oracle.Fill(addr, uint64(i))); err != nil {
					return
				}
				if err := cut(); err != nil {
					if !strings.Contains(err.Error(), "after Close") {
						t.Errorf("checkpoint racing Close: %v", err)
					}
					return
				}
			}
		}()
	}
	for m.Seq() < 6 && !t.Failed() { // let both kinds of cut land first
		time.Sleep(100 * time.Microsecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	closed := dirState(t, dir)
	wg.Wait()
	if now := dirState(t, dir); now != closed {
		t.Fatalf("the directory changed after Close returned:\n%s->\n%s", closed, now)
	}
	if strings.Contains(closed, ".tmp") {
		t.Fatalf("Close left a temp file:\n%s", closed)
	}
	re, _, err := Open(shcfg, Config{Dir: dir, Sync: SyncNone, VerifyAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
