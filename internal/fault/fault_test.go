package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestPlanDeterminism: Plan is a pure function of (Profile, index), so a
// fault schedule replays exactly from its seed.
func TestPlanDeterminism(t *testing.T) {
	prof := Profile{
		Seed: 42, Latency: time.Millisecond, Jitter: time.Millisecond,
		ChunkBytes: 7, CutEvery: 2, CutBase: 10, CutCycle: 77,
		StallEvery: 3, StallAfter: 5, StallFor: time.Second,
	}
	for i := 0; i < 500; i++ {
		if a, b := prof.Plan(i), prof.Plan(i); a != b {
			t.Fatalf("plan %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
	other := prof
	other.Seed = 43
	if a, b := prof.Plan(3), other.Plan(3); a.Seed == b.Seed {
		t.Fatal("different profile seeds produced the same plan seed")
	}
}

// TestPlanCutSweep: with CutEvery=1 the cut offsets sweep CutBase ..
// CutBase+CutCycle-1 and alternate directions, covering every intra-frame
// byte offset both ways.
func TestPlanCutSweep(t *testing.T) {
	prof := Profile{CutEvery: 1, CutBase: 100, CutCycle: 4}
	seenRead := map[int64]bool{}
	seenWrite := map[int64]bool{}
	for i := 0; i < 8; i++ {
		plan := prof.Plan(i)
		switch {
		case plan.CutReadAfter >= 0 && plan.CutWriteAfter < 0:
			seenRead[plan.CutReadAfter] = true
		case plan.CutWriteAfter >= 0 && plan.CutReadAfter < 0:
			seenWrite[plan.CutWriteAfter] = true
		default:
			t.Fatalf("plan %d cuts neither or both directions: %+v", i, plan)
		}
	}
	for off := int64(100); off < 104; off++ {
		if !seenRead[off] || !seenWrite[off] {
			t.Fatalf("offset %d not swept in both directions (read %v, write %v)", off, seenRead, seenWrite)
		}
	}
}

// TestConnCutRead: the read side delivers exactly CutReadAfter bytes and
// then fails with ErrInjected, closing the underlying connection.
func TestConnCutRead(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := PassPlan()
	plan.CutReadAfter = 5
	var events []string
	var mu sync.Mutex
	c := WrapConn(a, plan, func(kind string) { mu.Lock(); events = append(events, kind); mu.Unlock() })
	go func() {
		_, _ = b.Write([]byte("0123456789"))
	}()
	got, err := io.ReadAll(c)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read past cut returned %v, want ErrInjected", err)
	}
	if !bytes.Equal(got, []byte("01234")) {
		t.Fatalf("delivered %q before cut, want %q", got, "01234")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0] != EventCut {
		t.Fatalf("events = %v, want exactly one cut", events)
	}
}

// TestConnCutWrite: the write side pushes exactly CutWriteAfter bytes and
// then fails, leaving the peer holding a partial message.
func TestConnCutWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := PassPlan()
	plan.CutWriteAfter = 3
	c := WrapConn(a, plan, nil)
	delivered := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(b)
		delivered <- buf
	}()
	n, err := c.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write past cut returned %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("short write reported %d bytes, want 3", n)
	}
	select {
	case got := <-delivered:
		if !bytes.Equal(got, []byte("abc")) {
			t.Fatalf("peer saw %q, want the 3-byte prefix", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never unblocked after cut")
	}
}

// TestConnChunking: ChunkBytes splits one Write into several underlying
// writes (partial writes on the wire).
func TestConnChunking(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	plan := PassPlan()
	plan.ChunkBytes = 4
	c := WrapConn(a, plan, nil)
	var sizes []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			if n > 0 {
				sizes = append(sizes, n)
			}
			if err != nil {
				return
			}
		}
	}()
	msg := []byte("0123456789") // 10 bytes -> 4+4+2
	if n, err := c.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("chunked write = %d, %v", n, err)
	}
	_ = c.Close()
	<-done
	total := 0
	for _, n := range sizes {
		if n > 4 {
			t.Fatalf("chunk of %d bytes leaked past ChunkBytes=4 (%v)", n, sizes)
		}
		total += n
	}
	if total != len(msg) {
		t.Fatalf("peer got %d bytes, want %d", total, len(msg))
	}
	if len(sizes) < 3 {
		t.Fatalf("expected >= 3 partial writes, got %v", sizes)
	}
}

// TestConnStall: a read stall freezes the flow for StallFor and then
// kills it — the withheld bytes are never delivered, so an abandoned
// request cannot come back later as a zombie.
func TestConnStall(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	const stall = 100 * time.Millisecond
	plan := PassPlan()
	plan.StallReadAfter = 0
	plan.StallFor = stall
	var mu sync.Mutex
	events := []string{}
	c := WrapConn(a, plan, func(kind string) {
		mu.Lock()
		events = append(events, kind)
		mu.Unlock()
	})
	go func() { _, _ = b.Write([]byte("hi")) }()
	start := time.Now()
	buf := make([]byte, 2)
	_, err := io.ReadFull(c, buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("stalled read returned %v, want ErrInjected (frozen flows die, they do not deliver late)", err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("stalled read returned after %v, want >= %v", elapsed, stall)
	}
	// The connection is dead for good; no second stall, just the reset.
	if _, err := c.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after stall returned %v, want ErrInjected", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{EventStall, EventCut}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

// TestListenerWrapsAcceptedConns: the listener applies its profile's plan to
// the connection it accepts and reports each injected fault to its observer.
// A cutting profile severs the echo at its planned offset; a stalling one
// freezes the echo's read side and then severs it.
func TestListenerWrapsAcceptedConns(t *testing.T) {
	for _, tc := range []struct {
		name         string
		prof         Profile
		cuts, stalls int
	}{
		{"cut", Profile{CutEvery: 1, CutBase: 4, CutCycle: 1}, 1, 0},
		{"stall", Profile{StallEvery: 1, StallAfter: 2, StallFor: 50 * time.Millisecond}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			seen := map[string]int{}
			ln := WrapListener(inner, tc.prof.Plan, func(kind string) { mu.Lock(); seen[kind]++; mu.Unlock() })
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// Echo until the injected fault kills the read side.
				_, _ = io.Copy(conn, conn)
				_ = conn.Close()
			}()
			cl, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			_ = cl.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, _ := io.ReadAll(cl)
			<-served
			// The cut echo dies after 4 bytes: at most 4 come back.
			if tc.stalls == 0 && len(got) > 4 {
				t.Fatalf("cut listener leaked %d bytes (%q), want <= 4", len(got), got)
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[EventCut] != tc.cuts || seen[EventStall] != tc.stalls {
				t.Fatalf("observed %v, want %d cut and %d stall", seen, tc.cuts, tc.stalls)
			}
		})
	}
}
