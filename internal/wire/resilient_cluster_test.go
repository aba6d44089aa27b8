package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
)

// TestResilientMovedFailover: a StatusMoved answer naming the leader
// re-targets the client, and the write succeeds there without the
// RetryWrites opt-in (moved is a refused-before-execution promise).
func TestResilientMovedFailover(t *testing.T) {
	primary, stopP := flakyServer(t, func(i int, conn net.Conn) {
		for {
			op, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if op != OpWrite {
				t.Errorf("primary saw op %#x, want OpWrite", op)
			}
			_ = WriteFrame(conn, StatusOK, nil)
		}
	})
	defer stopP()
	replica, stopR := flakyServer(t, func(i int, conn net.Conn) {
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			status, payload := EncodeError(&MovedError{Epoch: 2, Leader: primary})
			_ = WriteFrame(conn, status, payload)
		}
	})
	defer stopR()

	r := NewResilient(ResilientConfig{
		Addrs:       []string{replica, primary},
		Timeout:     2 * time.Second,
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
		// RetryWrites deliberately off: the moved retry must not need it.
	})
	defer r.Close()

	if err := r.Write(0, bytes.Repeat([]byte{0xAB}, secmem.LineBytes)); err != nil {
		t.Fatalf("write through redirect: %v", err)
	}
	st := r.Counters()
	if st.Reroutes != 1 || st.Failures != 0 {
		t.Fatalf("counters = %+v, want 1 reroute, 0 failures", st)
	}
	if got := r.Target(); got != primary {
		t.Fatalf("target = %q, want leader %q", got, primary)
	}
}

// TestResilientLeaderlessMovedRotates: a StatusMoved without a leader
// address still makes progress by rotating to the next seed.
func TestResilientLeaderlessMovedRotates(t *testing.T) {
	primary, stopP := flakyServer(t, func(i int, conn net.Conn) {
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			_ = WriteFrame(conn, StatusOK, nil)
		}
	})
	defer stopP()
	lost, stopL := flakyServer(t, func(i int, conn net.Conn) {
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			status, payload := EncodeError(&MovedError{Epoch: 1})
			_ = WriteFrame(conn, status, payload)
		}
	})
	defer stopL()

	r := NewResilient(ResilientConfig{
		Addrs:       []string{lost, primary},
		Timeout:     2 * time.Second,
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
	})
	defer r.Close()

	if err := r.Write(0, make([]byte, secmem.LineBytes)); err != nil {
		t.Fatalf("write through leaderless redirect: %v", err)
	}
	if got := r.Target(); got != primary {
		t.Fatalf("target = %q, want %q", got, primary)
	}
}

// TestResilientSeedRotationOnDialFailure: a dead first seed costs one
// attempt, not the whole budget — the next dial goes to a live seed.
func TestResilientSeedRotationOnDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close() // nothing listens here anymore: dials are refused
	live, stop := flakyServer(t, func(i int, conn net.Conn) {
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			_ = WriteFrame(conn, StatusOK, nil)
		}
	})
	defer stop()

	r := NewResilient(ResilientConfig{
		Addrs:       []string{dead, live},
		Timeout:     2 * time.Second,
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
	})
	defer r.Close()

	if err := r.Ping(); err != nil {
		t.Fatalf("ping with dead first seed: %v", err)
	}
	if got := r.Target(); got != live {
		t.Fatalf("target = %q, want rotation to %q", got, live)
	}
}

// TestResilientRerouteEpochMonotonic: a stale-epoch redirect cannot drag
// the client back to a deposed primary.
func TestResilientRerouteEpochMonotonic(t *testing.T) {
	r := NewResilient(ResilientConfig{Addrs: []string{"seed:1"}})
	r.retry.reroute(&MovedError{Epoch: 5, Leader: "new:1"})
	if got := r.Target(); got != "new:1" {
		t.Fatalf("target = %q, want new:1", got)
	}
	r.retry.reroute(&MovedError{Epoch: 3, Leader: "old:1"})
	if got := r.Target(); got != "new:1" {
		t.Fatalf("stale epoch moved target to %q", got)
	}
	if st := r.Counters(); st.Reroutes != 2 {
		t.Fatalf("reroutes = %d, want 2", st.Reroutes)
	}
}
