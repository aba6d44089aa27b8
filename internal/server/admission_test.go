package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/wire"
)

// gatedEngine wraps an Engine so tests can hold its Read path open and
// deterministically saturate the admission gate.
type gatedEngine struct {
	Engine
	entered chan struct{} // one send per Read that starts executing
	release chan struct{} // Read returns when this closes
}

func (g *gatedEngine) Read(addr uint64) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Engine.Read(addr)
}

// TestAdmissionShedsWhenSaturated: with MaxInflight=1 and a request
// parked inside the engine, the next request is shed with a typed,
// retryable StatusBusy — and a PING still answers, because liveness must
// be observable during overload.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	eng := &gatedEngine{
		Engine:  testShards(t, 2, 1<<14),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	var srv *Server
	addr, shutdown := startServerWith(t, eng, Config{MaxInflight: 1, ShedWait: -1}, &srv)
	defer shutdown()

	blocked, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()
	readDone := make(chan error, 1)
	go func() {
		_, err := blocked.Read(0)
		readDone <- err
	}()
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first read never reached the engine")
	}

	// The slot is held: a second request must be shed, not queued.
	other, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	_, err = other.Read(64)
	var be *wire.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("saturated server answered %v, want *wire.BusyError", err)
	}
	if !wire.IsRetryable(err) {
		t.Fatal("shed must classify as retryable")
	}
	// Health check bypasses the gate.
	if err := other.Ping(); err != nil {
		t.Fatalf("PING failed while saturated: %v", err)
	}

	close(eng.release)
	if err := <-readDone; err != nil {
		t.Fatalf("parked read failed after release: %v", err)
	}
	st := srv.NetStats()
	if st.Shed != 1 || st.Pings != 1 {
		t.Fatalf("NetStats = %+v, want 1 shed, 1 ping", st)
	}
}

// startServerWith is startServer plus access to the *Server for counter
// assertions.
func startServerWith(t *testing.T, eng Engine, cfg Config, out **Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, cfg)
	*out = srv
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Serve returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not drain after cancel")
		}
	}
}

// TestSlowLorisDisconnected: a peer that sends one byte and then
// trickles nothing more is dropped after FrameTimeout, long before the
// idle ReadTimeout — it cannot hold a connection slot by dribbling.
func TestSlowLorisDisconnected(t *testing.T) {
	var srv *Server
	addr, shutdown := startServerWith(t, testShards(t, 2, 1<<14),
		Config{ReadTimeout: time.Hour, FrameTimeout: 100 * time.Millisecond}, &srv)
	defer shutdown()

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0}); err != nil { // first byte of a length prefix, then silence
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server reports the truncated frame (best effort) and closes;
	// either way the connection must die promptly.
	status, _, err := wire.ReadFrame(conn)
	if err == nil {
		if status != wire.StatusError {
			t.Fatalf("slow-loris got status %#x, want StatusError", status)
		}
		if _, _, err := wire.ReadFrame(conn); err == nil {
			t.Fatal("connection still alive after slow-loris report")
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow-loris held the connection %v, want ~FrameTimeout", elapsed)
	}
	if st := srv.NetStats(); st.SlowLoris != 1 {
		t.Fatalf("NetStats = %+v, want 1 slow-loris drop", st)
	}
}

// TestIdleConnOutlivesFrameTimeout: the split deadline must not punish
// idle-but-honest connections — a client may pause longer than
// FrameTimeout between requests and still be served.
func TestIdleConnOutlivesFrameTimeout(t *testing.T) {
	addr, shutdown := startServer(t, testShards(t, 2, 1<<14),
		Config{ReadTimeout: time.Hour, FrameTimeout: 50 * time.Millisecond})
	defer shutdown()
	cl, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // idle well past FrameTimeout
	if _, err := cl.Read(0); err != nil {
		t.Fatalf("idle connection dropped by frame deadline: %v", err)
	}
}

// TestShutdownRacesPeriodicCheckpoint: ctx cancel + the drain-path Flush
// racing a background checkpointer's tick (and in-flight writes) must be
// clean — no data race under -race, no error, and the store must reopen
// intact.
func TestShutdownRacesPeriodicCheckpoint(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		dir := t.TempDir()
		m, _ := openDurable(t, dir, 2, 1<<13, durable.Config{Sync: durable.SyncNone})
		addr, shutdown := startServer(t, m, Config{Logf: t.Logf})
		r := ckpt.NewRunner(m, 0, time.Millisecond, 0, func(err error) { t.Errorf("iter %d: periodic checkpoint: %v", iter, err) })

		cl, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep writes in flight across the cancel; errors after the
			// drain starts are expected.
			for i := uint64(0); ; i++ {
				if err := cl.Write((i%32)*durable.LineBytes, oracle.Fill(i, 9)); err != nil {
					return
				}
			}
		}()
		// Give the ticker a chance to be mid-checkpoint, then pull the rug.
		time.Sleep(time.Duration(1+iter) * time.Millisecond)
		shutdown()
		r.Stop()
		_ = cl.Close()
		wg.Wait()
		if err := m.Close(); err != nil {
			t.Fatalf("iter %d: close after racing shutdown: %v", iter, err)
		}
		// The store must recover cleanly whatever instant the race hit.
		m2, _ := openDurable(t, dir, 2, 1<<13, durable.Config{})
		if err := m2.VerifyAll(); err != nil {
			t.Fatalf("iter %d: recovered store failed verification: %v", iter, err)
		}
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetStatsCountsAccepts: accepted/rejected connection counters feed
// the operator-facing report.
func TestNetStatsCountsAccepts(t *testing.T) {
	var srv *Server
	addr, shutdown := startServerWith(t, testShards(t, 2, 1<<14), Config{MaxConns: 1}, &srv)
	defer shutdown()
	c1, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	over, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if status, _, err := wire.ReadFrame(over); err != nil || status != wire.StatusBusy {
		t.Fatalf("over-cap conn: status %#x, err %v, want StatusBusy", status, err)
	}
	st := srv.NetStats()
	if st.Accepted != 1 || st.Rejected != 1 {
		t.Fatalf("NetStats = %+v, want 1 accepted, 1 rejected", st)
	}
}
