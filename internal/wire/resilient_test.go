package wire

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
)

// flakyServer accepts connections and hands each to handler with its
// accept index, so tests script per-connection misbehavior.
func flakyServer(t *testing.T, handler func(i int, conn net.Conn)) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(i int, conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				handler(i, conn)
			}(i, conn)
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		wg.Wait()
	}
}

func testResilient(addr string, retryWrites bool) *Client {
	return NewResilient(ResilientConfig{
		Addrs:       []string{addr},
		Timeout:     2 * time.Second,
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		RetryWrites: retryWrites,
		Seed:        1,
	})
}

// TestResilientRetriesBusySheds: StatusBusy answers are retried on the
// same connection until the server admits the request.
func TestResilientRetriesBusySheds(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	addr, stop := flakyServer(t, func(i int, conn net.Conn) {
		for {
			op, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			mu.Lock()
			requests++
			n := requests
			mu.Unlock()
			if n <= 2 {
				_ = WriteFrame(conn, StatusBusy, []byte("at capacity"))
				continue
			}
			if op != OpVerify {
				t.Errorf("op %#x, want OpVerify", op)
			}
			_ = WriteFrame(conn, StatusOK, nil)
		}
	})
	defer stop()

	r := testResilient(addr, false)
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("verify through sheds: %v", err)
	}
	st := r.Counters()
	if st.Sheds != 2 || st.Retries != 2 || st.Reconnects != 0 || st.Failures != 0 {
		t.Fatalf("counters = %+v, want 2 sheds, 2 retries, 0 reconnects", st)
	}
}

// TestResilientReconnectsAfterReset: a connection killed mid-round-trip
// is replaced, and the idempotent op succeeds on the new one.
func TestResilientReconnectsAfterReset(t *testing.T) {
	addr, stop := flakyServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			_, _, _ = ReadFrame(conn) // swallow the request, die silently
			return
		}
		for {
			op, payload, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if op != OpRead {
				t.Errorf("op %#x, want OpRead", op)
			}
			if _, err := DecodeAddr(payload); err != nil {
				t.Error(err)
			}
			_ = WriteFrame(conn, StatusOK, make([]byte, secmem.LineBytes))
		}
	})
	defer stop()

	r := testResilient(addr, false)
	defer r.Close()
	line, err := r.Read(128)
	if err != nil {
		t.Fatalf("read after reset: %v", err)
	}
	if len(line) != secmem.LineBytes {
		t.Fatalf("read returned %d bytes", len(line))
	}
	st := r.Counters()
	if st.Reconnects != 1 || st.Retries != 1 {
		t.Fatalf("counters = %+v, want 1 reconnect, 1 retry", st)
	}
}

// TestResilientWritePolicy: a write whose connection dies before the ack
// is NOT retried by default (outcome unknown, no request IDs); with
// RetryWrites it is.
func TestResilientWritePolicy(t *testing.T) {
	handler := func(i int, conn net.Conn) {
		if i == 0 {
			_, _, _ = ReadFrame(conn) // write arrives, ack never sent
			return
		}
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			_ = WriteFrame(conn, StatusOK, nil)
		}
	}

	addr, stop := flakyServer(t, handler)
	line := make([]byte, secmem.LineBytes)

	r := testResilient(addr, false)
	err := r.Write(0, line)
	if err == nil {
		t.Fatal("ambiguous write retried without RetryWrites")
	}
	if !strings.Contains(err.Error(), "outcome unknown") {
		t.Fatalf("error %q does not explain the ambiguity", err)
	}
	if st := r.Counters(); st.Failures != 1 {
		t.Fatalf("counters = %+v, want 1 failure", st)
	}
	r.Close()
	stop()

	addr, stop = flakyServer(t, handler)
	defer stop()
	r2 := testResilient(addr, true)
	defer r2.Close()
	if err := r2.Write(0, line); err != nil {
		t.Fatalf("opted-in write retry failed: %v", err)
	}
	if st := r2.Counters(); st.Reconnects != 1 || st.Failures != 0 {
		t.Fatalf("counters = %+v, want 1 reconnect, 0 failures", st)
	}
}

// TestResilientNeverRetriesIntegrity: an IntegrityError is a verdict, not
// a network condition — exactly one request reaches the server.
func TestResilientNeverRetriesIntegrity(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	addr, stop := flakyServer(t, func(i int, conn net.Conn) {
		for {
			if _, _, err := ReadFrame(conn); err != nil {
				return
			}
			mu.Lock()
			requests++
			mu.Unlock()
			status, body := EncodeError(&secmem.IntegrityError{Level: 2, Index: 7, Reason: "MAC mismatch"})
			_ = WriteFrame(conn, status, body)
		}
	})
	defer stop()

	r := testResilient(addr, false)
	defer r.Close()
	_, err := r.Read(0)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *secmem.IntegrityError", err)
	}
	mu.Lock()
	n := requests
	mu.Unlock()
	if n != 1 {
		t.Fatalf("integrity error retried: server saw %d requests", n)
	}
	if st := r.Counters(); st.Retries != 0 || st.Failures != 1 {
		t.Fatalf("counters = %+v, want 0 retries, 1 failure", st)
	}
}

// TestResilientBoundedRetries: a server that never answers exhausts
// MaxAttempts and the error says so.
func TestResilientBoundedRetries(t *testing.T) {
	addr, stop := flakyServer(t, func(i int, conn net.Conn) {
		_, _, _ = ReadFrame(conn)
	})
	defer stop()

	r := testResilient(addr, false)
	defer r.Close()
	_, err := r.Read(0)
	if err == nil {
		t.Fatal("read against a dead server succeeded")
	}
	if !strings.Contains(err.Error(), "after 5 attempts") {
		t.Fatalf("error %q does not report the attempt budget", err)
	}
	st := r.Counters()
	if st.Retries != 4 || st.Failures != 1 || st.Reconnects != 4 {
		t.Fatalf("counters = %+v, want 4 retries, 4 reconnects, 1 failure", st)
	}
}
