package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
)

// startPlane serves a plane on a loopback port of the kernel's choosing and
// returns its base URL; the plane stops, and must return nil, at cleanup.
func startPlane(t *testing.T, p *adminPlane) string {
	t.Helper()
	if p.reg == nil {
		p.reg = obs.NewRegistry()
	}
	if p.tracer == nil {
		p.tracer = obs.NewTracer(64)
	}
	if p.auth == nil {
		a, err := proof.NewAuthority(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		p.auth = a
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// fetch makes one request and checks what every reply must carry: a
// Content-Length equal to the body's and Connection: close.
func fetch(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: body: %v", method, url, err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("%s %s: Content-Length %d, body %d bytes", method, url, resp.ContentLength, len(body))
	}
	if !resp.Close {
		t.Errorf("%s %s: no Connection: close", method, url)
	}
	return resp, body
}

// expect fetches url and checks status and Content-Type.
func expect(t *testing.T, method, url string, status int, ctype string) []byte {
	t.Helper()
	resp, body := fetch(t, method, url)
	if resp.StatusCode != status || resp.Header.Get("Content-Type") != ctype {
		t.Fatalf("%s %s: %d %q, want %d %q (%s)", method, url, resp.StatusCode,
			resp.Header.Get("Content-Type"), status, ctype, body)
	}
	return body
}

func TestMetricz(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("server.accepted").Add(9)
	reg.Counter("tenant.a.reads").Add(3)
	reg.Counter("tenant.b.reads").Add(4)
	reg.Histogram("server.op.read.latency").Record(3 * time.Millisecond)
	base := startPlane(t, &adminPlane{reg: reg})

	snap, err := obs.DecodeSnapshot(expect(t, "GET", base+"/metricz", 200, appJSON))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Counters["server.accepted"] != 9 || snap.Histograms["server.op.read.latency"].Count != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	snap, err = obs.DecodeSnapshot(expect(t, "GET", base+"/metricz?tenant=a", 200, appJSON))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters["tenant.a.reads"] != 3 {
		t.Fatalf("?tenant=a: %v", snap.Counters)
	}
}

func TestTracez(t *testing.T) {
	tr := obs.NewTracer(64)
	tr.Emit(obs.KindOverflow, 2, 1, 64, 0)
	base := startPlane(t, &adminPlane{tracer: tr})
	snap, err := obs.DecodeTraceSnapshot(expect(t, "GET", base+"/tracez", 200, appJSON))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Emitted != 1 || snap.Counts["overflow"] != 1 {
		t.Fatalf("trace snapshot: %+v", snap)
	}
}

func TestHealthz(t *testing.T) {
	base := startPlane(t, &adminPlane{})
	if body := expect(t, "GET", base+"/healthz", 200, textPlain); string(body) != "ok\n" {
		t.Fatalf("/healthz: %q", body)
	}
	expect(t, "GET", base+"/nope", 404, textPlain)
}

// TestRootz: the log view, and the forging endpoint only with -tamper, and
// only by POST.
func TestRootz(t *testing.T) {
	a, err := proof.NewAuthority(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	base := startPlane(t, &adminPlane{auth: a, tamper: true})
	expect(t, "POST", base+"/rootz/tamper", 409, textPlain) // nothing published yet
	a.Publish(proof.Digest{1})
	if body := expect(t, "GET", base+"/rootz", 200, appJSON); !strings.Contains(string(body), `"epoch":1`) {
		t.Fatalf("/rootz: %s", body)
	}
	expect(t, "GET", base+"/rootz/tamper", 405, textPlain)
	expect(t, "POST", base+"/rootz/tamper", 200, textPlain)

	off := startPlane(t, &adminPlane{auth: a})
	expect(t, "POST", off+"/rootz/tamper", 404, textPlain)
}

func TestPprofExposed(t *testing.T) {
	base := startPlane(t, &adminPlane{})
	if body := expect(t, "GET", base+"/debug/pprof/", 200, textPlain); !strings.Contains(string(body), " goroutine\n") {
		t.Fatalf("index: %s", body)
	}
	expect(t, "GET", base+"/debug/pprof/cmdline", 200, textPlain)
	if body := expect(t, "GET", base+"/debug/pprof/goroutine?debug=1", 200, textPlain); !bytes.Contains(body, []byte("goroutine profile:")) {
		t.Fatalf("goroutine?debug=1: %.200s", body)
	}
	expect(t, "GET", base+"/debug/pprof/heap", 200, octets)
	expect(t, "GET", base+"/debug/pprof/nosuch", 404, textPlain)
	expect(t, "GET", base+"/debug/pprof/profile?seconds=0.2", 200, octets)
	expect(t, "GET", base+"/debug/pprof/trace?seconds=0.2", 200, octets)
}

// TestGoToolPprofReadsTheHeap: the profile tool fetches and parses what the
// plane serves.
func TestGoToolPprofReadsTheHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	base := startPlane(t, &adminPlane{})
	cmd := exec.Command(gobin, "tool", "pprof", "-top", base+"/debug/pprof/heap")
	cmd.Env = append(cmd.Environ(), "PPROF_TMPDIR="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("flat%")) {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}
}

// rawExchange writes raw to the plane, half-closes if asked, and returns
// everything the plane sends before it closes.
func rawExchange(t *testing.T, base, raw string, closeWrite bool) string {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		_ = c.(*net.TCPConn).CloseWrite()
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read: %v (after %q)", err, got)
	}
	return string(got)
}

// TestAdminHead: the request head is bounded and checked before anything
// routes on it.
func TestAdminHead(t *testing.T) {
	base := startPlane(t, &adminPlane{})
	big := "GET /healthz HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxAdminHead) + "\r\n\r\n"
	if got := rawExchange(t, base, big, false); !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Errorf("oversized head: %q", got)
	}
	for _, raw := range []string{
		"GET\r\n\r\n",
		"GET /healthz HTTP/2.0\r\n\r\n",
		"GET healthz HTTP/1.1\r\n\r\n",
		"GET /health z HTTP/1.1\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nno colon\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n folded: x\r\n\r\n",
		"G(T /healthz HTTP/1.1\r\n\r\n",
	} {
		if got := rawExchange(t, base, raw, false); !strings.HasPrefix(got, "HTTP/1.1 400 ") {
			t.Errorf("%q: %q, want a 400", raw, got)
		}
	}
	if got := rawExchange(t, base, "GET /metricz HTT", true); got != "" {
		t.Errorf("head cut off mid-line: got %q, want the connection closed unanswered", got)
	}
	got := rawExchange(t, base, "GET /healthz HTTP/1.0\n\n", false)
	if !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") || !strings.Contains(got, "\r\nContent-Length: 3\r\n") || !strings.HasSuffix(got, "\r\n\r\nok\n") {
		t.Errorf("bare-LF head: %q", got)
	}
}

// TestAdminConnectionCap: with every slot held by a client that has sent
// nothing, the next request waits until one of them goes.
func TestAdminConnectionCap(t *testing.T) {
	base := startPlane(t, &adminPlane{})
	var idle []net.Conn
	for range maxAdminConns {
		c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle = append(idle, c)
	}
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	answered := make(chan string, 1)
	go func() {
		got, _ := io.ReadAll(c)
		answered <- string(got)
	}()
	select {
	case got := <-answered:
		t.Fatalf("answered past the cap: %q", got)
	case <-time.After(300 * time.Millisecond):
	}
	idle[0].Close()
	if got := <-answered; !strings.HasSuffix(got, "\r\n\r\nok\n") {
		t.Fatalf("after a slot freed: %q", got)
	}
}

// TestServeShutdown: cancellation ends Serve with nil, even with a client
// connected that has sent nothing, and even mid-profile.
func TestServeShutdown(t *testing.T) {
	p := &adminPlane{reg: obs.NewRegistry(), tracer: obs.NewTracer(8)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Serve(ctx, ln) }()
	addr := ln.Addr().String()
	fetch(t, "GET", "http://"+addr+"/metricz")
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	profiling := make(chan error, 1)
	go func() {
		_, err := http.Get("http://" + addr + "/debug/pprof/profile?seconds=60")
		profiling <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	<-profiling
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting after Serve returned")
	}
}

// fakeConn is a net.Conn over a byte slice that records what is written and
// whether it was closed.
type fakeConn struct {
	net.Conn
	r      io.Reader
	w      bytes.Buffer
	closed bool
}

func (c *fakeConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fakeConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *fakeConn) Close() error                     { c.closed = true; return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// chunked hands out its bytes at most n at a time, so a head arrives split
// at every offset the fuzzer chooses.
type chunked struct {
	b []byte
	n int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	m := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[m:]
	return m, nil
}

// FuzzAdminRequest: the head parser faces whatever a client sends. It never
// reads past the 8 KiB head, never panics, returns nothing longer than what
// it read, and every head it refuses is answered with a 400 (431 when it
// does not end within the cap) on a connection that is then closed.
func FuzzAdminRequest(f *testing.F) {
	for _, s := range []string{
		"GET /metricz?tenant=a HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /rootz/tamper HTTP/1.1\r\nUser-Agent: curl\r\nAccept: */*\r\n\r\n",
		"GET /debug/pprof/heap?debug=1 HTTP/1.0\n\n",
		"GET / HTTP/1.1\r\n folded\r\n\r\n",
		"GET /%zz?%zz=1&a=%41 HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
		"GET /healthz HTT",
	} {
		f.Add([]byte(s), uint16(1))
		f.Add([]byte(s), uint16(4096))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		src := &chunked{b: data, n: int(chunk)%maxAdminHead + 1}
		req, err := readAdminRequest(src)
		read := len(data) - len(src.b)
		if read > maxAdminHead {
			t.Fatalf("read %d bytes, past the %d-byte head", read, maxAdminHead)
		}
		var status int
		switch {
		case err == nil:
			n := len(req.method) + len(req.path)
			for k, vs := range req.query {
				n += len(k)
				for _, v := range vs {
					n += len(v)
				}
			}
			if n > read || !strings.HasPrefix(req.path, "/") {
				t.Fatalf("parsed %+v out of %d bytes", req, read)
			}
			return
		case errors.Is(err, errHeadTooLarge):
			status = 431
		case errors.Is(err, errMalformed):
			status = 400
		case errors.Is(err, io.ErrUnexpectedEOF):
			if bytes.Contains(data, []byte("\n\n")) || bytes.Contains(data, []byte("\n\r\n")) {
				t.Fatalf("complete head reported cut off: %q", data)
			}
			return
		default:
			t.Fatalf("unexpected error %v", err)
		}
		c := &fakeConn{r: bytes.NewReader(data)}
		(&adminPlane{}).serveConn(context.Background(), c)
		want := "HTTP/1.1 " + strconv.Itoa(status) + " "
		if !strings.HasPrefix(c.w.String(), want) || !c.closed {
			t.Fatalf("refused head answered %q (closed %v), want %q and a close", c.w.String(), c.closed, want)
		}
	})
}
