package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/cluster"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
)

// adminPlane is the operator listener -admin opens: the registry
// (/metricz), its event ring (/tracez), a liveness probe (/healthz), the
// transparency log (/rootz, and POST /rootz/tamper with -tamper), a cluster
// node's view of its cluster (/clusterz, with -cluster) and the runtime
// profiles (/debug/pprof/). It is a second listener so telemetry
// scrapes never compete with data-path admission control, and a bounded
// HTTP/1.1 responder of its own rather than net/http: one request per
// connection, at most maxAdminConns at once, the head capped at
// maxAdminHead and read under adminTimeout, every reply sent whole with its
// Content-Length and Connection: close.
type adminPlane struct {
	reg     *obs.Registry
	auth    *proof.Authority
	tamper  bool
	cluster *cluster.Node // nil outside -cluster
}

const (
	maxAdminHead  = 8 << 10
	adminTimeout  = 5 * time.Second
	maxAdminConns = 16 // a profile holds its connection for ?seconds=

	textPlain = "text/plain; charset=utf-8"
	appJSON   = "application/json"
	octets    = "application/octet-stream"
)

var (
	errHeadTooLarge = errors.New("request head over 8 KiB")
	errMalformed    = errors.New("malformed request head")

	statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
		409: "Conflict", 431: "Request Header Fields Too Large", 500: "Internal Server Error"}
)

// adminRequest is what the plane routes on; header fields are checked for
// form and otherwise ignored.
type adminRequest struct {
	method, path string
	query        url.Values
}

// adminResponse is one whole reply, so its length is known before its head
// is written.
type adminResponse struct {
	status int
	ctype  string
	body   []byte
}

func errorReply(status int, msg string) adminResponse {
	return adminResponse{status, textPlain, []byte(msg + "\n")}
}

func jsonReply(body []byte, err error) adminResponse {
	if err != nil {
		return errorReply(500, err.Error())
	}
	return adminResponse{200, appJSON, body}
}

// Serve answers admin requests on ln until ctx is cancelled, then closes
// the listener and every open connection and returns nil once their
// goroutines are gone. Any other accept error ends it with that error.
func (p *adminPlane) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, maxAdminConns) // a semaphore: one slot per open connection
	for {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			p.serveConn(ctx, c)
		}()
	}
}

func (p *adminPlane) serveConn(ctx context.Context, c net.Conn) {
	defer c.Close()
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	// A deadline fails only on a closed connection, whose next call fails too.
	_ = c.SetReadDeadline(time.Now().Add(adminTimeout))
	req, err := readAdminRequest(c)
	var resp adminResponse
	switch {
	case err == nil:
		resp = p.route(ctx, req)
	case errors.Is(err, errHeadTooLarge):
		resp = errorReply(431, err.Error())
	case errors.Is(err, errMalformed):
		resp = errorReply(400, err.Error())
	default:
		return // cut off or timed out: nobody to answer
	}
	_ = c.SetWriteDeadline(time.Now().Add(adminTimeout))
	out := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		resp.status, statusText[resp.status], resp.ctype, len(resp.body))
	if _, err := c.Write(append(out, resp.body...)); err != nil {
		return
	}
	// Half-close, then drain what the client still sends for a moment:
	// closing over unread request bytes resets the connection, and a reset
	// can destroy the reply before the client has read it.
	if cw, ok := c.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		_ = c.SetReadDeadline(time.Now().Add(adminTimeout))
		_, _ = io.Copy(io.Discard, io.LimitReader(c, 8*maxAdminHead))
	}
}

// readAdminRequest reads one request head from r, never more than
// maxAdminHead bytes of it: "METHOD /target HTTP/1.x", then header lines —
// a token name, a colon, a value free of control bytes — to an empty line,
// CRLF or bare LF. A head that does not end within the cap is
// errHeadTooLarge, one that does not parse errMalformed; a read error
// before the head ends is returned as it is (io.EOF as ErrUnexpectedEOF).
func readAdminRequest(r io.Reader) (adminRequest, error) {
	lr := &io.LimitedReader{R: r, N: maxAdminHead}
	br := bufio.NewReaderSize(lr, maxAdminHead)
	var req adminRequest
	for first := true; ; first = false {
		b, err := br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull || err == io.EOF && lr.N == 0:
			return req, errHeadTooLarge
		case err == io.EOF:
			return req, io.ErrUnexpectedEOF
		case err != nil:
			return req, err
		}
		line := strings.TrimSuffix(strings.TrimSuffix(string(b), "\n"), "\r")
		if first {
			method, rest, ok1 := strings.Cut(line, " ")
			target, proto, ok2 := strings.Cut(rest, " ")
			if !ok1 || !ok2 || !isToken(method) || !strings.HasPrefix(target, "/") ||
				strings.ContainsFunc(target, func(r rune) bool { return r <= ' ' || r >= 0x7f }) ||
				(proto != "HTTP/1.1" && proto != "HTTP/1.0") {
				return req, errMalformed
			}
			path, rawQuery, _ := strings.Cut(target, "?")
			query, _ := url.ParseQuery(rawQuery) // like net/http: keep what parses
			req = adminRequest{method, path, query}
			continue
		}
		if line == "" {
			return req, nil
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) || strings.ContainsFunc(value, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
			return adminRequest{}, errMalformed
		}
	}
}

// isToken reports whether s is a non-empty RFC 9110 token.
func isToken(s string) bool {
	for _, c := range []byte(s) {
		if c <= ' ' || c >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return s != ""
}

func (p *adminPlane) route(ctx context.Context, req adminRequest) adminResponse {
	switch path := req.path; {
	case path == "/metricz":
		snap := p.reg.Snapshot()
		// ?tenant=<id> slices the snapshot down to one tenant's metric
		// namespace (tenant.<id>.*) for tenant-scoped dashboards.
		if id := req.query.Get("tenant"); id != "" {
			snap = snap.FilterTenant(id)
		}
		return jsonReply(snap.Encode())
	case path == "/tracez":
		return jsonReply(p.reg.Tracer().Snapshot().Encode())
	case path == "/healthz":
		return adminResponse{200, textPlain, []byte("ok\n")}
	case path == "/rootz":
		return jsonReply(rootz(p.auth))
	case path == "/clusterz" && p.cluster != nil:
		// Here, not on the client port: the cluster map is for operators.
		return jsonReply(json.Marshal(p.cluster.Route()))
	case path == "/rootz/tamper" && p.tamper:
		// Adversary interface matching the wire TAMPER op: forge the log's
		// first entry in place — the split-view attack morphaudit exists to
		// catch.
		if req.method != "POST" {
			return errorReply(405, "POST only")
		}
		if !p.auth.TamperEntry(1) {
			return errorReply(409, "log has no entries to tamper")
		}
		return adminResponse{200, textPlain, []byte("forged epoch 1 root in transparency log\n")}
	case strings.HasPrefix(path, "/debug/pprof/"):
		return profile(ctx, strings.TrimPrefix(path, "/debug/pprof/"), req.query)
	}
	return errorReply(404, "404 page not found")
}

// profile serves /debug/pprof/<name>: the index, the command line, a CPU
// profile or execution trace over ?seconds=N, or a named runtime profile
// (?debug=N for the text forms).
func profile(ctx context.Context, name string, q url.Values) adminResponse {
	var b bytes.Buffer
	switch name {
	case "":
		b.WriteString("cmdline, profile?seconds=N (CPU, default 30), trace?seconds=N (default 1), and these profiles (?debug=N for text):\n")
		for _, prof := range pprof.Profiles() {
			fmt.Fprintf(&b, "%8d %s\n", prof.Count(), prof.Name())
		}
		return adminResponse{200, textPlain, b.Bytes()}
	case "cmdline":
		return adminResponse{200, textPlain, []byte(strings.Join(os.Args, "\x00"))}
	case "profile":
		if err := pprof.StartCPUProfile(&b); err != nil {
			return errorReply(500, "could not enable CPU profiling: "+err.Error())
		}
		sleep(ctx, q, 30)
		pprof.StopCPUProfile()
		return adminResponse{200, octets, b.Bytes()}
	case "trace":
		if err := trace.Start(&b); err != nil {
			return errorReply(500, "could not enable tracing: "+err.Error())
		}
		sleep(ctx, q, 1)
		trace.Stop()
		return adminResponse{200, octets, b.Bytes()}
	}
	prof := pprof.Lookup(name)
	if prof == nil {
		return errorReply(404, "unknown profile")
	}
	debug, _ := strconv.Atoi(q.Get("debug"))
	if err := prof.WriteTo(&b, debug); err != nil {
		return errorReply(500, err.Error())
	}
	if debug != 0 {
		return adminResponse{200, textPlain, b.Bytes()}
	}
	return adminResponse{200, octets, b.Bytes()}
}

// sleep waits ?seconds= (def when absent or not positive) or until ctx ends.
func sleep(ctx context.Context, q url.Values, def float64) {
	s, err := strconv.ParseFloat(q.Get("seconds"), 64)
	if err != nil || s <= 0 {
		s = def
	}
	t := time.NewTimer(time.Duration(s * float64(time.Second)))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// rootz is the transparency log's operator view: the signing key, the
// signed head, and every epoch entry, as JSON.
func rootz(a *proof.Authority) ([]byte, error) {
	head := a.Head()
	entries, err := a.Entries(0, a.Size())
	if err != nil {
		return nil, err
	}
	var list []map[string]any
	for _, e := range entries {
		list = append(list, map[string]any{"epoch": e.Epoch, "root": hex.EncodeToString(e.Root[:]),
			"prev": hex.EncodeToString(e.Prev[:]), "sig": hex.EncodeToString(e.Sig)})
	}
	return json.Marshal(map[string]any{"pub": hex.EncodeToString(a.Public()), "head_size": head.Size,
		"head_hash": hex.EncodeToString(head.Hash[:]), "head_sig": hex.EncodeToString(head.Sig),
		"unpublished": a.Unpublished(), "entries": list})
}
