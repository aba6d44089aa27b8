package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
)

// ResilientConfig tunes a ResilientClient.
type ResilientConfig struct {
	// Addr is the morphserve (or chaos proxy) address to dial.
	Addr string
	// Addrs, when non-empty, is a cluster seed list and supersedes Addr.
	// The client starts at the first seed, rotates to the next on a dial
	// failure (a dead node must not absorb every retry), and re-targets
	// the advertised leader when a node answers StatusMoved. Routes carry
	// fencing epochs; when nodes disagree the highest epoch wins, so a
	// deposed primary cannot pull clients back.
	Addrs []string
	// Timeout bounds each dial and each individual round trip
	// (default 10s).
	Timeout time.Duration
	// MaxAttempts caps how many times one op is tried, first attempt
	// included (default 8).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; each further retry
	// doubles it up to MaxBackoff, and every sleep is jittered into
	// [d/2, d) so a fleet of shed clients does not retry in lockstep
	// (defaults 10ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryWrites opts non-idempotent ops (Write, Tamper) into retrying
	// after transport errors. The protocol has no request IDs, so a write
	// whose connection died mid-round-trip may or may not have been
	// applied; retrying re-applies it. That is only safe when the caller
	// knows re-applying is harmless (morphload and morphcheck rewrite
	// the same content, so it is). Busy sheds and failed dials are always
	// retried — the server promises those requests had no effect.
	RetryWrites bool
	// Seed drives the backoff jitter RNG, keeping fault-matrix runs
	// reproducible.
	Seed int64
	// TenantID, when non-empty, binds every connection (including
	// reconnects) to a tenant with a HELLO exchange right after dialing,
	// proving possession of TenantSecret. A failed HELLO fails the dial,
	// so ops never run unauthenticated after a reconnect.
	TenantID     string
	TenantSecret string
	// Logf, when set, observes reconnects and retries (nil discards).
	Logf func(format string, args ...any)
	// Obs, when non-nil, mirrors the resilience counters into live
	// wire.retries / wire.sheds / wire.reconnects / wire.failures
	// counters (Counters() remains the end-of-run snapshot).
	Obs *obs.Registry
	// Tracer, when non-nil, receives Reconnect and Retry events.
	Tracer *obs.Tracer
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	return c
}

// ResilientStats counts what resilience cost: how often ops were retried,
// connections replaced, and requests shed by the server.
type ResilientStats struct {
	// Ops is the number of top-level calls; Failures those that returned
	// an error after all retries (or a fatal verdict immediately).
	Ops      uint64 `json:"ops"`
	Failures uint64 `json:"failures"`
	// Retries counts every extra attempt; Sheds the attempts answered
	// StatusBusy; Reconnects the replacement dials after the first.
	Retries    uint64 `json:"retries"`
	Sheds      uint64 `json:"sheds"`
	Reconnects uint64 `json:"reconnects"`
	// Reroutes counts not-primary redirects: attempts answered
	// StatusMoved that re-targeted the client at another node.
	Reroutes uint64 `json:"reroutes"`
}

// ResilientClient wraps the single-connection Client with reconnection,
// capped exponential backoff with jitter, and bounded retries governed by
// the IsRetryable taxonomy: busy sheds retry always, transport errors
// retry idempotent ops (and writes only with RetryWrites), integrity
// violations and remote verdicts fail immediately. A poisoned connection
// is discarded and redialed — never reused — so the framing-desync class
// of bug cannot recur. Safe for concurrent use.
type ResilientClient struct {
	cfg ResilientConfig
	// Live obs counters mirroring stats (nil-safe; set at construction).
	cOps, cRetries, cSheds, cReconnects, cFailures, cReroutes *obs.Counter

	mu        sync.Mutex
	cl        *Client // nil when disconnected
	connected bool    // a dial has succeeded at least once
	rng       *rand.Rand
	stats     ResilientStats
	target    string // address the next dial goes to
	seedIdx   int    // position in cfg.Addrs the target came from
	epoch     uint64 // highest fencing epoch seen in MovedError redirects
	tpFails   int    // consecutive transport errors against the current target
}

// NewResilient builds a resilient client; it does not dial until the
// first op (or Ping).
func NewResilient(cfg ResilientConfig) *ResilientClient {
	cfg = cfg.withDefaults()
	target := cfg.Addr
	if len(cfg.Addrs) > 0 {
		target = cfg.Addrs[0]
	}
	return &ResilientClient{
		cfg:         cfg,
		cOps:        cfg.Obs.Counter("wire.ops"),
		cRetries:    cfg.Obs.Counter("wire.retries"),
		cSheds:      cfg.Obs.Counter("wire.sheds"),
		cReconnects: cfg.Obs.Counter("wire.reconnects"),
		cFailures:   cfg.Obs.Counter("wire.failures"),
		cReroutes:   cfg.Obs.Counter("wire.reroutes"),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		target:      target,
	}
}

// Counters returns a snapshot of the resilience counters.
func (r *ResilientClient) Counters() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close drops the current connection, if any. The client remains usable:
// the next op redials.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	cl := r.cl
	r.cl = nil
	r.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}

// logf reports through cfg.Logf, if set.
func (r *ResilientClient) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// conn returns the live connection, dialing a new one if needed.
func (r *ResilientClient) conn() (*Client, error) {
	r.mu.Lock()
	if cl := r.cl; cl != nil {
		r.mu.Unlock()
		return cl, nil
	}
	reconnect := r.connected
	addr := r.target
	r.mu.Unlock()
	cl, err := Dial(addr, r.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	if r.cfg.TenantID != "" {
		// Re-bind the tenant before the connection serves any op: a
		// reconnect must never downgrade to an unauthenticated stream.
		if err := cl.Hello(r.cfg.TenantID, r.cfg.TenantSecret); err != nil {
			_ = cl.Close()
			return nil, fmt.Errorf("wire: hello %q: %w", r.cfg.TenantID, err)
		}
	}
	r.mu.Lock()
	if r.cl != nil {
		// Another goroutine won the redial race; use its connection.
		winner := r.cl
		r.mu.Unlock()
		_ = cl.Close()
		return winner, nil
	}
	r.cl = cl
	r.connected = true
	if reconnect {
		r.stats.Reconnects++
	}
	r.mu.Unlock()
	if reconnect {
		r.cReconnects.Inc()
		r.cfg.Tracer.Emit(obs.KindReconnect, -1, 0, 0, 0)
		r.logf("wire: reconnected to %s", addr)
	}
	return cl, nil
}

// rotate advances the target to the next seed address after a dial
// failure, so a dead node does not absorb every remaining attempt. A
// no-op without a seed list (single-address clients keep redialing the
// one server they have).
func (r *ResilientClient) rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.cfg.Addrs) < 2 {
		return
	}
	r.seedIdx = (r.seedIdx + 1) % len(r.cfg.Addrs)
	r.target = r.cfg.Addrs[r.seedIdx]
	r.tpFails = 0
}

// reroute re-targets the client after a not-primary redirect. A redirect
// naming a leader at an epoch >= the highest seen wins the target; a
// leaderless redirect (the responder does not know who leads) falls back
// to seed rotation so the next attempt at least lands on a different
// node.
func (r *ResilientClient) reroute(me *MovedError) {
	r.mu.Lock()
	if me.Epoch >= r.epoch {
		r.epoch = me.Epoch
	}
	switch {
	case me.Leader != "" && me.Epoch >= r.epoch:
		r.target = me.Leader
	case len(r.cfg.Addrs) >= 2:
		r.seedIdx = (r.seedIdx + 1) % len(r.cfg.Addrs)
		r.target = r.cfg.Addrs[r.seedIdx]
	}
	target := r.target
	r.tpFails = 0
	r.stats.Reroutes++
	r.mu.Unlock()
	r.cReroutes.Inc()
	var known uint64
	if me.Leader != "" {
		known = 1
	}
	r.cfg.Tracer.Emit(obs.KindReroute, -1, me.Epoch, known, 0)
	r.logf("wire: not primary (epoch %d); re-targeting %s", me.Epoch, target)
}

// discard retires a connection after a transport error (it is poisoned or
// otherwise dead). Only the goroutine whose *Client is still current
// clears it, so a concurrent op's fresh connection is never thrown away.
func (r *ResilientClient) discard(cl *Client) {
	r.mu.Lock()
	if r.cl == cl {
		r.cl = nil
	}
	r.mu.Unlock()
	_ = cl.Close()
}

// backoff computes the jittered sleep before retry number n (1-based).
func (r *ResilientClient) backoff(n int) time.Duration {
	d := r.cfg.BaseBackoff << (n - 1)
	if d <= 0 || d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d/2 + 1)))
	r.mu.Unlock()
	return d/2 + j
}

// do runs one op through the retry loop. retryTransport says whether the
// op may be retried after a transport error left its outcome unknown —
// true for idempotent ops, RetryWrites for the rest. The context bounds
// the whole loop: cancellation is honored between attempts and during
// backoff sleeps, never silently outlived.
func (r *ResilientClient) do(ctx context.Context, retryTransport bool, opName string, f func(*Client) error) error {
	r.mu.Lock()
	r.stats.Ops++
	r.mu.Unlock()
	r.cOps.Inc()
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			r.fail()
			return fmt.Errorf("wire: %s canceled: %w", opName, err)
		}
		cl, err := r.conn()
		if err != nil {
			// Dial failure: no request was sent, retrying is safe for
			// every op. With a seed list, try a different node next.
			last = err
			r.rotate()
		} else {
			err = f(cl)
			if err == nil {
				r.mu.Lock()
				r.tpFails = 0
				r.mu.Unlock()
				return nil
			}
			last = err
			var me *MovedError
			switch {
			case IsShed(err):
				// Shed before execution (busy or quota): connection
				// healthy, retry safe.
				r.mu.Lock()
				r.stats.Sheds++
				r.mu.Unlock()
				r.cSheds.Inc()
			case errors.As(err, &me):
				// Not-primary redirect: refused before execution, so
				// retrying is safe for every op (writes included, no
				// RetryWrites opt-in needed) — but against the right
				// node. This connection points at the wrong one; drop
				// it and re-target.
				r.discard(cl)
				r.reroute(me)
			case !IsRetryable(err):
				r.fail()
				return err
			default:
				// Transport error: outcome unknown, connection dead.
				r.discard(cl)
				// A target that keeps accepting dials but failing
				// mid-connection (a proxy whose backend died, a
				// half-broken node) must not absorb every attempt:
				// after two consecutive transport errors, rotate. The
				// streak spans ops, so even a no-retry client escapes a
				// dead target on its next call.
				r.mu.Lock()
				r.tpFails++
				tooMany := r.tpFails >= 2
				if tooMany {
					r.tpFails = 0
				}
				r.mu.Unlock()
				if tooMany {
					r.rotate()
				}
				if !retryTransport {
					r.fail()
					return fmt.Errorf("wire: %s outcome unknown after transport error (not idempotent, RetryWrites off): %w", opName, err)
				}
			}
		}
		if attempt >= r.cfg.MaxAttempts {
			r.fail()
			return fmt.Errorf("wire: %s failed after %d attempts: %w", opName, attempt, last)
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		r.cRetries.Inc()
		var shedBit uint64
		if IsShed(last) {
			shedBit = 1
		}
		r.cfg.Tracer.Emit(obs.KindRetry, -1, uint64(attempt), shedBit, 0)
		sleep := r.backoff(attempt)
		r.logf("wire: %s attempt %d/%d failed (%v); retrying in %v", opName, attempt, r.cfg.MaxAttempts, last, sleep)
		if err := sleepCtx(ctx, sleep); err != nil {
			r.fail()
			return fmt.Errorf("wire: %s canceled during retry backoff (last attempt error: %v): %w", opName, last, err)
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first. A
// context that can never be canceled sleeps without arming a timer.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (r *ResilientClient) fail() {
	r.mu.Lock()
	r.stats.Failures++
	r.mu.Unlock()
	r.cFailures.Inc()
}

// Read fetches and verifies the line at a line-aligned address.
// Idempotent: retried freely; an IntegrityError is surfaced immediately,
// never retried into a false alarm.
func (r *ResilientClient) Read(addr uint64) ([]byte, error) {
	var line []byte
	err := r.do(context.Background(), true, "READ", func(cl *Client) error {
		var err error
		line, err = cl.Read(addr)
		return err
	})
	return line, err
}

// Write stores a 64-byte line. Transport-ambiguous retries only happen
// with RetryWrites (see ResilientConfig); busy sheds always retry.
func (r *ResilientClient) Write(addr uint64, line []byte) error {
	return r.do(context.Background(), r.cfg.RetryWrites, "WRITE", func(cl *Client) error {
		return cl.Write(addr, line)
	})
}

// Verify asks the server to re-verify every written line. Idempotent.
func (r *ResilientClient) Verify() error {
	return r.do(context.Background(), true, "VERIFY", func(cl *Client) error { return cl.Verify() })
}

// Stats fetches the server's aggregated shard stats. Idempotent.
func (r *ResilientClient) Stats() (secmem.Stats, error) {
	var st secmem.Stats
	err := r.do(context.Background(), true, "STATS", func(cl *Client) error {
		var err error
		st, err = cl.Stats()
		return err
	})
	return st, err
}

// Ping checks liveness. Idempotent.
func (r *ResilientClient) Ping() error {
	return r.do(context.Background(), true, "PING", func(cl *Client) error { return cl.Ping() })
}

// Checkpoint forces a durable checkpoint. Idempotent: cutting an extra
// checkpoint after an ambiguous outcome only shortens replay.
func (r *ResilientClient) Checkpoint() (uint64, error) {
	var seq uint64
	err := r.do(context.Background(), true, "CHECKPOINT", func(cl *Client) error {
		var err error
		seq, err = cl.Checkpoint()
		return err
	})
	return seq, err
}

// Tamper flips a stored ciphertext bit (adversary interface). Not
// idempotent — a double flip restores the bit — so transport retries
// follow RetryWrites like Write does.
func (r *ResilientClient) Tamper(addr uint64) error {
	return r.do(context.Background(), r.cfg.RetryWrites, "TAMPER", func(cl *Client) error { return cl.Tamper(addr) })
}

// Proof fetches the verifiable-read witness for an address. Idempotent.
func (r *ResilientClient) Proof(addr uint64) (*proof.Proof, error) {
	var p *proof.Proof
	err := r.do(context.Background(), true, "PROOF", func(cl *Client) error {
		var err error
		p, err = cl.Proof(addr)
		return err
	})
	return p, err
}

// Root fetches the transparency log's current position. Idempotent.
func (r *ResilientClient) Root() (*proof.RootInfo, error) {
	var ri *proof.RootInfo
	err := r.do(context.Background(), true, "ROOT", func(cl *Client) error {
		var err error
		ri, err = cl.Root()
		return err
	})
	return ri, err
}

// RootRange fetches transparency-log entries [from, to) with the
// consistency proof between the two log sizes. Idempotent.
func (r *ResilientClient) RootRange(from, to uint64) (*proof.RangeResult, error) {
	var rr *proof.RangeResult
	err := r.do(context.Background(), true, "ROOTRANGE", func(cl *Client) error {
		var err error
		rr, err = cl.RootRange(from, to)
		return err
	})
	return rr, err
}

// Route fetches the answering node's cluster view. Idempotent, served by
// every role (replicas answer too), so it works for leader discovery and
// for control planes surveying survivors after a node loss.
func (r *ResilientClient) Route() (*RouteInfo, error) {
	var ri *RouteInfo
	err := r.do(context.Background(), true, "ROUTE", func(cl *Client) error {
		var err error
		ri, err = cl.Route()
		return err
	})
	return ri, err
}
