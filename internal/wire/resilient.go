package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ResilientConfig tunes the retry policy of a client built by NewResilient.
type ResilientConfig struct {
	// Addrs is the address to dial, or a cluster seed list. The client
	// starts at the first, rotates to the next on a dial failure (a dead
	// node must not absorb every retry), and re-targets the advertised
	// leader when a node answers StatusMoved. Routes carry fencing epochs;
	// when nodes disagree the highest epoch wins, so a deposed primary
	// cannot pull clients back.
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
	// proving possession of TenantSecret. A HELLO the server refuses fails
	// the op at once: bad credentials are a verdict, not a network fault.
	TenantID     string
	TenantSecret string
	// Logf, when set, observes reconnects and retries (nil discards).
	Logf func(format string, args ...any)
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

// policy is a resilient client's retry state. Ops on a client run one at
// a time, so the client's mu guards it like the rest of the request path.
type policy struct {
	cfg     ResilientConfig
	rng     *rand.Rand
	stats   ResilientStats
	target  string // address the next dial goes to
	seedIdx int    // position in cfg.Addrs the target came from
	epoch   uint64 // highest fencing epoch seen in MovedError redirects
	tpFails int    // consecutive transport errors against the current target
	dialed  bool   // a dial has succeeded at least once
}

// NewResilient builds a client that dials on demand — not before its first
// op — and retries under the IsRetryable taxonomy: busy sheds and failed
// dials retry always, transport errors retry idempotent ops (and writes
// only with RetryWrites), integrity violations and remote verdicts fail
// at once. A poisoned connection is discarded and redialed, never reused,
// so the framing-desync class of bug cannot recur.
func NewResilient(cfg ResilientConfig) *Client {
	cfg = cfg.withDefaults()
	p := &policy{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if len(cfg.Addrs) > 0 {
		p.target = cfg.Addrs[0]
	}
	return &Client{timeout: cfg.Timeout, retry: p}
}

// Counters returns a snapshot of the resilience counters, taken between
// ops (all zero for a client built by Dial or NewClient).
func (c *Client) Counters() ResilientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retry == nil {
		return ResilientStats{}
	}
	return c.retry.stats
}

// retried is do under a resilient policy: attempts until one succeeds, a
// verdict ends the op, or MaxAttempts runs out, with a jittered backoff
// between attempts.
func (c *Client) retried(op byte, req []byte, retryTransport bool, decode func(body []byte) error) error {
	p := c.retry
	p.stats.Ops++
	for n := 1; ; n++ {
		again, err := c.attempt(op, req, retryTransport, decode)
		switch {
		case err == nil:
			return nil
		case !again:
			p.stats.Failures++
			return err
		case n >= p.cfg.MaxAttempts:
			p.stats.Failures++
			return fmt.Errorf("wire: %s failed after %d attempts: %w", OpName(op), n, err)
		}
		p.stats.Retries++
		d := p.backoff(n)
		p.logf("wire: %s attempt %d/%d failed (%v); retrying in %v", OpName(op), n, p.cfg.MaxAttempts, err, d)
		time.Sleep(d)
	}
}

// attempt is one try of a resilient op; again reports whether its error
// leaves another try safe.
func (c *Client) attempt(op byte, req []byte, retryTransport bool, decode func(body []byte) error) (again bool, err error) {
	p := c.retry
	if err := c.redial(); err != nil {
		// A failed dial sent nothing, so every op may try again, on the
		// next seed if there is one. A HELLO the server refused is a
		// verdict on the credentials that no redial changes.
		if !IsRetryable(err) {
			return false, err
		}
		p.rotate()
		return true, err
	}
	if err = c.once(op, req, decode); err == nil {
		p.tpFails = 0
		return false, nil
	}
	var me *MovedError // escapes into errors.As: declared past the success path
	switch {
	case IsShed(err):
		// Shed before execution (busy or quota): connection healthy.
		p.stats.Sheds++
		return true, err
	case errors.As(err, &me):
		// Refused before execution by a node that does not lead: safe
		// for every op, writes included, once aimed at the right node.
		c.discard()
		p.reroute(me)
		return true, err
	case !IsRetryable(err):
		return false, err
	}
	// Transport error: outcome unknown, connection dead. A target that
	// keeps accepting dials but failing mid-connection (a half-broken
	// node) must not absorb every attempt: after two consecutive transport
	// errors, rotate. The streak spans ops, so even a no-retry client
	// escapes a dead target on its next call.
	c.discard()
	if p.tpFails++; p.tpFails >= 2 {
		p.rotate()
	}
	if !retryTransport {
		return false, fmt.Errorf("wire: %s outcome unknown after transport error (not idempotent, RetryWrites off): %w", OpName(op), err)
	}
	return true, err
}

// redial gives a resilient client a connection if it has none: dial the
// target and, with a tenant configured, bind the stream before it serves
// any op, so a reconnect never downgrades to an unauthenticated stream.
func (c *Client) redial() error {
	if c.conn != nil {
		return nil
	}
	p := c.retry
	conn, err := dial(p.target, c.timeout)
	if err != nil {
		return err
	}
	c.closeMu.Lock()
	closed := c.closed
	if !closed {
		c.attach(conn)
	}
	c.closeMu.Unlock()
	if closed {
		_ = conn.Close()
		return errClosed
	}
	if id := p.cfg.TenantID; id != "" {
		req, err := helloRequest(id, p.cfg.TenantSecret)
		if err == nil {
			_, err = c.roundTrip(OpHello, req)
		}
		if err != nil {
			c.discard()
			return fmt.Errorf("wire: hello %q: %w", id, err)
		}
	}
	if p.dialed {
		p.stats.Reconnects++
		p.logf("wire: reconnected to %s", p.target)
	}
	p.dialed = true
	return nil
}

// discard retires a resilient client's connection — dead, poisoned, or
// aimed at the wrong node — so the next attempt dials afresh.
func (c *Client) discard() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	_ = c.conn.Close()
	c.conn = nil
}

// rotate advances the target to the next seed address and starts a new
// transport-error streak. A one-address client keeps its address.
func (p *policy) rotate() {
	p.tpFails = 0
	if len(p.cfg.Addrs) > 1 {
		p.seedIdx = (p.seedIdx + 1) % len(p.cfg.Addrs)
		p.target = p.cfg.Addrs[p.seedIdx]
	}
}

// reroute re-targets the client after a not-primary redirect. A redirect
// naming a leader at an epoch >= the highest seen wins the target; any
// other (leaderless, or stale) falls back to seed rotation so the next
// attempt at least lands on a different node.
func (p *policy) reroute(me *MovedError) {
	p.epoch = max(p.epoch, me.Epoch)
	if me.Leader != "" && me.Epoch == p.epoch {
		p.target = me.Leader
		p.tpFails = 0
	} else {
		p.rotate()
	}
	p.stats.Reroutes++
	p.logf("wire: not primary (epoch %d); re-targeting %s", me.Epoch, p.target)
}

// backoff computes the jittered sleep before retry number n (1-based).
func (p *policy) backoff(n int) time.Duration {
	d := p.cfg.BaseBackoff << (n - 1)
	if d <= 0 || d > p.cfg.MaxBackoff {
		d = p.cfg.MaxBackoff
	}
	return d/2 + time.Duration(p.rng.Int63n(int64(d/2+1)))
}

// logf reports through cfg.Logf, if set.
func (p *policy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}
