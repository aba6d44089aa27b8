// Package fault is a deterministic, seeded network fault-injection layer
// for the serving stack: a net.Listener wrapper that a harness puts around
// the listener its server already serves on, so every accepted connection
// carries the failures real networks produce — added latency and jitter,
// partial writes, read stalls, connection resets, and mid-frame drops at
// chosen byte offsets. A wrapped server connection's Read side is the
// client-to-server direction and its Write side carries the responses.
//
// Everything is driven by explicit per-connection plans derived from a
// Profile's seed, never from ambient randomness, so a failing fault
// schedule replays exactly from its seed. The package injects only
// failures an unreliable-but-honest network can produce: bytes are
// delayed, split, or cut — never altered — so any IntegrityError observed
// under injection is by construction spurious.
package fault

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Event kinds reported to a Conn's observer as faults fire.
const (
	// EventCut is an injected connection reset (mid-stream sever).
	EventCut = "cut"
	// EventStall is an injected read stall.
	EventStall = "stall"
)

// ErrInjected is the error a Conn returns once its cut budget is spent.
// It implements net.Error (non-timeout), like the ECONNRESET it stands
// in for.
var ErrInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string   { return "fault: injected connection reset" }
func (*injectedError) Timeout() bool   { return false }
func (*injectedError) Temporary() bool { return true }

// ConnPlan is one connection's fault schedule. Byte offsets are absolute
// positions in that direction's stream; a negative offset disables the
// fault. The zero value (with offsets left 0) cuts immediately, so plans
// should come from PassPlan or Profile.Plan rather than a bare literal.
type ConnPlan struct {
	// ReadLatency / WriteLatency delay each Read / Write call; Jitter
	// adds a uniform random extra in [0, Jitter) from the plan's seeded
	// RNG.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	Jitter       time.Duration
	// ChunkBytes caps how many bytes a single Write pushes to the
	// underlying connection at once (0 = unlimited). Each chunk pays the
	// write latency separately, so a frame crosses the wire as several
	// delayed partial writes.
	ChunkBytes int
	// CutReadAfter severs the connection once this many bytes have been
	// read (mid-frame drop / reset as seen by the peer still writing).
	// Negative disables.
	CutReadAfter int64
	// CutWriteAfter severs the connection once this many bytes have been
	// written. Negative disables.
	CutWriteAfter int64
	// StallReadAfter freezes the first Read at or past this byte offset
	// for StallFor, then severs the connection. The withheld bytes are
	// never delivered: by the time a real network unfreezes, the peer has
	// timed out and its reset has killed the flow — late delivery would
	// instead resurrect abandoned requests as zombies that a protocol
	// without request IDs cannot defend against. Negative disables.
	StallReadAfter int64
	StallFor       time.Duration
	// Seed drives the plan's private jitter RNG.
	Seed int64
}

// PassPlan is the no-fault plan: traffic flows untouched.
func PassPlan() ConnPlan {
	return ConnPlan{CutReadAfter: -1, CutWriteAfter: -1, StallReadAfter: -1}
}

// Conn wraps a net.Conn and applies a ConnPlan to its Read/Write paths.
// It is safe for the usual one-reader/one-writer connection usage.
type Conn struct {
	net.Conn
	plan    ConnPlan
	onEvent func(kind string)

	mu      sync.Mutex
	rng     *rand.Rand
	readN   int64
	writeN  int64
	stalled bool
	cut     bool
}

// WrapConn applies plan to conn. onEvent, if non-nil, observes injected
// faults (EventCut, EventStall); it must be safe for concurrent use.
func WrapConn(conn net.Conn, plan ConnPlan, onEvent func(kind string)) *Conn {
	return &Conn{
		Conn:    conn,
		plan:    plan,
		onEvent: onEvent,
		rng:     rand.New(rand.NewSource(plan.Seed)),
	}
}

func (c *Conn) event(kind string) {
	if c.onEvent != nil {
		c.onEvent(kind)
	}
}

// delay sleeps base plus seeded jitter.
func (c *Conn) delay(base time.Duration) {
	var extra time.Duration
	if c.plan.Jitter > 0 {
		c.mu.Lock()
		extra = time.Duration(c.rng.Int63n(int64(c.plan.Jitter)))
		c.mu.Unlock()
	}
	if d := base + extra; d > 0 {
		time.Sleep(d)
	}
}

// abort severs the underlying connection like a reset: TCP connections
// get SO_LINGER 0 so the peer sees an RST rather than an orderly FIN.
// Idempotent; only the first call reports EventCut.
func (c *Conn) abort() {
	c.mu.Lock()
	already := c.cut
	c.cut = true
	c.mu.Unlock()
	if already {
		return
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
	c.event(EventCut)
}

// Read applies latency, the one-shot stall, and the read-side cut budget,
// then reads at most up-to-the-budget bytes from the wrapped connection.
func (c *Conn) Read(p []byte) (int, error) {
	c.delay(c.plan.ReadLatency)
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	if c.plan.StallReadAfter >= 0 && !c.stalled && c.readN >= c.plan.StallReadAfter {
		c.stalled = true
		c.mu.Unlock()
		c.event(EventStall)
		time.Sleep(c.plan.StallFor)
		c.abort() // a frozen flow dies; it never delivers what it withheld
		return 0, ErrInjected
	}
	if cut := c.plan.CutReadAfter; cut >= 0 {
		rem := cut - c.readN
		if rem <= 0 {
			c.mu.Unlock()
			c.abort()
			return 0, ErrInjected
		}
		if int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.readN += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write applies latency and chunking, never pushing more than ChunkBytes
// at once, and severs the connection when the write-side cut budget is
// spent — possibly mid-frame, after a partial write of the prefix.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if c.plan.ChunkBytes > 0 && len(chunk) > c.plan.ChunkBytes {
			chunk = chunk[:c.plan.ChunkBytes]
		}
		c.delay(c.plan.WriteLatency)
		c.mu.Lock()
		if c.cut {
			c.mu.Unlock()
			return total, ErrInjected
		}
		if cut := c.plan.CutWriteAfter; cut >= 0 {
			rem := cut - c.writeN
			if rem <= 0 {
				c.mu.Unlock()
				c.abort()
				return total, ErrInjected
			}
			if int64(len(chunk)) > rem {
				chunk = chunk[:rem]
			}
		}
		c.mu.Unlock()
		n, err := c.Conn.Write(chunk)
		c.mu.Lock()
		c.writeN += int64(n)
		c.mu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// Profile generates the per-connection fault plans of a whole run from
// one seed. Plan(i) is a pure function of (Profile, i): replaying a
// workload against the same profile replays the identical fault
// schedule.
type Profile struct {
	// Seed drives every derived plan's jitter RNG.
	Seed int64
	// Latency/Jitter/ChunkBytes apply to every connection (see ConnPlan).
	Latency    time.Duration
	Jitter     time.Duration
	ChunkBytes int
	// CutEvery, when > 0, severs every CutEvery-th accepted connection
	// (1-based). The k-th severed connection is cut after
	// CutBase + (k mod CutCycle) bytes; the direction alternates every
	// full cycle (client-to-server first), so 2*CutCycle severed
	// connections deterministically sweep every intra-frame byte offset
	// in both directions.
	CutEvery int
	CutBase  int64
	CutCycle int64
	// StallEvery, when > 0, freezes every StallEvery-th connection's
	// client-to-server direction for StallFor once StallAfter bytes have
	// passed, then severs it — the response the client is waiting on
	// never comes, its deadline fires, and the frozen flow dies without
	// delivering the withheld request.
	StallEvery int
	StallAfter int64
	StallFor   time.Duration
}

// Plan derives the fault plan of the i-th (0-based) accepted connection.
func (p Profile) Plan(i int) ConnPlan {
	plan := PassPlan()
	plan.ReadLatency = p.Latency
	plan.WriteLatency = p.Latency
	plan.Jitter = p.Jitter
	plan.ChunkBytes = p.ChunkBytes
	// Per-connection seed: mix the profile seed with the index through a
	// 64-bit odd multiplier so adjacent connections get unrelated jitter.
	plan.Seed = int64(uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0x2545f4914f6cdd1d + 1)
	if p.CutEvery > 0 && (i+1)%p.CutEvery == 0 {
		k := (i+1)/p.CutEvery - 1
		cycle := p.CutCycle
		if cycle <= 0 {
			cycle = 1
		}
		off := p.CutBase + int64(k)%cycle
		if (int64(k)/cycle)%2 == 0 {
			plan.CutReadAfter = off
		} else {
			plan.CutWriteAfter = off
		}
	}
	if p.StallEvery > 0 && (i+1)%p.StallEvery == 0 {
		plan.StallReadAfter = p.StallAfter
		plan.StallFor = p.StallFor
	}
	return plan
}

// Listener wraps a net.Listener, applying plan(i) to the i-th accepted
// connection. Accept order therefore fully determines the fault schedule:
// a harness whose clients share a listener races them for the plans, so
// each replayable client dials a listener of its own.
type Listener struct {
	net.Listener
	plan    func(i int) ConnPlan
	onEvent func(kind string)

	mu  sync.Mutex
	idx int
}

// WrapListener wraps ln so every accepted connection carries plan(i) for
// its accept index i, usually a Profile's Plan. onEvent observes injected
// faults across all connections (may be nil).
func WrapListener(ln net.Listener, plan func(i int) ConnPlan, onEvent func(kind string)) *Listener {
	return &Listener{Listener: ln, plan: plan, onEvent: onEvent}
}

// Accept accepts the next connection and wraps it with its plan.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.idx
	l.idx++
	l.mu.Unlock()
	return WrapConn(conn, l.plan(i), l.onEvent), nil
}
