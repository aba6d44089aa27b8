package tenant

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/obs"
)

// SchedConfig tunes the admission scheduler.
type SchedConfig struct {
	// Capacity is the global concurrent-admission limit the tenants share
	// (server.Config.MaxInflight).
	Capacity int
	// ShedWait bounds how long an operation may queue for a capacity
	// slot before it is shed with a *QuotaError (resource "capacity").
	// Zero sheds immediately when capacity is exhausted.
	ShedWait time.Duration
	// Now is the clock for token-bucket refill (tests inject one;
	// defaults to time.Now).
	Now func() time.Time
}

// Scheduler is a weighted fair admission scheduler: per-tenant token
// buckets (ops/s, bytes/s) and inflight caps enforced at admission time,
// plus deficit-weighted round-robin dequeue of capacity waiters so a
// greedy tenant cannot starve small ones — each tenant drains queued work
// in proportion to its Weight.
//
// Every shed happens before execution (the operation never touches the
// engine), so *QuotaError is always safe to retry after backoff.
type Scheduler struct {
	// Immutable after NewScheduler.
	reg *Registry
	cfg SchedConfig

	mu       sync.Mutex
	states   map[string]*tenantState
	order    []string // round-robin visit order (sorted tenant ids)
	cursor   int      // next tenant to visit in the DWRR scan
	inflight int      // global admitted count (vs cfg.Capacity)
}

// tenantState is one tenant's scheduling state; all fields are guarded by
// Scheduler.mu.
type tenantState struct {
	spec       Spec
	inflight   int
	queue      []*waiter
	deficit    float64
	opTokens   float64
	byteTokens float64
	lastRefill time.Time
	granted    uint64
	shedOps    uint64
	shedBytes  uint64
	shedCap    uint64 // per-tenant inflight cap
	shedWait   uint64 // capacity-wait timeouts
}

// waiter is one queued admission; granted flips under Scheduler.mu before
// ch closes, so a timed-out waiter can tell a lost race from a real shed.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// NewScheduler builds a scheduler over the registry's tenants. Capacity
// must be >= 1.
func NewScheduler(reg *Registry, cfg SchedConfig) (*Scheduler, error) {
	if reg == nil {
		return nil, fmt.Errorf("tenant: scheduler needs a registry")
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("tenant: scheduler capacity %d must be >= 1", cfg.Capacity)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Scheduler{
		reg:    reg,
		cfg:    cfg,
		states: make(map[string]*tenantState),
		order:  reg.IDs(),
	}
	now := cfg.Now()
	for _, id := range s.order {
		spec, _ := reg.Spec(id)
		s.states[id] = &tenantState{
			spec:       spec,
			opTokens:   burst(spec.OpsPerSec),
			byteTokens: burst(spec.BytesPerSec),
			lastRefill: now,
		}
	}
	return s, nil
}

// burst is a bucket's capacity: one second of rate, floor 1 so a
// single-token op can always eventually pass a configured bucket.
func burst(rate float64) float64 {
	if rate < 1 {
		return 1
	}
	return rate
}

// refill tops up a tenant's token buckets for the elapsed time. Called
// with s.mu held.
func (s *Scheduler) refill(st *tenantState, now time.Time) {
	elapsed := now.Sub(st.lastRefill).Seconds()
	if elapsed <= 0 {
		return
	}
	st.lastRefill = now
	if st.spec.OpsPerSec > 0 {
		st.opTokens += elapsed * st.spec.OpsPerSec
		if max := burst(st.spec.OpsPerSec); st.opTokens > max {
			st.opTokens = max
		}
	}
	if st.spec.BytesPerSec > 0 {
		st.byteTokens += elapsed * st.spec.BytesPerSec
		if max := burst(st.spec.BytesPerSec); st.byteTokens > max {
			st.byteTokens = max
		}
	}
}

// Acquire admits one operation of `bytes` payload for tenant id, blocking
// up to ShedWait for a global capacity slot. It returns nil when admitted
// (the caller must Release exactly once), a *QuotaError when the
// operation is shed by a rate limit, the tenant's inflight cap, or the
// capacity wait bound, and ctx.Err() when the caller's context ends
// first. Rate tokens are consumed at admission time, so shed operations
// never queue.
func (s *Scheduler) Acquire(ctx context.Context, id string, bytes int) error {
	s.mu.Lock()
	st, ok := s.states[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("tenant: unknown tenant %q", id)
	}
	if st.spec.OpsPerSec > 0 || st.spec.BytesPerSec > 0 {
		s.refill(st, s.cfg.Now()) // a tenant without a rate never reads the clock
	}
	if st.spec.OpsPerSec > 0 && st.opTokens < 1 {
		st.shedOps++
		s.mu.Unlock()
		return &QuotaError{Tenant: id, Resource: "ops", Msg: fmt.Sprintf("rate %.0f ops/s exhausted", st.spec.OpsPerSec)}
	}
	if st.spec.BytesPerSec > 0 && st.byteTokens < float64(bytes) {
		st.shedBytes++
		s.mu.Unlock()
		return &QuotaError{Tenant: id, Resource: "bytes", Msg: fmt.Sprintf("rate %.0f B/s exhausted", st.spec.BytesPerSec)}
	}
	if st.spec.MaxInflight > 0 && st.inflight+len(st.queue) >= st.spec.MaxInflight {
		st.shedCap++
		s.mu.Unlock()
		return &QuotaError{Tenant: id, Resource: "inflight", Msg: fmt.Sprintf("tenant inflight cap %d reached", st.spec.MaxInflight)}
	}
	// Past every per-tenant limit: consume the rate tokens — even if the
	// capacity wait below sheds, the tenant spent its turn (otherwise a
	// tenant could probe a saturated server for free).
	if st.spec.OpsPerSec > 0 {
		st.opTokens--
	}
	if st.spec.BytesPerSec > 0 {
		st.byteTokens -= float64(bytes)
	}
	if s.inflight < s.cfg.Capacity {
		// Spare global capacity: admit immediately (work-conserving; the
		// DWRR queue only forms once capacity is saturated).
		st.inflight++
		st.granted++
		s.inflight++
		s.mu.Unlock()
		return nil
	}
	if s.cfg.ShedWait <= 0 {
		st.shedWait++
		s.mu.Unlock()
		return &QuotaError{Tenant: id, Resource: "capacity", Msg: fmt.Sprintf("capacity %d saturated", s.cfg.Capacity)}
	}
	w := &waiter{ch: make(chan struct{})}
	st.queue = append(st.queue, w)
	s.mu.Unlock()

	timer := time.NewTimer(s.cfg.ShedWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return nil
	case <-timer.C:
	case <-ctx.Done():
	}
	s.mu.Lock()
	if w.granted {
		// Lost the race: a Release granted us between timeout and lock.
		// The admission stands; the caller proceeds and Releases.
		s.mu.Unlock()
		return nil
	}
	for i, q := range st.queue {
		if q == w {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			break
		}
	}
	if ctx.Err() != nil {
		s.mu.Unlock()
		return ctx.Err()
	}
	st.shedWait++
	s.mu.Unlock()
	return &QuotaError{Tenant: id, Resource: "capacity", Msg: fmt.Sprintf("no capacity slot within %v", s.cfg.ShedWait)}
}

// Release returns tenant id's admission slot and hands the freed global
// capacity to the next queued waiter chosen by deficit-weighted
// round-robin.
func (s *Scheduler) Release(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[id]
	if !ok || st.inflight == 0 {
		return
	}
	st.inflight--
	s.inflight--
	s.grantNext()
}

// grantNext fills free capacity slots from the queues in DWRR order.
// Called with s.mu held.
func (s *Scheduler) grantNext() {
	for s.inflight < s.cfg.Capacity {
		st, w := s.pick()
		if st == nil {
			return
		}
		st.inflight++
		st.granted++
		s.inflight++
		w.granted = true
		close(w.ch)
	}
}

// pick runs one deficit-weighted round-robin scan: a tenant with credit
// and queued work is served (cursor stays, so its remaining credit drains
// before the scan moves on); a queued tenant out of credit is replenished
// by its weight and skipped; an idle tenant's credit resets so it cannot
// hoard. Two sweeps bound the scan — the first replenishes, the second
// must serve if anyone is queued. Called with s.mu held.
func (s *Scheduler) pick() (*tenantState, *waiter) {
	n := len(s.order)
	for scanned := 0; scanned < 2*n; scanned++ {
		st := s.states[s.order[s.cursor%n]]
		if len(st.queue) == 0 {
			st.deficit = 0
			s.cursor = (s.cursor + 1) % n
			continue
		}
		if st.deficit >= 1 {
			st.deficit--
			w := st.queue[0]
			st.queue = st.queue[1:]
			return st, w
		}
		st.deficit += float64(st.spec.Weight)
		s.cursor = (s.cursor + 1) % n
	}
	return nil, nil
}

// TenantSnapshot is one tenant's scheduling counters at a point in time.
type TenantSnapshot struct {
	ID       string
	Inflight int
	Queued   int
	Granted  uint64
	// ShedOps/ShedBytes are rate-limit sheds; ShedInflight is the
	// per-tenant cap; ShedWait is capacity-wait timeouts.
	ShedOps      uint64
	ShedBytes    uint64
	ShedInflight uint64
	ShedWait     uint64
}

// Sheds is the tenant's total shed count across every resource.
func (t TenantSnapshot) Sheds() uint64 {
	return t.ShedOps + t.ShedBytes + t.ShedInflight + t.ShedWait
}

// Snapshot returns every tenant's counters, in registry id order.
func (s *Scheduler) Snapshot() []TenantSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(s.order))
	for _, id := range s.order {
		st := s.states[id]
		out = append(out, TenantSnapshot{
			ID:           id,
			Inflight:     st.inflight,
			Queued:       len(st.queue),
			Granted:      st.granted,
			ShedOps:      st.shedOps,
			ShedBytes:    st.shedBytes,
			ShedInflight: st.shedCap,
			ShedWait:     st.shedWait,
		})
	}
	return out
}

// Capacity returns the global concurrent-admission limit.
func (s *Scheduler) Capacity() int { return s.cfg.Capacity }

// RegisterMetrics registers a pull-time collector exposing per-tenant
// admission counters under the tenant.<id>. prefix (the same namespace
// the shard layer uses for per-tenant engine traffic, so
// /metricz?tenant=<id> slices both) plus the scheduler-wide capacity
// gauge. Nil registries are a no-op.
func (s *Scheduler) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(string, uint64)) {
		var inflight uint64
		for _, t := range s.Snapshot() {
			prefix := "tenant." + t.ID + "."
			emit(prefix+"granted", t.Granted)
			emit(prefix+"inflight", uint64(t.Inflight))
			emit(prefix+"queued", uint64(t.Queued))
			emit(prefix+"shed.ops", t.ShedOps)
			emit(prefix+"shed.bytes", t.ShedBytes)
			emit(prefix+"shed.inflight", t.ShedInflight)
			emit(prefix+"shed.wait", t.ShedWait)
			emit(prefix+"shed.total", t.Sheds())
			inflight += uint64(t.Inflight)
		}
		emit("sched.capacity", uint64(s.Capacity()))
		emit("sched.inflight", inflight)
	})
}
