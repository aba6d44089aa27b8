package tenant

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/obs"
)

// fakeClock is a manually advanced clock for deterministic token-bucket
// tests. Advance is only called between Acquire calls, and the scheduler
// reads the clock under its own mutex, so a plain field suffices in
// single-goroutine tests; concurrent tests use the real clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func mustScheduler(t *testing.T, specs []Spec, cfg SchedConfig) *Scheduler {
	t.Helper()
	r, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantQuota(t *testing.T, err error, resource string) *QuotaError {
	t.Helper()
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuotaError", err)
	}
	if qe.Resource != resource {
		t.Fatalf("shed on %q, want %q (err: %v)", qe.Resource, resource, qe)
	}
	return qe
}

func TestSchedulerValidation(t *testing.T) {
	r, err := NewRegistry([]Spec{{ID: "a", Secret: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(nil, SchedConfig{Capacity: 1}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := NewScheduler(r, SchedConfig{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestOpsTokenBucket(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s", OpsPerSec: 2}},
		SchedConfig{Capacity: 100, Now: clk.Now})
	ctx := context.Background()

	// Burst = one second of rate: two ops pass, the third sheds.
	for i := 0; i < 2; i++ {
		if err := s.Acquire(ctx, "a", 0); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		s.Release("a")
	}
	wantQuota(t, s.Acquire(ctx, "a", 0), "ops")

	// Half a second refills one token; a second op still sheds.
	clk.Advance(500 * time.Millisecond)
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	s.Release("a")
	wantQuota(t, s.Acquire(ctx, "a", 0), "ops")

	snap := s.Snapshot()
	if snap[0].ShedOps != 2 || snap[0].Granted != 3 {
		t.Fatalf("snapshot = %+v, want 2 ops sheds, 3 grants", snap[0])
	}
}

func TestBytesTokenBucket(t *testing.T) {
	clk := newFakeClock()
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s", BytesPerSec: 100}},
		SchedConfig{Capacity: 100, Now: clk.Now})
	ctx := context.Background()

	if err := s.Acquire(ctx, "a", 60); err != nil {
		t.Fatal(err)
	}
	s.Release("a")
	wantQuota(t, s.Acquire(ctx, "a", 60), "bytes")
	// Bytes tokens cap at one second of rate: after a long idle gap the
	// bucket holds 100, not 60+elapsed*100.
	clk.Advance(time.Hour)
	if err := s.Acquire(ctx, "a", 100); err != nil {
		t.Fatal(err)
	}
	s.Release("a")
	wantQuota(t, s.Acquire(ctx, "a", 1), "bytes")
}

func TestTenantInflightCap(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s", MaxInflight: 2}},
		SchedConfig{Capacity: 100})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.Acquire(ctx, "a", 0); err != nil {
			t.Fatal(err)
		}
	}
	wantQuota(t, s.Acquire(ctx, "a", 0), "inflight")
	s.Release("a")
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestCapacityImmediateShed(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s"}}, SchedConfig{Capacity: 1})
	ctx := context.Background()
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	// ShedWait zero: no queue forms, saturation sheds immediately.
	wantQuota(t, s.Acquire(ctx, "a", 0), "capacity")
}

func TestCapacityWaitTimeout(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s"}},
		SchedConfig{Capacity: 1, ShedWait: 30 * time.Millisecond})
	ctx := context.Background()
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	wantQuota(t, s.Acquire(ctx, "a", 0), "capacity")
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("shed after %v, want at least the 30ms wait bound", waited)
	}
	if snap := s.Snapshot(); snap[0].ShedWait != 1 {
		t.Fatalf("ShedWait = %d, want 1", snap[0].ShedWait)
	}
}

func TestCapacityWaitGrantedOnRelease(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s"}},
		SchedConfig{Capacity: 1, ShedWait: 5 * time.Second})
	ctx := context.Background()
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- s.Acquire(ctx, "a", 0) }()
	// Wait for the waiter to queue, then free the slot.
	waitFor(t, func() bool { return s.Snapshot()[0].Queued == 1 })
	s.Release("a")
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquire never granted after Release")
	}
	s.Release("a")
}

func TestCapacityWaitContextCancel(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s"}},
		SchedConfig{Capacity: 1, ShedWait: 5 * time.Second})
	if err := s.Acquire(context.Background(), "a", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- s.Acquire(ctx, "a", 0) }()
	waitFor(t, func() bool { return s.Snapshot()[0].Queued == 1 })
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}
	if s.Snapshot()[0].Queued != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
}

func TestUnknownTenant(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s"}}, SchedConfig{Capacity: 1})
	err := s.Acquire(context.Background(), "nobody", 0)
	if err == nil {
		t.Fatal("unknown tenant admitted")
	}
	var qe *QuotaError
	if errors.As(err, &qe) {
		t.Fatalf("unknown tenant got a retryable *QuotaError (%v); want a hard error", err)
	}
	// Release of an unknown (or never-admitted) tenant must be harmless.
	s.Release("nobody")
	s.Release("a")
}

// TestDWRRFairness pins down the deficit-weighted round-robin dequeue
// order: with weights 1:2 and both queues backlogged, grants interleave
// a, b, b, a, b, b, ... — the weighted fair pattern, not FIFO and not
// starvation.
func TestDWRRFairness(t *testing.T) {
	s := mustScheduler(t, []Spec{
		{ID: "a", Secret: "s", Weight: 1},
		{ID: "b", Secret: "s", Weight: 2},
	}, SchedConfig{Capacity: 1, ShedWait: time.Minute})
	ctx := context.Background()

	// Hold the only slot so every subsequent Acquire queues.
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(id string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Acquire(ctx, id, 0); err != nil {
					t.Errorf("acquire %s: %v", id, err)
					return
				}
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
				s.Release(id)
			}()
		}
	}
	enqueue("a", 3)
	enqueue("b", 6)
	waitFor(t, func() bool {
		snap := s.Snapshot()
		return snap[0].Queued == 3 && snap[1].Queued == 6
	})

	// Free the slot: grants now proceed one at a time (capacity 1), each
	// goroutine recording its turn before releasing to the next.
	s.Release("a")
	wg.Wait()

	want := []string{"a", "b", "b", "a", "b", "b", "a", "b", "b"}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("DWRR grant order = %v, want %v", order, want)
	}
}

// TestSchedulerConcurrent hammers Acquire/Release from many goroutines
// under the race detector: grants never exceed capacity, and the final
// accounting balances.
func TestSchedulerConcurrent(t *testing.T) {
	s := mustScheduler(t, []Spec{
		{ID: "a", Secret: "s", Weight: 1, OpsPerSec: 1e9},
		{ID: "b", Secret: "s", Weight: 3},
		{ID: "c", Secret: "s", MaxInflight: 4},
	}, SchedConfig{Capacity: 8, ShedWait: 2 * time.Millisecond})
	ids := []string{"a", "b", "c"}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := ids[rng.Intn(len(ids))]
				err := s.Acquire(ctx, id, rng.Intn(128))
				if err != nil {
					var qe *QuotaError
					if !errors.As(err, &qe) {
						t.Errorf("acquire %s: %v", id, err)
					}
					continue
				}
				s.Release(id)
			}
		}(g)
	}
	wg.Wait()
	var granted, sheds uint64
	for _, ts := range s.Snapshot() {
		if ts.Inflight != 0 || ts.Queued != 0 {
			t.Errorf("tenant %s left inflight=%d queued=%d", ts.ID, ts.Inflight, ts.Queued)
		}
		granted += ts.Granted
		sheds += ts.Sheds()
	}
	if granted+sheds != 16*200 {
		t.Fatalf("granted %d + sheds %d != %d ops", granted, sheds, 16*200)
	}
}

// TestMixIsolationCounts is make tenant-smoke's isolation gate as counts:
// the smoke's two specs — victim weight 4; greedy weight 1, 400 ops/s, 8 in
// flight — and four closed-loop clients a tenant, each issuing an op every
// millisecond of a fake clock for a second and releasing it within that
// millisecond, against the 8 slots the smoke's server has on two cores. The
// victim is admitted every op. The greedy tenant is admitted its one-second
// burst and its rate, and shed the rest: a scheduler that admits everything
// sheds nothing and fails.
func TestMixIsolationCounts(t *testing.T) {
	const clients, ticks = 4, 1000
	clk := newFakeClock()
	s := mustScheduler(t, []Spec{
		{ID: "victim", Secret: "vs", Weight: 4},
		{ID: "greedy", Secret: "gs", Weight: 1, OpsPerSec: 400, MaxInflight: 8},
	}, SchedConfig{Capacity: 2 * clients, Now: clk.Now})
	ctx := context.Background()
	for tick := 0; tick < ticks; tick++ {
		var admitted []string
		for c := 0; c < clients; c++ {
			for _, id := range []string{"greedy", "victim"} {
				err := s.Acquire(ctx, id, 64)
				var qe *QuotaError
				switch {
				case err == nil:
					admitted = append(admitted, id)
				case !errors.As(err, &qe):
					t.Fatalf("acquire %s: %v", id, err)
				}
			}
		}
		for _, id := range admitted {
			s.Release(id)
		}
		clk.Advance(time.Millisecond)
	}
	// The greedy tenant's 799: its 400-op burst, then 0.4 ops a millisecond
	// over the 999 that follow the first.
	want := map[string][2]uint64{"greedy": {799, clients*ticks - 799}, "victim": {clients * ticks, 0}}
	for _, ts := range s.Snapshot() {
		if got := [2]uint64{ts.Granted, ts.Sheds()}; got != want[ts.ID] {
			t.Errorf("tenant %s: %d admitted and %d shed, want %d and %d", ts.ID, got[0], got[1], want[ts.ID][0], want[ts.ID][1])
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	s := mustScheduler(t, []Spec{{ID: "a", Secret: "s", OpsPerSec: 1}},
		SchedConfig{Capacity: 3})
	reg := obs.NewRegistry()
	reg.RegisterCollector(s.Collect)
	ctx := context.Background()
	if err := s.Acquire(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	wantQuota(t, s.Acquire(ctx, "a", 0), "ops")
	snap := reg.Snapshot()
	checks := map[string]uint64{
		"tenant.a.granted":    1,
		"tenant.a.inflight":   1,
		"tenant.a.shed.ops":   1,
		"tenant.a.shed.total": 1,
		"sched.capacity":      3,
		"sched.inflight":      1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The tenant-scoped filter keeps the tenant.a.* slice and drops the
	// scheduler-wide series.
	f := snap.FilterTenant("a")
	if _, ok := f.Counters["tenant.a.granted"]; !ok {
		t.Error("FilterTenant dropped tenant.a.granted")
	}
	if _, ok := f.Counters["sched.capacity"]; ok {
		t.Error("FilterTenant kept sched.capacity")
	}
	s.Release("a")
}

// waitFor polls until cond holds (the scheduler has no wait hooks; tests
// poll snapshots instead of sleeping fixed amounts).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
