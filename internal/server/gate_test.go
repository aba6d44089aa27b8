package server

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// gate is an admission gate as dispatch uses one: acquire reports whether the
// op was admitted, release returns an admitted op's slot.
type gate interface {
	acquire() bool
	release()
}

// semGate is the MaxInflight semaphore dispatch ran on a server without
// tenants until the scheduler became the only gate, kept as the oracle the
// scheduler's anonymous tenant is compared with.
type semGate struct {
	sem      chan struct{}
	shedWait time.Duration
}

func (g *semGate) acquire() bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		if g.shedWait <= 0 {
			return false
		}
		t := time.NewTimer(g.shedWait)
		select {
		case g.sem <- struct{}{}:
			t.Stop()
			return true
		case <-t.C:
			return false
		}
	}
}

func (g *semGate) release() { <-g.sem }

// schedGate is the gate of a server built with no tenants.
type schedGate struct{ s *Server }

func (g schedGate) acquire() bool {
	return g.s.sched.Acquire(context.Background(), "", 0) == nil
}

func (g schedGate) release() { g.s.sched.Release("") }

// gates builds the oracle and a server's gate from one Config, through New:
// the defaults and the scheduler's wiring are part of what is compared.
func gates(capacity int, shedWait time.Duration) (oracle, sched gate) {
	s := New(&stubEngine{}, Config{MaxInflight: capacity, ShedWait: shedWait})
	return &semGate{sem: make(chan struct{}, s.cfg.MaxInflight), shedWait: s.cfg.ShedWait}, schedGate{s}
}

// TestAdmissionMatchesSemaphoreOracle: with no wait allowed, the scheduler's
// anonymous tenant admits and sheds exactly what the semaphore did, over
// seeded schedules of acquires and releases.
func TestAdmissionMatchesSemaphoreOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 8; seed++ {
			oracle, sched := gates(capacity, -1)
			rng := rand.New(rand.NewSource(seed))
			held, admits, sheds := 0, 0, 0
			for step := 0; step < 2000; step++ {
				if held > 0 && rng.Intn(5) < 2 {
					oracle.release()
					sched.release()
					held--
					continue
				}
				want, got := oracle.acquire(), sched.acquire()
				if want != got {
					t.Fatalf("capacity %d seed %d step %d with %d held: semaphore admitted=%v, scheduler admitted=%v",
						capacity, seed, step, held, want, got)
				}
				if want {
					held++
					admits++
				} else {
					sheds++
				}
			}
			if admits == 0 || sheds == 0 {
				t.Fatalf("capacity %d seed %d: %d admitted, %d shed: the schedule never worked the gate both ways", capacity, seed, admits, sheds)
			}
		}
	}
}

// parkWaiter blocks in g.acquire and then reports who it was.
func parkWaiter(g gate, id int, granted chan<- int) {
	if g.acquire() {
		granted <- id
	} else {
		granted <- -1
	}
}

// parkedWaiters counts the parkWaiter goroutines blocked in acquire's select:
// a blocked channel send cannot be seen from outside, a goroutine's state can.
func parkedWaiters() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "server.parkWaiter") {
			n++
		}
	}
	return n
}

// TestAdmissionWaitersGrantedFIFO: with a wait allowed, ops that queue for a
// slot get one in the order they arrived — as senders blocked on the
// semaphore's channel did — from either gate.
func TestAdmissionWaitersGrantedFIFO(t *testing.T) {
	const waiters = 5
	for _, capacity := range []int{1, 2, 8} {
		oracle, sched := gates(capacity, time.Minute)
		for name, g := range map[string]gate{"semaphore": oracle, "scheduler": sched} {
			for i := 0; i < capacity; i++ {
				if !g.acquire() {
					t.Fatalf("%s capacity %d: slot %d refused", name, capacity, i)
				}
			}
			granted := make(chan int)
			for id := 0; id < waiters; id++ {
				go parkWaiter(g, id, granted)
				for deadline := time.Now().Add(10 * time.Second); parkedWaiters() != id+1; {
					if time.Now().After(deadline) {
						t.Fatalf("%s capacity %d: waiter %d never parked", name, capacity, id)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			for want := 0; want < waiters; want++ {
				g.release()
				if got := <-granted; got != want {
					t.Fatalf("%s capacity %d: release %d granted waiter %d", name, capacity, want, got)
				}
			}
			for i := 0; i < capacity; i++ {
				g.release()
			}
		}
	}
}
