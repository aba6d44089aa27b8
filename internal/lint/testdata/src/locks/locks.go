package locks

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// lockC acquires and releases C's lock: callers holding other locks pick
// up the ordering edge through lockC's LockSetFact.
func lockC(c *C) {
	c.mu.Lock()
	c.mu.Unlock()
}

// lockB acquires B's lock and returns holding it, locking for its caller:
// the caller's held set grows through HoldsOnReturn.
func lockB(b *B) {
	b.mu.Lock()
}

func aThenC(a *A, c *C) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockC(c) // want "lock order cycle: acquiring locks.C.mu while holding locks.A.mu"
}

func cThenA(c *C, a *A) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a.mu.Lock() // want "lock order cycle: acquiring locks.A.mu while holding locks.C.mu"
	a.mu.Unlock()
}

func bThenC(b *B, c *C) {
	lockB(b)
	defer b.mu.Unlock()
	lockC(c) // want "lock order cycle: acquiring locks.C.mu while holding locks.B.mu"
}

func cThenB(c *C, b *B) {
	c.mu.Lock()
	b.mu.Lock() // want "lock order cycle: acquiring locks.B.mu while holding locks.C.mu"
	b.mu.Unlock()
	c.mu.Unlock()
}

// aThenD and another aThenD caller keep a consistent order: no cycle, no
// findings.
func aThenD(a *A, d *D) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d.mu.Lock()
	d.mu.Unlock()
}

// sequential acquisitions (release before the next acquire) create no
// edges at all.
func sequential(a *A, c *C) {
	a.mu.Lock()
	a.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// deferredClosure releases through a deferred closure (the multi-lock
// epilogue pattern): the unlocks count as deferred releases, so the
// summary must not claim the locks are held on return.
func deferredClosure(a *A, d *D) {
	a.mu.Lock()
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		a.mu.Unlock()
	}()
}

// afterClosure calls deferredClosure and then locks in the same a-before-d
// order: if the closure's unlocks were missed, deferredClosure would hold
// A.mu and D.mu on return and this would report a phantom cycle.
func afterClosure(a *A, d *D) {
	deferredClosure(a, d)
	a.mu.Lock()
	defer a.mu.Unlock()
	d.mu.Lock()
	d.mu.Unlock()
}
