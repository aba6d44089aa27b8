// Package locka is the dependency side of the cross-package lockorder
// fixture: it establishes Router.mu -> Engine.mu as the acquisition order
// and exports it as a package fact. On its own the graph is acyclic.
package locka

import "sync"

type Router struct{ mu sync.Mutex }
type Engine struct{ mu sync.Mutex }

// Dispatch acquires the engine lock under the router lock.
func Dispatch(r *Router, e *Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// LockEngine acquires and releases only the engine lock.
func LockEngine(e *Engine) {
	e.mu.Lock()
	e.mu.Unlock()
}

// HoldEngine acquires the engine lock and returns holding it, locking
// for its caller; pair with ReleaseEngine.
func HoldEngine(e *Engine) {
	e.mu.Lock()
}

// ReleaseEngine releases the engine lock.
func ReleaseEngine(e *Engine) {
	e.mu.Unlock()
}

// LockRouter acquires and releases only the router lock.
func LockRouter(r *Router) {
	r.mu.Lock()
	r.mu.Unlock()
}
