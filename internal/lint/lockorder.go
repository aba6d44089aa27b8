package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/securemem/morphtree/internal/analysis"
)

// LockOrder builds a cross-package lock-acquisition graph and reports
// ordering cycles as deadlock candidates.
//
// The engine serializes every access through one controller mutex (secmem
// doc), the shard router fans out across per-shard controllers, and the
// obs plane takes its own slot locks inside traced sections — three
// layers of locks acquired while other locks are held, across package
// boundaries no single-package analysis can see. A consistent global
// acquisition order is the classic no-deadlock argument; a cycle in the
// order is a latent deadlock that only fires under concurrent load, the
// worst possible time to learn about it.
//
// Locks are identified structurally — "pkg.Type.mu" for a mutex field of
// a named struct, "pkg.var" for a package-level mutex — so every instance
// of a type shares one graph node (the conservative choice: a cycle on
// the type's lock is a real cycle for some pair of instances; instance
// cycles like parent/child Memory locks do not exist in this design).
// Per function, a source-order walk tracks the held set: sync
// Lock/RLock/TryLock calls acquire, Unlock/RUnlock release (a deferred
// unlock releases at return), and calls to summarized functions import
// their LockSetFact — what they acquire, and what they still hold when
// they return (a helper that locks for its caller). Acquiring B with A
// held adds edge A→B. Each package exports its merged graph (its own
// edges plus its imports') as a package fact; a cycle is reported at
// every edge this package contributes to it.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "cross-package lock-acquisition graph must stay acyclic (deadlock candidates)",
	FactTypes: []analysis.Fact{
		(*LockSetFact)(nil),
		(*LockGraphFact)(nil),
	},
	Run: runLockOrder,
}

// LockSetFact summarizes a function's locking behavior.
type LockSetFact struct {
	// Acquires lists every lock the function (transitively) acquires.
	Acquires []string
	// HoldsOnReturn lists locks still held when the function returns
	// (acquired, not released, not deferred-released).
	HoldsOnReturn []string
}

// AFact implements analysis.Fact.
func (*LockSetFact) AFact() {}

// LockGraphFact is a package's merged acquired-while-holding graph.
type LockGraphFact struct {
	// Edges holds [from, to] pairs: to was acquired while from was held.
	Edges [][2]string
}

// AFact implements analysis.Fact.
func (*LockGraphFact) AFact() {}

func runLockOrder(pass *analysis.Pass) error {
	localEdges := computeLockFacts(pass)

	// Merge direct imports' graphs; each package re-exports its merged
	// view, so transitive dependencies arrive through direct ones.
	edgeSet := make(map[[2]string]bool)
	for _, imp := range pass.Pkg.Imports() {
		var g LockGraphFact
		if pass.ImportPackageFact(imp, &g) {
			for _, e := range g.Edges {
				edgeSet[e] = true
			}
		}
	}
	for e := range localEdges {
		edgeSet[e] = true
	}
	if len(edgeSet) > 0 {
		g := &LockGraphFact{}
		for e := range edgeSet {
			g.Edges = append(g.Edges, e)
		}
		sort.Slice(g.Edges, func(i, j int) bool {
			if g.Edges[i][0] != g.Edges[j][0] {
				return g.Edges[i][0] < g.Edges[j][0]
			}
			return g.Edges[i][1] < g.Edges[j][1]
		})
		pass.ExportPackageFact(g)
	}

	// A local edge A→B closes a cycle iff B already reaches A.
	adj := make(map[string][]string)
	for e := range edgeSet {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	for e, pos := range localEdges {
		if path := findPath(adj, e[1], e[0]); path != nil {
			cycle := append([]string{e[0]}, path...)
			pass.Reportf(pos, "lock order cycle: acquiring %s while holding %s closes the cycle %s; pick one global acquisition order", e[1], e[0], strings.Join(cycle, " -> "))
		}
	}
	return nil
}

// findPath returns a path from -> ... -> to in adj, or nil.
func findPath(adj map[string][]string, from, to string) []string {
	seen := map[string]bool{from: true}
	var dfs func(node string, path []string) []string
	dfs = func(node string, path []string) []string {
		if node == to {
			return path
		}
		next := append([]string(nil), adj[node]...)
		sort.Strings(next)
		for _, n := range next {
			if seen[n] {
				continue
			}
			seen[n] = true
			if p := dfs(n, append(path, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, []string{from})
}

// computeLockFacts summarizes every function to a fixpoint and returns
// the package's local edges with their first acquisition site.
func computeLockFacts(pass *analysis.Pass) map[[2]string]token.Pos {
	var edges map[[2]string]token.Pos
	for iter := 0; iter < 10; iter++ {
		changed := false
		edges = make(map[[2]string]token.Pos)
		pass.Inspect(func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fn.Body == nil {
				return false
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				return false
			}
			ls := walkLocks(pass, fn, edges)
			if len(ls.Acquires) == 0 && len(ls.HoldsOnReturn) == 0 {
				return false
			}
			var prev LockSetFact
			had := pass.ImportObjectFact(obj, &prev)
			if !had || !sameStrings(prev.Acquires, ls.Acquires) || !sameStrings(prev.HoldsOnReturn, ls.HoldsOnReturn) {
				pass.ExportObjectFact(obj, ls)
				changed = true
			}
			return false
		})
		if !changed {
			break
		}
	}
	return edges
}

// walkLocks interprets one function body in source order under the
// current facts, recording acquired-while-holding edges into edges.
func walkLocks(pass *analysis.Pass, fn *ast.FuncDecl, edges map[[2]string]token.Pos) *LockSetFact {
	var held []string
	deferredRelease := make(map[string]bool)
	acquired := make(map[string]bool)

	holding := func(lock string) bool {
		for _, h := range held {
			if h == lock {
				return true
			}
		}
		return false
	}
	acquire := func(lock string, pos token.Pos) {
		acquired[lock] = true
		for _, h := range held {
			if h == lock {
				continue
			}
			e := [2]string{h, lock}
			if _, ok := edges[e]; !ok {
				edges[e] = pos
			}
		}
		if !holding(lock) {
			held = append(held, lock)
		}
	}
	release := func(lock string) {
		for i, h := range held {
			if h == lock {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}

	var handleCall func(call *ast.CallExpr, deferred bool)
	handleCall = func(call *ast.CallExpr, deferred bool) {
		// A deferred closure runs at return: its unlocks are deferred
		// releases, anything else it does is processed as deferred too.
		// Without this, `defer func() { mu.Unlock() }()` leaves mu in the
		// held set and the function's summary claims it holds mu on return.
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && deferred {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					handleCall(n, true)
				}
				return true
			})
			return
		}
		if lock, op := mutexOp(pass, call); lock != "" {
			switch op {
			case "Lock", "RLock", "TryLock", "TryRLock":
				acquire(lock, call.Pos())
			case "Unlock", "RUnlock":
				if deferred {
					deferredRelease[lock] = true
				} else {
					release(lock)
				}
			}
			return
		}
		callee := calleeObject(pass, call)
		if callee == nil {
			return
		}
		var ls LockSetFact
		if !pass.ImportObjectFact(callee, &ls) {
			return
		}
		for _, a := range ls.Acquires {
			acquired[a] = true
			for _, h := range held {
				if h == a {
					continue
				}
				e := [2]string{h, a}
				if _, ok := edges[e]; !ok {
					edges[e] = call.Pos()
				}
			}
		}
		for _, h := range ls.HoldsOnReturn {
			if !holding(h) {
				held = append(held, h)
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			handleCall(n.Call, true)
			return false
		case *ast.GoStmt:
			// A spawned goroutine starts with an empty held set; its body
			// contributes edges when its function is summarized.
			return false
		case *ast.CallExpr:
			handleCall(n, false)
		}
		return true
	})

	ls := &LockSetFact{}
	for a := range acquired {
		ls.Acquires = append(ls.Acquires, a)
	}
	sort.Strings(ls.Acquires)
	for _, h := range held {
		if !deferredRelease[h] {
			ls.HoldsOnReturn = append(ls.HoldsOnReturn, h)
		}
	}
	sort.Strings(ls.HoldsOnReturn)
	return ls
}

// mutexOp recognizes a sync.Mutex/RWMutex method call and returns the
// lock's structural identity and the method name.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (lock, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutex(t) {
		return "", ""
	}
	return lockIdentity(pass, sel.X), sel.Sel.Name
}

// lockIdentity names the lock a mutex expression denotes: "pkg.Type.field"
// for a field of a named struct, "pkg.var" for a package-level variable,
// "" (ignored) for function-local mutexes, which cannot participate in
// cross-function ordering cycles.
func lockIdentity(pass *analysis.Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[e]; sel != nil {
			if named := recvNamed(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
			return ""
		}
		// Qualified package-level var: pkg.Mu.
		if obj := pass.TypesInfo.Uses[e.Sel]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

// sameStrings reports element-wise equality.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
