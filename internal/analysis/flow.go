package analysis

// This file is the intra-procedural value-flow engine: a fixpoint taint
// evaluator over one function body. An analyzer seeds taint (its sources),
// decides how taint crosses call boundaries (usually by consulting
// interprocedural facts), and the engine propagates through assignments,
// conversions, slicing, ranges, closures and builtins until nothing
// changes. The engine is deliberately value-oriented:
//
//   - Taint means "this expression evaluates to the sensitive bytes
//     themselves" — not "this value transitively contains them". A
//     composite literal or struct holding a tainted value is NOT tainted;
//     reading a field yields taint only if the policy's Seed says so
//     (e.g. the field is annotated). This container rule is what keeps a
//     handle type like secmem.Memory — which necessarily holds key
//     material — usable in logs and errors without drowning the analyzer
//     in false positives.
//   - Writing a tainted value INTO a local container (x.f = key,
//     buf[i] = key[0], *p = key) taints the container's base variable:
//     the variable now denotes storage holding raw secret bytes, and
//     passing it onward passes them.
//
// Flow is syntactic and flow-insensitive within the body (a variable once
// tainted stays tainted), which errs on the reporting side — the right
// polarity for a security lint with an explicit escape hatch.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FlowConfig parameterizes one taint evaluation.
type FlowConfig struct {
	// Info is the enclosing package's type information.
	Info *types.Info

	// Seed reports whether an expression is inherently tainted at its use
	// site — the analyzer's source definition (annotated fields, annotated
	// package variables, parameters under a summary run). May be nil.
	Seed func(e ast.Expr) bool

	// Call decides the taint of a non-builtin, non-conversion call's
	// results. taintOf evaluates any expression (arguments, the receiver)
	// under the current state. Returning nil means no result is tainted.
	// May be nil. The engine handles conversions (taint passes through)
	// and builtins (append merges argument taint, copy taints the
	// destination, len/cap/make/new are clean) itself.
	Call func(call *ast.CallExpr, taintOf func(ast.Expr) bool) []bool
}

// Flow holds the evolving taint state for one function body.
type Flow struct {
	cfg     FlowConfig
	tainted map[types.Object]bool
}

// RunFlow evaluates taint over body (any node containing statements) to a
// fixpoint and returns the final state for querying.
func RunFlow(body ast.Node, cfg FlowConfig) *Flow {
	fl := &Flow{cfg: cfg, tainted: make(map[types.Object]bool)}
	if body == nil {
		return fl
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if fl.assign(s) {
					changed = true
				}
			case *ast.ValueSpec:
				if fl.valueSpec(s) {
					changed = true
				}
			case *ast.RangeStmt:
				if fl.rangeStmt(s) {
					changed = true
				}
			case *ast.CallExpr:
				// copy(dst, src) moves raw bytes: a tainted source taints
				// the destination's base variable.
				if fl.isBuiltin(s, "copy") && len(s.Args) == 2 && fl.Tainted(s.Args[1]) {
					if fl.taintTarget(s.Args[0]) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return fl
}

// Tainted reports whether e evaluates to tainted bytes under the final
// state.
func (fl *Flow) Tainted(e ast.Expr) bool { return fl.taintOf(e) }

// TaintedObjects exposes the set of variables holding tainted values.
func (fl *Flow) TaintedObjects() map[types.Object]bool { return fl.tainted }

// seed consults the policy's source definition.
func (fl *Flow) seed(e ast.Expr) bool {
	return fl.cfg.Seed != nil && fl.cfg.Seed(e)
}

// objOf resolves an identifier to its object (use or def).
func (fl *Flow) objOf(id *ast.Ident) types.Object {
	if obj := fl.cfg.Info.Uses[id]; obj != nil {
		return obj
	}
	return fl.cfg.Info.Defs[id]
}

// comparisonOps produce booleans, which never carry raw secret bytes even
// when the operands do (hmac.Equal-style checks are the sealed path's
// bread and butter).
var comparisonOps = map[token.Token]bool{
	token.EQL: true, token.NEQ: true, token.LSS: true,
	token.LEQ: true, token.GTR: true, token.GEQ: true,
	token.LAND: true, token.LOR: true,
}

// taintOf evaluates one expression in single-value context.
func (fl *Flow) taintOf(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fl.objOf(e); obj != nil && fl.tainted[obj] {
			return true
		}
		return fl.seed(e)
	case *ast.SelectorExpr:
		// Container rule: a field read is tainted only if the policy says
		// the field itself is a source — never because the base struct
		// holds secrets elsewhere. Qualified package-level vars resolve
		// through the selector's identifier.
		if fl.cfg.Info.Selections[e] == nil {
			if obj := fl.objOf(e.Sel); obj != nil && fl.tainted[obj] {
				return true
			}
		}
		return fl.seed(e)
	case *ast.CallExpr:
		ts := fl.taintsOf(e)
		for _, t := range ts {
			if t {
				return true
			}
		}
		return false
	case *ast.IndexExpr:
		return fl.taintOf(e.X)
	case *ast.SliceExpr:
		return fl.taintOf(e.X)
	case *ast.StarExpr:
		return fl.taintOf(e.X)
	case *ast.UnaryExpr:
		return fl.taintOf(e.X)
	case *ast.BinaryExpr:
		if comparisonOps[e.Op] {
			return false
		}
		return fl.taintOf(e.X) || fl.taintOf(e.Y)
	case *ast.ParenExpr:
		return fl.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return fl.taintOf(e.X)
	}
	// Composite literals (container rule), function literals, basic
	// literals: never tainted as values.
	return false
}

// isBuiltin reports whether call invokes the named predeclared builtin.
func (fl *Flow) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = fl.objOf(id).(*types.Builtin)
	return ok
}

// resultCount reports how many values call produces.
func (fl *Flow) resultCount(call *ast.CallExpr) int {
	tv, ok := fl.cfg.Info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.Invalid {
		return 0
	}
	return 1
}

// taintsOf evaluates a call in multi-value context, one bool per result.
func (fl *Flow) taintsOf(call *ast.CallExpr) []bool {
	// Conversion: string(key), []byte(s) — taint passes through.
	if tv, ok := fl.cfg.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []bool{fl.taintOf(call.Args[0])}
		}
		return nil
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := fl.objOf(id).(*types.Builtin); isB {
			switch id.Name {
			case "append":
				for _, a := range call.Args {
					if fl.taintOf(a) {
						return []bool{true}
					}
				}
				return []bool{false}
			case "min", "max":
				for _, a := range call.Args {
					if fl.taintOf(a) {
						return []bool{true}
					}
				}
				return []bool{false}
			default:
				// len, cap, make, new, copy, delete, clear, panic, ...
				return nil
			}
		}
	}
	if fl.cfg.Call != nil {
		if ts := fl.cfg.Call(call, fl.taintOf); ts != nil {
			return ts
		}
	}
	return make([]bool, fl.resultCount(call))
}

// taintTarget marks the storage an lvalue denotes as tainted: the
// identifier's object directly, or — for field, index, slice and pointer
// targets — the base variable now holding raw secret bytes. Reports
// whether the state changed.
func (fl *Flow) taintTarget(e ast.Expr) bool {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			// x.f = tainted: x now holds the bytes.
			e = t.X
		case *ast.Ident:
			if t.Name == "_" {
				return false
			}
			obj := fl.objOf(t)
			if obj == nil || fl.tainted[obj] {
				return false
			}
			fl.tainted[obj] = true
			return true
		default:
			return false
		}
	}
}

// assign propagates taint through one assignment or short declaration.
func (fl *Flow) assign(s *ast.AssignStmt) bool {
	changed := false
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		var ts []bool
		switch r := ast.Unparen(s.Rhs[0]).(type) {
		case *ast.CallExpr:
			ts = fl.taintsOf(r)
		case *ast.TypeAssertExpr:
			ts = []bool{fl.taintOf(r.X), false}
		case *ast.IndexExpr:
			ts = []bool{fl.taintOf(r.X), false}
		case *ast.UnaryExpr: // <-ch
			ts = []bool{fl.taintOf(r.X), false}
		}
		for i, lhs := range s.Lhs {
			if i < len(ts) && ts[i] && fl.taintTarget(lhs) {
				changed = true
			}
		}
		return changed
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		if fl.taintOf(s.Rhs[i]) && fl.taintTarget(lhs) {
			changed = true
		}
	}
	return changed
}

// valueSpec propagates taint through `var x = expr` declarations.
func (fl *Flow) valueSpec(s *ast.ValueSpec) bool {
	changed := false
	if len(s.Names) > 1 && len(s.Values) == 1 {
		if call, ok := ast.Unparen(s.Values[0]).(*ast.CallExpr); ok {
			ts := fl.taintsOf(call)
			for i, name := range s.Names {
				if i < len(ts) && ts[i] {
					obj := fl.objOf(name)
					if obj != nil && !fl.tainted[obj] {
						fl.tainted[obj] = true
						changed = true
					}
				}
			}
		}
		return changed
	}
	for i, name := range s.Names {
		if i >= len(s.Values) {
			break
		}
		if fl.taintOf(s.Values[i]) {
			obj := fl.objOf(name)
			if obj != nil && !fl.tainted[obj] {
				fl.tainted[obj] = true
				changed = true
			}
		}
	}
	return changed
}

// rangeStmt taints the per-element variable of a range over a tainted
// collection (ranging a key yields its bytes).
func (fl *Flow) rangeStmt(s *ast.RangeStmt) bool {
	if s.Value == nil || !fl.taintOf(s.X) {
		return false
	}
	return fl.taintTarget(s.Value)
}
