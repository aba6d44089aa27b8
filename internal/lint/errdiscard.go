package lint

import (
	"go/ast"
	"go/types"

	"github.com/securemem/morphtree/internal/analysis"
)

// ErrDiscard flags statements that silently discard an error returned by
// the verification-bearing packages (counters, mac, secmem, aesctr),
// the durability-bearing ones (wal, durable), the fault-injection layer
// (fault), or the observability plane (obs).
//
// In this codebase an ignored error is an ignored integrity violation: a
// dropped Decode error accepts an undecodable counter line, a dropped
// Verify/Read error accepts tampered memory, a dropped Save error loses
// persisted state, a dropped WAL Sync/Close or snapshot error
// acknowledges a write that was never made durable, a dropped fault
// setup error runs a chaos scenario with no faults injected — a harness
// that silently proves nothing — and a dropped obs Encode/Serve error is
// a telemetry plane that died or served garbage without anyone noticing. Calls whose error result is consumed by
// nothing — a bare expression statement, or a call hidden behind
// go/defer — are reported. An explicit `_ =` assignment remains available
// for the rare deliberate discard, and stays visible in review.
var ErrDiscard = &analysis.Analyzer{
	Name: "errdiscard",
	Doc:  "flag discarded error results from codec, MAC and secure-memory persistence calls",
	Run:  runErrDiscard,
}

// watchedPkgs are the packages whose error returns must not be dropped.
// server and shard joined the list with the morphflow PR: a dropped shard
// Read/Write/Verify error accepts tampered memory at the routing layer,
// and a dropped server response-write error acknowledges an op the client
// never heard about. proof joined with morphproof: a dropped Verify or
// VerifyConsistency error silently accepts a forged witness or a forked
// transparency log — the exact failure the subsystem exists to surface.
// cluster joined with morphcluster: a dropped Replicate/Promote/Follow
// error silently loses a replication batch or treats a refused promotion
// as a completed failover.
var watchedPkgs = []string{"counters", "mac", "secmem", "aesctr", "wal", "durable", "fault", "obs", "server", "shard", "proof", "tenant", "cluster"}

func runErrDiscard(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			call = n.Call
		}
		if call == nil {
			return true
		}
		if !returnsError(pass, call) {
			return true
		}
		callee := calleeObject(pass, call)
		if callee == nil || !analysis.PkgNamed(callee.Pkg(), watchedPkgs...) {
			return true
		}
		pass.Reportf(call.Pos(), "result of %s.%s includes an error that is discarded; handle it or assign it explicitly", callee.Pkg().Name(), callee.Name())
		return true
	})
	return nil
}

// returnsError reports whether the call's results end in an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeObject resolves the called function, method, or func-typed field.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}
