// Package lint holds morphlint's repo-specific analyzers. Each enforces a
// secure-memory invariant from the paper (MICRO 2018) that the Go compiler
// cannot check; DESIGN.md "Checked invariants" maps analyzers to the paper
// sections they guard.
package lint

import "github.com/securemem/morphtree/internal/analysis"

// Analyzers returns the full morphlint suite in reporting order. The
// first five are intra-package AST checks; keytaint and lockorder are
// interprocedural, exchanging facts across package boundaries through the
// analysis fact store (internal/analysis/facts.go). The hot path's
// allocation contract is not among them: the testing.AllocsPerRun pins
// state it (DESIGN §13, "The allocation contract").
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CachelineInv,
		CryptoRand,
		ErrDiscard,
		PanicPolicy,
		LockHeld,
		KeyTaint,
		LockOrder,
	}
}
