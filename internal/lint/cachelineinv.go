package lint

import (
	"go/ast"
	"go/token"

	"github.com/securemem/morphtree/internal/analysis"
)

// CachelineInv flags hard-coded cacheline-layout literals (64, 128, 512) in
// executable code of the layout-bearing packages (counters, tree).
//
// The paper's layouts hang off three magic numbers: 64-byte counter lines,
// 512 bits per line, and 128 counters per MorphCtr line (Figures 8 and 13).
// Sprinkling the raw numbers through function bodies is how a refactor
// silently desynchronizes an encoder from its decoder, so executable code
// must spell them via named constants (LineBytes, LineBits, MorphArity,
// bitops.WordBits, ...). Package-level const and var declarations are the
// sanctioned place where the literals appear once, with a name.
var CachelineInv = &analysis.Analyzer{
	Name: "cachelineinv",
	Doc:  "flag hard-coded 64/128/512 layout literals outside named constants in layout-bearing packages",
	Run:  runCachelineInv,
}

// layoutLiterals are the cacheline geometry numbers the check covers.
var layoutLiterals = map[string]bool{"64": true, "128": true, "512": true}

func runCachelineInv(pass *analysis.Pass) error {
	if !analysis.PkgNamed(pass.Pkg, "counters", "tree") {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				// A function-local const declaration names the literal;
				// that is the fix, not a finding.
				if n.Tok == token.CONST {
					return false
				}
			case *ast.BasicLit:
				if n.Kind == token.INT && layoutLiterals[n.Value] {
					pass.Reportf(n.Pos(), "hard-coded cacheline layout literal %s; use a named constant (LineBytes, LineBits, MorphArity, bitops.WordBits, ...)", n.Value)
				}
			}
			return true
		})
		// Declarations outside function bodies (const blocks, layout
		// tables) are the one sanctioned home for these literals.
		return false
	})
	return nil
}
