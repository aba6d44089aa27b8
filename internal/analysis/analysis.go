// Package analysis is a self-contained, stdlib-only reimplementation of the
// core of golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// It exists because morphlint (cmd/morphlint) must run in hermetic build
// environments with no module proxy access, where x/tools cannot be
// downloaded. The surface mirrors the upstream design — an Analyzer holds a
// Run function over a Pass carrying the parsed, type-checked package, and
// may declare Fact types that propagate to importing packages — so
// analyzers written here port to the real framework mechanically if the
// dependency ever becomes available.
//
// Three entry points drive analyzers:
//
//   - Unitchecker implements the `go vet -vettool` JSON protocol, so the
//     go command loads, type-checks and caches packages — and carries
//     fact files between dependent units (unitchecker.go).
//   - Standalone re-executes the tool under `go vet`, then sorts findings
//     from build failures for the exit code (standalone.go).
//   - analysistest runs analyzers over testdata fixtures with `// want`
//     expectations, analyzing fixture dependencies first so facts flow
//     (analysistest/).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis function and its options.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph documentation for the analyzer. The first
	// sentence names the invariant checked and, where applicable, the
	// paper section it guards.
	Doc string

	// FactTypes lists pointer prototypes of every Fact type the analyzer
	// exports or imports, for gob registration. Analyzers with no entries
	// are purely intra-package.
	FactTypes []Fact

	// Run applies the analyzer to a package.
	Run func(*Pass) error
}

// A Pass provides information to an Analyzer's Run function about the
// single package under analysis and exports diagnostic reporting and
// cross-package fact exchange.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer

	// Fset provides position information for the syntax trees.
	Fset *token.FileSet

	// Files is the package's parsed syntax, comments included.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds type information for the syntax trees.
	TypesInfo *types.Info

	// facts is the session-wide fact store.
	facts *FactStore

	// report receives diagnostics after directive filtering.
	report func(Diagnostic)

	// allow maps "file:line" to the set of analyzer names suppressed on
	// that line by a `//morphlint:allow <name>` directive.
	allow map[string]map[string]bool

	// directives maps "file:line" to the set of `//morph:<name>`
	// annotation directives present on that line.
	directives map[string]map[string]bool
}

// A Diagnostic is a message associated with a source location.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a diagnostic at pos, unless the line carries (or the
// preceding line is) a `//morphlint:allow <analyzer>` directive naming this
// analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowed(pos) {
		return
	}
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// allowed reports whether pos's line, or the one above it, carries a
// `//morphlint:allow` directive naming this analyzer (or "all").
func (p *Pass) allowed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, l := range []int{position.Line, position.Line - 1} {
		if names := p.allow[fmt.Sprintf("%s:%d", position.Filename, l)]; names[p.Analyzer.Name] || names["all"] {
			return true
		}
	}
	return false
}

// ExportObjectFact attaches fact to obj (which must belong to this
// package), making it visible to later passes and importing packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		return
	}
	p.facts.addObject(obj, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into ptr,
// reporting whether one exists. obj may belong to any package in the
// import graph.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	return p.facts.getObject(obj, ptr)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.addPackage(p.Pkg, fact)
}

// ImportPackageFact copies the package-level fact of ptr's type attached
// to pkg into ptr, reporting whether one exists.
func (p *Pass) ImportPackageFact(pkg *types.Package, ptr Fact) bool {
	if pkg == nil {
		return false
	}
	return p.facts.getPackage(pkg, ptr)
}

// directivePrefix introduces a suppression comment. The full form is
// `//morphlint:allow <analyzer> [-- reason]`, placed on the offending line
// or the line directly above it.
const directivePrefix = "morphlint:allow"

// morphDirectivePrefix introduces an annotation directive. The full form
// is `//morph:<name> [-- reason]` in a declaration's doc comment, on the
// annotated line, or on the line directly above it. The framework
// recognizes two names:
//
//	//morph:secret   this field/variable holds key material, or this
//	                 function returns it (keytaint sources)
//	//morph:sealed   this function or call site is part of the sealed
//	                 path; key material may flow into its writes
const morphDirectivePrefix = "morph:"

// HasDirective reports whether a comment group (typically a declaration's
// doc comment) carries the `//morph:<name>` directive.
func HasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if dir, ok := parseMorphDirective(c.Text); ok && dir == name {
			return true
		}
	}
	return false
}

// LineDirective reports whether the `//morph:<name>` directive appears on
// pos's line or the line directly above it.
func (p *Pass) LineDirective(pos token.Pos, name string) bool {
	if p.directives == nil {
		return false
	}
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.directives[fmt.Sprintf("%s:%d", position.Filename, line)][name] {
			return true
		}
	}
	return false
}

// FuncDirective reports whether fn is annotated with `//morph:<name>`,
// either in its doc comment or on the line above its declaration.
func (p *Pass) FuncDirective(fn *ast.FuncDecl, name string) bool {
	return HasDirective(fn.Doc, name) || p.LineDirective(fn.Pos(), name)
}

// parseMorphDirective extracts the name from a `//morph:<name> [...]`
// comment.
func parseMorphDirective(text string) (string, bool) {
	body := strings.TrimPrefix(text, "//")
	if !strings.HasPrefix(body, morphDirectivePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(body, morphDirectivePrefix)
	name, _, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", false
	}
	return name, true
}

// collectDirectives scans every comment in the files for allow and
// annotation directives, keyed by "file:line".
func collectDirectives(fset *token.FileSet, files []*ast.File) (allow, directives map[string]map[string]bool) {
	allow = make(map[string]map[string]bool)
	directives = make(map[string]map[string]bool)
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = make(map[string]bool)
		}
		m[key][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				position := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
				if dir, ok := parseMorphDirective(c.Text); ok {
					add(directives, key, dir)
					continue
				}
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				name, _, _ := strings.Cut(rest, " ")
				name = strings.TrimSuffix(name, ":")
				if name == "" {
					continue
				}
				add(allow, key, name)
			}
		}
	}
	return allow, directives
}

// A Session carries the fact store across the packages of one analysis
// run, so facts exported while analyzing a dependency are visible when its
// importers are analyzed. The unitchecker seeds a session from dependency
// vetx files; analysistest runs fixture dependencies through the same
// session first.
type Session struct {
	facts *FactStore
}

// NewSession returns a session with an empty fact store.
func NewSession() *Session {
	return &Session{facts: NewFactStore()}
}

// Facts exposes the session's fact store (for vetx encode/decode).
func (s *Session) Facts() *FactStore { return s.facts }

// Run applies each analyzer to one type-checked package. Diagnostics are
// returned in source order; when collect is false they are discarded (the
// package is being analyzed only for its facts).
func (s *Session) Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, collect bool) ([]Diagnostic, error) {
	RegisterFactTypes(analyzers)
	allow, directives := collectDirectives(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			facts:      s.facts,
			allow:      allow,
			directives: directives,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			if !collect {
				return
			}
			d.Message = fmt.Sprintf("%s [%s]", d.Message, name)
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sortDiagnostics(fset, diags)
	return diags, nil
}

// Run applies each analyzer to one type-checked package in a fresh
// session and returns the collected diagnostics in source order. Facts do
// not cross package boundaries through this entry point; callers needing
// them drive a Session directly.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return NewSession().Run(analyzers, fset, files, pkg, info, true)
}

// sortDiagnostics orders diagnostics by file position for stable output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0; j-- {
			a, b := fset.Position(diags[j-1].Pos), fset.Position(diags[j].Pos)
			if a.Filename < b.Filename || (a.Filename == b.Filename && a.Offset <= b.Offset) {
				break
			}
			diags[j-1], diags[j] = diags[j], diags[j-1]
		}
	}
}

// InTestFile reports whether pos lies in a _test.go file. The morphlint
// analyzers enforce production-code invariants and skip test sources.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Inspect walks every non-test file in depth-first order, calling fn for
// each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, fn)
	}
}

// PkgNamed reports whether pkg's name is one of names. morphlint scopes
// package-specific invariants by package name so the same analyzer works on
// the real tree (import path github.com/securemem/morphtree/internal/mac)
// and on analysistest fixtures (import path "mac").
func PkgNamed(pkg *types.Package, names ...string) bool {
	if pkg == nil {
		return false
	}
	for _, n := range names {
		if pkg.Name() == n {
			return true
		}
	}
	return false
}
