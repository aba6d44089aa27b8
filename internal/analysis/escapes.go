package analysis

// `morphlint -escapes`: the compiler's half of the hot-path contract.
//
// hotalloc reads syntax: it sees a make, a literal, a boxing conversion. It
// cannot see an escape — a local array handed to an io.Reader is moved to
// the heap by the compiler, one allocation a call, and nothing in the source
// says so. The compiler will say, under -gcflags=-m. This mode builds the
// packages that annotate a function `//morph:hotpath` with that flag and
// fails on any "moved to heap" inside an annotated function, unless the line
// (or the one above it) carries `//morphlint:allow hotalloc`, the same
// suppression the analyzer honors. The compiler's other escape reports
// ("escapes to heap", "leaking param") are not findings: a make sized at run
// time or an error built on a cold path says nothing about the steady state,
// and the allocation-count tests pin those.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// hotFunc is one `//morph:hotpath` function's extent in its file.
type hotFunc struct {
	name       string
	start, end int
}

// movedLine matches the compiler's report of a variable it heap-allocates:
// path:line:col: moved to heap: name
var movedLine = regexp.MustCompile(`^(.+?):(\d+):(\d+): (moved to heap: .+)$`)

// RunEscapes checks the packages matching patterns (default ./...) under
// dir, printing findings to out as path:line:col: message lines. It returns
// how many there were; err is a failure to list, parse or build.
func RunEscapes(dir string, patterns []string, out io.Writer) (findings int, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if dir, err = filepath.Abs(dir); err != nil { // the compiler reports paths relative to it
		return 0, err
	}
	list := exec.Command("go", append([]string{"list", "-f", `{{.Dir}}{{"\t"}}{{.ImportPath}}{{"\t"}}{{join .GoFiles ","}}`}, patterns...)...)
	list.Dir = dir
	var listErr bytes.Buffer
	list.Stderr = &listErr
	listed, err := list.Output()
	if err != nil {
		return 0, fmt.Errorf("go list: %v\n%s", err, listErr.Bytes())
	}

	fset := token.NewFileSet()
	hot := make(map[string][]hotFunc) // absolute file name -> its hot functions
	var files []*ast.File
	var pkgs []string
	for _, row := range strings.Split(strings.TrimSpace(string(listed)), "\n") {
		cols := strings.Split(row, "\t")
		if len(cols) != 3 || cols[2] == "" {
			continue
		}
		annotated := false
		for _, name := range strings.Split(cols[2], ",") {
			path := filepath.Join(cols[0], name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return 0, err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !HasDirective(fn.Doc, "hotpath") {
					continue
				}
				hot[path] = append(hot[path], hotFunc{fn.Name.Name, fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line})
				annotated = true
			}
			files = append(files, f)
		}
		if annotated {
			pkgs = append(pkgs, cols[1])
		}
	}
	if len(pkgs) == 0 {
		return 0, nil
	}
	allow, _ := collectDirectives(fset, files)

	build := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	build.Dir = dir
	report, err := build.CombinedOutput() // -m's report is the compiler's stderr
	if err != nil {
		return 0, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, report)
	}
	for _, row := range strings.Split(string(report), "\n") {
		m := movedLine.FindStringSubmatch(row)
		if m == nil {
			continue
		}
		path := m[1]
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		line, _ := strconv.Atoi(m[2])
		for _, fn := range hot[path] {
			if line < fn.start || line > fn.end || allowedAt(allow, path, line, "hotalloc") {
				continue
			}
			fmt.Fprintf(out, "%s:%s:%s: hot path (//morph:hotpath %s): %s [escapes]\n", m[1], m[2], m[3], fn.name, m[4])
			findings++
		}
	}
	return findings, nil
}
