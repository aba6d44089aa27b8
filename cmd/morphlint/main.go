// Command morphlint is the repository's static-analysis suite: eight
// analyzers enforcing secure-memory invariants the compiler cannot see
// (see DESIGN.md "Checked invariants" and §13), three of them
// interprocedural — facts about key material, allocation behavior and
// lock acquisition flow between packages through the vet fact channel.
//
// Usage:
//
//	go run ./cmd/morphlint ./...                 # standalone (re-execs go vet)
//	go build -o morphlint ./cmd/morphlint
//	go vet -vettool=./morphlint ./...            # as a vet tool
//
//	morphlint -escapes ./...                     # what the compiler moves to the heap in //morph:hotpath functions
//
// morphlint speaks the `go vet -vettool` protocol (see
// internal/analysis/unitchecker.go), so the go command handles package
// loading, export data, fact-file plumbing and caching; results are
// identical either way. Standalone, it exits 1 on a tool or build failure
// and 2 on findings. Findings are suppressed line-by-line with a justified
// directive:
//
//	//morphlint:allow <analyzer> -- reason
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/securemem/morphtree/internal/analysis"
	"github.com/securemem/morphtree/internal/lint"
)

func main() {
	args := os.Args[1:]

	// go vet protocol handshakes.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			analysis.PrintVersion(os.Stdout)
			return
		case args[0] == "-flags":
			analysis.PrintFlags(os.Stdout)
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(analysis.RunUnit(args[0], lint.Analyzers()))
		}
	}

	// Direct invocation: let go vet drive this same binary, unless -escapes
	// asks the compiler instead.
	if len(args) > 0 && strings.HasPrefix(args[0], "-") {
		if args[0] != "-escapes" {
			fmt.Fprintf(os.Stderr, "morphlint: unknown flag %s\n", args[0])
			os.Exit(1)
		}
		n, err := analysis.RunEscapes(".", args[1:], os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morphlint: -escapes: %v\n", err)
			os.Exit(1)
		}
		if n > 0 {
			os.Exit(2)
		}
		return
	}
	os.Exit(analysis.RunStandalone(args))
}
