// Command morphlint is the repository's static-analysis suite: seven
// analyzers enforcing secure-memory invariants the compiler cannot see
// (see DESIGN.md "Checked invariants" and §13), two of them
// interprocedural — facts about key material and lock acquisition flow
// between packages through the vet fact channel.
//
// Usage:
//
//	go run ./cmd/morphlint ./...                 # standalone (re-execs go vet)
//	go build -o morphlint ./cmd/morphlint
//	go vet -vettool=./morphlint ./...            # as a vet tool
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

	// Direct invocation: let go vet drive this same binary.
	if len(args) > 0 && strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(os.Stderr, "morphlint: unknown flag %s\n", args[0])
		os.Exit(1)
	}
	os.Exit(analysis.RunStandalone(args))
}
