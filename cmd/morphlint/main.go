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
//	morphlint -json ./...                        # diagnostics as JSON on stdout
//	morphlint -baseline lint.baseline ./...      # suppress known findings
//	morphlint -baseline lint.baseline -write-baseline ./...  # regenerate
//	morphlint -escapes ./...                     # what the compiler moves to the heap in //morph:hotpath functions
//
// morphlint speaks the `go vet -vettool` protocol (see
// internal/analysis/unitchecker.go), so the go command handles package
// loading, export data, fact-file plumbing and caching; results are
// identical either way. The -json/-baseline flags are handled in the
// standalone parent process only — vet callback units never see them.
// Findings are suppressed line-by-line with a justified directive:
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

	// Direct invocation: parse morphlint's own flags, then let go vet
	// drive this same binary.
	var opts analysis.StandaloneOptions
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		arg := args[0]
		args = args[1:]
		switch {
		case arg == "-json":
			opts.JSON = true
		case arg == "-escapes":
			// Not a vet pass: it asks the compiler, not the syntax.
			n, err := analysis.RunEscapes(".", args, os.Stderr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "morphlint: -escapes: %v\n", err)
				os.Exit(1)
			}
			if n > 0 {
				os.Exit(2)
			}
			return
		case arg == "-write-baseline":
			opts.WriteBaseline = true
		case arg == "-baseline":
			if len(args) == 0 {
				fmt.Fprintln(os.Stderr, "morphlint: -baseline requires a file argument")
				os.Exit(1)
			}
			opts.BaselinePath = args[0]
			args = args[1:]
		case strings.HasPrefix(arg, "-baseline="):
			opts.BaselinePath = strings.TrimPrefix(arg, "-baseline=")
		default:
			fmt.Fprintf(os.Stderr, "morphlint: unknown flag %s\n", arg)
			os.Exit(1)
		}
	}
	opts.Patterns = args
	os.Exit(analysis.RunStandalone(opts))
}
