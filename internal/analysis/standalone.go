package analysis

// Standalone invocation (`morphlint ./...`): the tool re-executes itself
// through `go vet -vettool=<self>`, letting the go command do package
// loading, export-data compilation, fact-file plumbing and caching, then
// sorts what vet printed in this parent process: findings, reported with
// their paths made relative, from everything else, which is a build or tool
// failure. A finding is suppressed only where it occurs, by a justified
// //morphlint:allow directive, so unit processes see no flags and the go
// command's vet result cache stays valid.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// diagLine matches the unitchecker's stderr format:
// path:line:col: message [analyzer]
var diagLine = regexp.MustCompile(`^(.+?):\d+:\d+: .+ \[[A-Za-z0-9_]+\]$`)

// RunStandalone handles direct invocation by re-executing the tool through
// `go vet -vettool=<self>` over patterns (default ./...) and reporting its
// diagnostics on stderr. Returns a process exit code: 0 clean, 1 tool/build
// failure, 2 findings.
func RunStandalone(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphlint: cannot locate own executable: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	diags, other := parseVetOutput(stderr.String())

	// Lines that are not diagnostics are build/tool failures (typecheck
	// errors, bad patterns). Surface them verbatim and fail hard — a run
	// that could not analyze everything must not look clean.
	if len(other) > 0 {
		for _, line := range other {
			fmt.Fprintln(os.Stderr, line)
		}
		return 1
	}
	if runErr != nil && len(diags) == 0 {
		fmt.Fprintf(os.Stderr, "morphlint: go vet: %v\n", runErr)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// parseVetOutput splits go vet stderr into diagnostics, each with an absolute
// path under the working directory made relative, and everything else.
// Package group headers ("# pkg") are dropped: they only annotate the
// diagnostics that follow.
func parseVetOutput(out string) (diags, other []string) {
	cwd, _ := os.Getwd()
	for _, line := range strings.Split(out, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			other = append(other, line)
			continue
		}
		file := m[1]
		if cwd != "" && filepath.IsAbs(file) {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		diags = append(diags, file+line[len(m[1]):])
	}
	return diags, other
}
