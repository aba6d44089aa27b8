// Package buildsmoke_test compiles every binary under cmd/ and examples/,
// and keeps what they link in check.
// Those packages are mostly excluded from unit testing (they are thin mains
// over the internal packages), so without this check a refactor can break
// them silently until someone runs the tool by hand.
package buildsmoke_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot walks up from this file to the directory containing go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	dir := filepath.Dir(file)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test file")
		}
		dir = parent
	}
}

func TestBinariesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping build smoke test in -short mode")
	}
	root := repoRoot(t)
	var pkgs []string
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatalf("reading %s: %v", parent, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgs = append(pkgs, "./"+parent+"/"+e.Name())
			}
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no cmd/ or examples/ packages found")
	}
	out := t.TempDir()
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "build", "-o", filepath.Join(out, filepath.Base(pkg)+"-"), pkg)
			cmd.Dir = root
			if msg, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("go build %s failed: %v\n%s", pkg, err, msg)
			}
		})
	}
}

// TestNoListenerOrProfilerInTheEngine: the binaries' footprint is mostly
// what they link. morphserve answers its admin plane without net/http, so
// it must not carry HTTP/2, TLS and x509 (about 4 MB of its text and
// rodata when it did); the engine packages every binary links must not
// pull in a listener or profiler of their own; and the paper's mechanism
// (secmem, cache) reports through its Stats, not through telemetry, as the
// wire client reports through its Counters.
func TestNoListenerOrProfilerInTheEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list in -short mode")
	}
	root := repoRoot(t)
	const obs = "github.com/securemem/morphtree/internal/obs"
	for _, c := range []struct {
		pkg       string
		forbidden []string
	}{
		{"./cmd/morphserve", []string{"net/http", "crypto/tls", "crypto/x509"}},
		{"./internal/secmem", []string{"runtime/pprof", "runtime/trace", "net/url", obs}},
		{"./internal/cache", []string{obs}},
		{"./internal/server", []string{"runtime/pprof", "runtime/trace", "net/url"}},
		{"./internal/shard", []string{"runtime/pprof", "runtime/trace", "net/url"}},
		{"./internal/wire", []string{obs}},
	} {
		cmd := exec.Command("go", "list", "-deps", c.pkg)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", c.pkg, err)
		}
		deps := map[string]bool{}
		for _, d := range strings.Fields(string(out)) {
			deps[d] = true
		}
		for _, f := range c.forbidden {
			if deps[f] {
				t.Errorf("%s links %s", c.pkg, f)
			}
		}
	}
}

// TestOneFormatAtRest: every file of a data directory is a WAL segment or a
// state stream, and both are tagged by the line MAC. internal/durable must not
// import crypto/hmac, whose HMAC-SHA256 tagged the tenant list before it was a
// state stream, and internal/cluster must not import encoding/json, which
// cluster.META was written in. Only direct imports are checked: mac.Derive
// keeps HMAC as its key derivation, so both packages link crypto/hmac.
func TestOneFormatAtRest(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list in -short mode")
	}
	root := repoRoot(t)
	for _, c := range []struct{ pkg, forbidden string }{
		{"./internal/durable", "crypto/hmac"},
		{"./internal/cluster", "encoding/json"},
	} {
		cmd := exec.Command("go", "list", "-f", `{{join .Imports " "}}`, c.pkg)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %s: %v", c.pkg, err)
		}
		imports := strings.Fields(string(out))
		if len(imports) == 0 {
			t.Fatalf("go list %s named no imports", c.pkg)
		}
		for _, imp := range imports {
			if imp == c.forbidden {
				t.Errorf("%s imports %s", c.pkg, c.forbidden)
			}
		}
	}
}
