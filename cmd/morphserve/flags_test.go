package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// parseAndValidate runs the full flag pipeline the way main does.
func parseAndValidate(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		return nil, err
	}
	return o, o.validate()
}

// TestFlagDefaultsValid: the zero-flag invocation must validate; it is
// the documented quickstart.
func TestFlagDefaultsValid(t *testing.T) {
	o, err := parseAndValidate(t)
	if err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if string(o.key) != "0123456789abcdef" {
		t.Fatalf("default key = %q", o.key)
	}
	if len(o.tree) == 0 {
		t.Fatal("default org did not resolve a tree schedule")
	}
}

// TestFlagInvalidCombos: every refusal path must fire, and each error
// must name the offending flag so the operator knows what to change.
func TestFlagInvalidCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the error must contain
	}{
		{"cluster without data-dir", []string{"-cluster"}, "-cluster requires -data-dir"},
		{"cluster follow self", []string{"-cluster", "-data-dir", "/tmp/d", "-cluster-self", "h:1", "-cluster-join", "h:1"}, "cannot follow itself"},
		{"cluster zero lease", []string{"-cluster", "-data-dir", "/tmp/d", "-cluster-lease", "0s"}, "-cluster-lease must be positive"},
		{"cluster negative ack", []string{"-cluster", "-data-dir", "/tmp/d", "-cluster-ack", "-1"}, "-cluster-ack must be >= 0"},
		{"cluster epoch zero", []string{"-cluster", "-data-dir", "/tmp/d", "-cluster-epoch", "0"}, "not defined: -cluster-epoch"},
		{"cluster-join without cluster", []string{"-cluster-join", "h:1"}, "no effect without -cluster"},
		{"cluster-self without cluster", []string{"-cluster-self", "h:1"}, "no effect without -cluster"},
		{"cluster-peers without cluster", []string{"-cluster-peers", "h:1,h:2"}, "no effect without -cluster"},
		{"cluster-ack without cluster", []string{"-cluster-ack", "1"}, "no effect without -cluster"},
		{"keep-epochs without data-dir", []string{"-keep-epochs", "3"}, "not defined: -keep-epochs"},
		{"negative keep-epochs", []string{"-data-dir", "/tmp/d", "-keep-epochs", "-1"}, "not defined: -keep-epochs"},
		{"delta-every without data-dir", []string{"-delta-every", "5s"}, "-delta-every has no effect without -data-dir"},
		{"negative delta-every", []string{"-data-dir", "/tmp/d", "-delta-every", "-1s"}, "-delta-every must be >= 0"},
		{"negative snapshot-every", []string{"-data-dir", "/tmp/d", "-snapshot-every", "-1s"}, "-snapshot-every must be >= 0"},
		{"negative max-conns", []string{"-max-conns", "-1"}, "-max-conns must be >= 0"},
		{"negative max-inflight", []string{"-max-inflight", "-4"}, "-max-inflight must be >= 0"},
		{"negative shed-wait", []string{"-shed-wait", "-1ms"}, "-shed-wait must be >= 0"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout must be >= 0"},
		{"negative frame-timeout", []string{"-frame-timeout", "-5s"}, "-frame-timeout must be >= 0"},
		{"retired trace-buf", []string{"-admin", "127.0.0.1:0", "-trace-buf", "64"}, "not defined: -trace-buf"},
		{"bad key hex", []string{"-key", "zz"}, "-key"},
		{"short key", []string{"-key", "0011"}, "16, 24, or 32 bytes"},
		{"bad org", []string{"-org", "nonesuch"}, "-org"},
		{"zero mem", []string{"-mem", "0"}, "-mem"},
		{"bad fsync", []string{"-fsync", "sometimes"}, "-fsync"},
		{"bad sign seed hex", []string{"-sign-seed", "xy"}, "-sign-seed"},
		{"short sign seed", []string{"-sign-seed", "aabb"}, "exactly 32 bytes"},
		{"positional args", []string{"serve"}, "positional"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseAndValidate(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestFlagClusterResolution: a valid cluster invocation resolves peers,
// roles, and defaults the way DESIGN.md §16 documents.
func TestFlagClusterResolution(t *testing.T) {
	o, err := parseAndValidate(t,
		"-cluster", "-data-dir", "/tmp/d",
		"-cluster-self", "10.0.0.1:7443",
		"-cluster-join", "10.0.0.2:7443",
		"-cluster-peers", "10.0.0.2:7443, 10.0.0.3:7443,,",
		"-cluster-lease", "2s",
		"-cluster-ack", "1",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.peers) != 2 || o.peers[0] != "10.0.0.2:7443" || o.peers[1] != "10.0.0.3:7443" {
		t.Fatalf("peers = %v", o.peers)
	}
	if o.clusterJoin != "10.0.0.2:7443" || o.clusterLease != 2*time.Second || o.clusterAck != 1 {
		t.Fatalf("cluster options = %+v", o)
	}
	// A primary needs no join address.
	if _, err := parseAndValidate(t, "-cluster", "-data-dir", "/tmp/d"); err != nil {
		t.Fatalf("primary invocation rejected: %v", err)
	}
}

// TestFlagKeyAndSeedResolution: explicit key/seed material round-trips.
func TestFlagKeyAndSeedResolution(t *testing.T) {
	o, err := parseAndValidate(t,
		"-key", "00112233445566778899aabbccddeeff",
		"-sign-seed", strings.Repeat("ab", 32),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.key) != 16 || o.key[0] != 0x00 || o.key[15] != 0xff {
		t.Fatalf("key = %x", o.key)
	}
	if len(o.seed) != 32 || o.seed[0] != 0xab {
		t.Fatalf("seed = %x", o.seed)
	}
}

// TestREADMEInvocationsParse: every `go run ./cmd/morphserve ...` in a fenced
// block of README.md, its backslash-continued lines joined, parses and
// validates, so the README cannot show a flag morphserve no longer has.
func TestREADMEInvocationsParse(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const cmd = "go run ./cmd/morphserve"
	fenced, n := false, 0
	for _, line := range strings.Split(strings.ReplaceAll(string(readme), "\\\n", " "), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		_, rest, ok := strings.Cut(line, cmd)
		if !fenced || !ok {
			continue
		}
		rest, _, _ = strings.Cut(rest, " #")
		n++
		if _, err := parseAndValidate(t, strings.Fields(strings.TrimSuffix(strings.TrimSpace(rest), "&"))...); err != nil {
			t.Errorf("README: %s%s: %v", cmd, rest, err)
		}
	}
	if n == 0 {
		t.Fatalf("README.md has no %q in a fenced block", cmd)
	}
}
