package tenant

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSpecs() []Spec {
	return []Spec{
		{ID: "alpha", Secret: "alpha-secret", Weight: 2},
		{ID: "beta", Secret: "beta-secret"},
	}
}

func TestNewRegistryValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []Spec
		want  string // substring of the error, "" = ok
	}{
		{"ok", testSpecs(), ""},
		{"empty", nil, "at least one"},
		{"no id", []Spec{{Secret: "s"}}, "non-empty"},
		{"long id", []Spec{{ID: strings.Repeat("x", 256), Secret: "s"}}, "255"},
		{"peer id", []Spec{{ID: PeerID, Secret: "s"}}, "cluster peers"},
		{"dup id", []Spec{{ID: "a", Secret: "s"}, {ID: "a", Secret: "s"}}, "duplicate"},
		{"no secret", []Spec{{ID: "a"}}, "secret"},
		{"negative weight", []Spec{{ID: "a", Secret: "s", Weight: -1}}, "negative"},
		{"negative rate", []Spec{{ID: "a", Secret: "s", OpsPerSec: -5}}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRegistry(tc.specs)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("NewRegistry: %v", err)
				}
				if r == nil {
					t.Fatal("NewRegistry returned nil registry")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewRegistry error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRegistryDefaultsAndLookup(t *testing.T) {
	r, err := NewRegistry(testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("IDs() = %v, want sorted [alpha beta]", got)
	}
	b, ok := r.Spec("beta")
	if !ok {
		t.Fatal("Spec(beta) not found")
	}
	if b.Weight != 1 {
		t.Fatalf("zero weight defaulted to %d, want 1", b.Weight)
	}
	if _, ok := r.Spec("nobody"); ok {
		t.Fatal("Spec(nobody) unexpectedly found")
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	cfg := `[
  {"id": "victim", "secret": "vs", "weight": 4},
  {"id": "greedy", "secret": "gs", "ops_per_sec": 100, "max_inflight": 2}
]`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"greedy", "victim"}) {
		t.Fatalf("IDs() = %v", got)
	}
	g, _ := r.Spec("greedy")
	if g.OpsPerSec != 100 || g.MaxInflight != 2 {
		t.Fatalf("greedy spec = %+v", g)
	}

	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadConfig(missing) succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("LoadConfig(bad json) succeeded")
	}
}

func TestHelloTokenAuthenticate(t *testing.T) {
	r, err := NewRegistry(testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	tok := HelloToken("alpha-secret", "alpha")
	if !r.Authenticate("alpha", tok[:]) {
		t.Fatal("valid token rejected")
	}
	// A token is bound to its tenant id: alpha's token must not admit beta,
	// even if both shared a secret.
	if r.Authenticate("beta", tok[:]) {
		t.Fatal("alpha token accepted for beta")
	}
	wrong := HelloToken("wrong-secret", "alpha")
	if r.Authenticate("alpha", wrong[:]) {
		t.Fatal("token from wrong secret accepted")
	}
	if r.Authenticate("nobody", tok[:]) {
		t.Fatal("unknown tenant accepted")
	}
	if r.Authenticate("alpha", tok[:TokenLen-1]) {
		t.Fatal("truncated token accepted")
	}
}

func TestQuotaErrorMessage(t *testing.T) {
	e := &QuotaError{Tenant: "alpha", Resource: "ops", Msg: "rate 100 ops/s exhausted"}
	for _, want := range []string{"alpha", "ops", "exhausted"} {
		if !strings.Contains(e.Error(), want) {
			t.Fatalf("Error() = %q, missing %q", e.Error(), want)
		}
	}
}
