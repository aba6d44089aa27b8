// Package tenant is the multi-tenant isolation layer: a registry of tenant
// identities (authentication secret, scheduling weight, quota spec) and the
// weighted fair admission scheduler every served operation passes — the
// server's only admission gate, run over the Anonymous table when no tenants
// are configured.
//
// The design follows the paper's core lesson — metadata overhead must be
// managed per workload — translated to serving: every tenant gets its own
// range of addresses, whose lines are sealed under its own key domain and
// covered by its own counter blocks (laid out by shard.RegisterTenants, keys
// derived per (shard, tenant) via internal/proof.DeriveTenantKey), its own
// token buckets and inflight cap, and a deficit-weighted round-robin share of
// the server's global concurrency, so one greedy tenant is shed with a typed
// *QuotaError while small tenants keep making progress.
package tenant

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// TokenLen is the length of a HELLO authentication token.
const TokenLen = sha256.Size

// PeerID is the HELLO id a cluster peer binds under, with a token only a
// holder of the master key can make (a cluster node checks it with
// AuthenticatePeer). A peer binding is not a tenant binding: it admits
// REPLICATE and no data op, so NewRegistry refuses the id to a tenant.
const PeerID = "morphtree/cluster-peer"

// Spec declares one tenant: identity, authentication secret, and quotas.
// Zero quota fields mean unlimited; Weight zero means weight 1.
type Spec struct {
	// ID is the tenant identity bound to connections at HELLO time and
	// used for key-domain derivation. Non-empty, unique, at most 255
	// bytes (it crosses the wire length-prefixed by one byte).
	ID string `json:"id"`
	// Secret authenticates HELLO frames: the client proves possession by
	// sending HMAC-SHA256(secret, "morphtree/tenant-hello/<id>").
	Secret string `json:"secret"`
	// Weight is the tenant's deficit-round-robin share of global
	// admission capacity relative to other tenants (default 1).
	Weight int `json:"weight,omitempty"`
	// MaxInflight caps the tenant's concurrently admitted + queued
	// operations (0 = no per-tenant cap).
	MaxInflight int `json:"max_inflight,omitempty"`
	// OpsPerSec is the tenant's token-bucket operation rate (0 = none).
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// BytesPerSec is the tenant's token-bucket payload-byte rate
	// (0 = none).
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
}

// QuotaError reports an operation shed by quota or fairness enforcement
// before execution: the operation was never admitted, so retrying after
// backoff is always safe (wire.IsRetryable treats it like BusyError).
// It crosses the wire intact as StatusQuota.
type QuotaError struct {
	// Tenant is the shed tenant's id.
	Tenant string
	// Resource names the exhausted budget: "ops", "bytes", "inflight",
	// or "capacity".
	Resource string
	// Msg describes the limit.
	Msg string
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant: %q shed on %s quota: %s", e.Tenant, e.Resource, e.Msg)
}

// Registry holds the tenant table. Immutable after New; safe for
// concurrent use.
type Registry struct {
	specs map[string]Spec
	ids   []string // sorted, for deterministic iteration
}

// NewRegistry validates and indexes a tenant table.
func NewRegistry(specs []Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one tenant")
	}
	r := &Registry{specs: make(map[string]Spec, len(specs))}
	for _, s := range specs {
		if s.ID == "" {
			return nil, fmt.Errorf("tenant: tenant id must be non-empty")
		}
		if len(s.ID) > 255 {
			return nil, fmt.Errorf("tenant: tenant id %q exceeds 255 bytes", s.ID[:16]+"...")
		}
		if s.ID == PeerID {
			return nil, fmt.Errorf("tenant: tenant id %q is the cluster peers'", s.ID)
		}
		if _, dup := r.specs[s.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant id %q", s.ID)
		}
		if s.Secret == "" {
			return nil, fmt.Errorf("tenant: tenant %q needs a secret", s.ID)
		}
		if s.Weight < 0 || s.MaxInflight < 0 || s.OpsPerSec < 0 || s.BytesPerSec < 0 {
			return nil, fmt.Errorf("tenant: tenant %q has a negative quota field", s.ID)
		}
		if s.Weight == 0 {
			s.Weight = 1
		}
		r.specs[s.ID] = s
		r.ids = append(r.ids, s.ID)
	}
	sort.Strings(r.ids)
	return r, nil
}

// Anonymous is the table of a server with no tenants configured: one tenant
// of weight 1 with no quotas, so the scheduler's capacity is its only limit,
// under the empty id — which NewRegistry refuses, so no configured table
// holds it and a connection that has not said HELLO matches no real tenant.
func Anonymous() *Registry {
	return &Registry{specs: map[string]Spec{"": {Weight: 1}}, ids: []string{""}}
}

// LoadConfig reads a tenant table from a JSON file: an array of Spec
// objects ({"id", "secret", "weight", "max_inflight", "ops_per_sec",
// "bytes_per_sec"}).
func LoadConfig(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: config: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("tenant: config %s: %w", path, err)
	}
	return NewRegistry(specs)
}

// IDs returns the registered tenant ids in sorted order.
func (r *Registry) IDs() []string {
	return append([]string(nil), r.ids...)
}

// Spec returns tenant id's spec.
func (r *Registry) Spec(id string) (Spec, bool) {
	s, ok := r.specs[id]
	return s, ok
}

// HelloToken computes the HELLO proof-of-possession token for a tenant:
// HMAC-SHA256(secret, "morphtree/tenant-hello/<id>"). Both the client
// (to build a HELLO frame) and the server (to check one) call this; the
// token is derived, never the secret itself, so the secret never crosses
// the wire.
func HelloToken(secret, id string) [TokenLen]byte {
	h := hmac.New(sha256.New, []byte(secret))
	fmt.Fprintf(h, "morphtree/tenant-hello/%s", id)
	var tok [TokenLen]byte
	copy(tok[:], h.Sum(nil))
	return tok
}

// Authenticate verifies a HELLO token for tenant id in constant time.
// Unknown tenants fail.
func (r *Registry) Authenticate(id string, token []byte) bool {
	s, ok := r.specs[id]
	if !ok {
		return false
	}
	want := HelloToken(s.Secret, id)
	return hmac.Equal(token, want[:])
}
