// Package proof makes reads verifiable by parties that do not trust the
// server. It has three layers:
//
//  1. Walker — the pure tree-walk verification shared by the engine
//     (internal/secmem delegates its MAC-chain checks here) and by
//     client-side verifiers. A Walker holds only derived key material and
//     counter specs; it never touches storage, so the same code that the
//     memory controller runs on-chip runs unchanged inside an auditor.
//  2. Proof — a self-contained witness for one read: the ciphertext, its
//     MAC, and the counter line at every tree level on its verification
//     path, up to the owning shard's root. Verify recomputes the whole
//     walk from the master key and accepts only if every MAC matches —
//     zero server trust.
//  3. Authority / transparency log — an Ed25519-signed append-only log of
//     epoch roots with RFC-6962-style consistency proofs between epochs,
//     so a server that ever forks or rewrites its history is caught by
//     any auditor comparing two signed heads.
//
// The trust model is explicit: the verifier holds the AES master key (it
// is the data owner; the server is untrusted storage), plus the
// authority's Ed25519 public key (pinned on first contact). The package
// deliberately imports neither internal/secmem nor internal/shard, so a
// thin client links only the crypto and codec layers.
package proof

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/mac"
)

// LineBytes is the cacheline granularity, mirroring the engine.
const LineBytes = counters.LineBytes

// MismatchError reports a failed proof verification: some link of the MAC
// chain does not match what the key material demands. It is the client-side
// analogue of secmem.IntegrityError (the engine converts between the two at
// its boundary so wire behavior is unchanged).
type MismatchError struct {
	// Level is the failing verification level: -1 for the data line,
	// 0 for encryption counters, 1.. for tree levels, and the root level
	// for a root that disagrees with its published digest.
	Level int
	// Index is the failing line's index within its level.
	Index uint64
	// Reason describes the mismatch.
	Reason string
}

// Error implements error.
func (e *MismatchError) Error() string {
	what := "data line"
	if e.Level == 0 {
		what = "encryption-counter line"
	} else if e.Level > 0 {
		what = fmt.Sprintf("tree level-%d line", e.Level)
	}
	return fmt.Sprintf("proof: verification mismatch at %s %d: %s", what, e.Index, e.Reason)
}

// Walker verifies individual links of a counter-tree MAC chain. It is
// pure: no storage, no caching, no locks — given a raw line and the
// parent counter value that should authenticate it, DecodeVerify either
// returns the decoded block or a typed *MismatchError. Both the secmem
// engine and Proof.Verify drive their walks through one of these.
type Walker struct {
	enc   counters.Spec
	tree  []counters.Spec
	keyer *mac.Keyer
}

// NewWalker builds a walker for one engine's counter organization and
// (shard-level) key. width 0 defaults to mac.Width56, matching secmem.
func NewWalker(enc counters.Spec, tree []counters.Spec, key []byte, width mac.Width) (*Walker, error) {
	if len(tree) == 0 {
		return nil, fmt.Errorf("proof: tree spec schedule is empty")
	}
	if width == 0 {
		width = mac.Width56
	}
	keyer, err := mac.New(key, width)
	if err != nil {
		return nil, err
	}
	return &Walker{enc: enc, tree: tree, keyer: keyer}, nil
}

// SpecAt returns the counter organization at a level (0 = encryption
// counters; the tree schedule's last element repeats for deeper levels).
func (w *Walker) SpecAt(level int) counters.Spec {
	if level == 0 {
		return w.enc
	}
	i := level - 1
	if i >= len(w.tree) {
		i = len(w.tree) - 1
	}
	return w.tree[i]
}

// DecodeVerify unpacks a stored counter line and checks its MAC against
// the expected parent counter value, returning a *MismatchError on any
// disagreement. This is the per-link step of the tree walk.
//
// A line's MAC covers its own encoding with the MAC field zeroed. The
// decoders accept only canonical encodings, so for a line that decodes that
// is the raw line with its last word masked: there is no need to re-encode
// the block to find out what was signed.
//
//morph:hotpath
func (w *Walker) DecodeVerify(level int, idx uint64, raw []byte, parentValue uint64) (counters.Block, error) {
	blk, err := w.SpecAt(level).Decode(raw)
	if err != nil {
		return nil, &MismatchError{Level: level, Index: idx, Reason: fmt.Sprintf("undecodable line: %v", err)}
	}
	var signed [LineBytes]byte
	copy(signed[:], raw)
	counters.SetLineMAC(signed[:], 0)
	if blk.MAC() != w.keyer.Counter(signed[:], parentValue, level, idx) {
		return nil, &MismatchError{Level: level, Index: idx, Reason: "MAC mismatch"}
	}
	return blk, nil
}

// VerifyData checks a data line's MAC under its encryption counter and
// line-local address, returning a *MismatchError on disagreement.
//
//morph:hotpath
func (w *Walker) VerifyData(ciphertext []byte, counter, addr, storedMAC uint64) error {
	if w.keyer.Data(ciphertext, counter, addr) != storedMAC {
		return &MismatchError{Level: -1, Index: addr / LineBytes, Reason: "MAC mismatch"}
	}
	return nil
}

// DeriveShardKey derives shard i's sub-key from the master key with
// HMAC-SHA256(master, "morphtree/shard/<i>"), truncated to the master's
// AES key length. It is the single definition of the derivation both the
// serving stack (internal/shard) and client-side verifiers share: a proof
// for shard i verifies under exactly the key the engine sealed it with.
//
//morph:secret
func DeriveShardKey(master []byte, i int) ([]byte, error) {
	switch len(master) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("proof: master key must be 16, 24, or 32 bytes, got %d", len(master))
	}
	h := hmac.New(sha256.New, master)
	fmt.Fprintf(h, "morphtree/shard/%d", i)
	return h.Sum(nil)[:len(master)], nil
}

// DeriveTenantKey derives tenant id's key-domain sub-key from an engine
// key with HMAC-SHA256(engineKey, "morphtree/tenant/<id>"), truncated to
// the engine key's AES length. Layered over DeriveShardKey it gives each
// (shard, tenant) pair an independent data-line key domain: tenant data is
// sealed under a key no other tenant's reads can reproduce, so a
// cross-tenant read fails closed as a MAC mismatch even though every
// tenant shares the same physical store and integrity tree. It lives here,
// next to DeriveShardKey, so client-side verifiers holding the master key
// can reproduce the full two-step derivation without importing the serving
// stack.
//
//morph:secret
func DeriveTenantKey(engineKey []byte, id string) ([]byte, error) {
	switch len(engineKey) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("proof: engine key must be 16, 24, or 32 bytes, got %d", len(engineKey))
	}
	if id == "" {
		return nil, fmt.Errorf("proof: tenant id must be non-empty")
	}
	h := hmac.New(sha256.New, engineKey)
	fmt.Fprintf(h, "morphtree/tenant/%s", id)
	return h.Sum(nil)[:len(engineKey)], nil
}

// Locate maps a line-aligned global address to (shard, local address)
// under the round-robin line interleave: global line d lives in shard
// d % shards at local line d / shards. It mirrors shard.Sharded.Locate so
// a verifier can reproduce the server's address routing without importing
// the serving stack.
func Locate(memoryBytes uint64, shards int, addr uint64) (int, uint64, error) {
	if shards < 1 {
		return 0, 0, fmt.Errorf("proof: shard count %d must be >= 1", shards)
	}
	if addr%LineBytes != 0 {
		return 0, 0, fmt.Errorf("proof: address %#x is not line-aligned", addr)
	}
	if addr >= memoryBytes {
		return 0, 0, fmt.Errorf("proof: address %#x beyond capacity %#x", addr, memoryBytes)
	}
	d := addr / LineBytes
	n := uint64(shards)
	return int(d % n), (d / n) * LineBytes, nil
}
