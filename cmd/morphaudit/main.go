// Command morphaudit is the external auditor for a morphserve
// transparency log: a thin client that trusts nothing the server says
// until it has checked the signatures and hashes itself.
//
// Each audit cycle it
//
//   - fetches the log position (ROOT): signing key, signed head, newest
//     entry — pinning the key trust-on-first-use into the state file and
//     failing hard if it ever changes;
//   - verifies the head signature, fetches any entries appended since the
//     last cycle (ROOT_RANGE), verifies every entry signature and the
//     epoch hash chain, and checks the RFC-6962 consistency proof linking
//     the previously pinned head to the new one — so a server that forks,
//     rewrites, or truncates its log is caught even if every individual
//     signature it presents is valid;
//   - spot-verifies reads: fetches PROOF witnesses for a spread of
//     addresses and reruns the whole counter-tree walk client-side with
//     proof.Verify, so a flipped byte in the server's backing store is
//     detected without trusting the server's own integrity checking.
//
// Any inconsistency makes the process exit 1 (operational failures such
// as an unreachable server exit 2). With -interval it keeps auditing
// until interrupted; -once runs a single cycle, which is what
// `make proof-smoke` and CI drive.
//
// Usage:
//
//	morphaudit -addr 127.0.0.1:7443 -once -spot 32
//	morphaudit -addr 127.0.0.1:7443 -state audit.json -interval 10s
package main

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// state is the auditor's persisted view of the log: everything needed to
// catch a fork or rewrite between cycles.
type state struct {
	// Pub is the TOFU-pinned signing key (hex).
	Pub string `json:"pub"`
	// Size and HeadHash pin the last verified head.
	Size     uint64 `json:"size"`
	HeadHash string `json:"head_hash"`
	// LastEntryHash chains the next batch of entries to the last one seen.
	LastEntryHash string `json:"last_entry_hash"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7443", "morphserve address to audit")
	statePath := flag.String("state", "", "state file pinning the signing key and last verified head (empty = stateless cycles)")
	once := flag.Bool("once", false, "run one audit cycle and exit")
	interval := flag.Duration("interval", 10*time.Second, "delay between audit cycles without -once")
	spot := flag.Int("spot", 16, "addresses to spot-verify with full client-side proof checking per cycle (0 disables)")
	span := flag.Uint64("span", 1<<20, "address range in bytes the spot checks spread over")
	org := flag.String("org", "morph128", "counter organization the server runs (must match for spot verification)")
	mem := flag.Uint64("mem", 4<<20, "server's protected capacity in bytes (must match for spot verification)")
	shards := flag.Int("shards", 0, "server's shard count (0 = adopt the count the first proof claims)")
	keyHex := flag.String("key", "", "AES master key in hex (data-owner credential for spot verification; default is the fixed demo key)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	flag.Parse()

	key := []byte("0123456789abcdef")
	if *keyHex != "" {
		k, err := hex.DecodeString(*keyHex)
		if err != nil {
			log.Fatalf("morphaudit: -key: %v", err)
		}
		key = k
	}
	enc, tree, err := shard.Organization(*org)
	if err != nil {
		log.Fatalf("morphaudit: %v", err)
	}
	params := proof.Params{MemoryBytes: *mem, Shards: *shards, Enc: enc, Tree: tree}

	cl := wire.NewResilient(wire.ResilientConfig{Addrs: []string{*addr}, Timeout: *timeout, Logf: log.Printf})
	defer cl.Close()

	a := &auditor{cl: cl, statePath: *statePath, params: params, key: key, spot: *spot, span: *span}
	for {
		if err := a.cycle(); err != nil {
			var ie *inconsistencyError
			if errors.As(err, &ie) {
				log.Printf("morphaudit: INCONSISTENT: %v", err)
				os.Exit(1)
			}
			log.Printf("morphaudit: %v", err)
			os.Exit(2)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// inconsistencyError marks evidence of server misbehavior — a failed
// signature, a broken hash chain, a forked head, or a read whose proof
// does not verify — as opposed to operational trouble like an unreachable
// server.
type inconsistencyError struct{ err error }

func (e *inconsistencyError) Error() string { return e.err.Error() }
func (e *inconsistencyError) Unwrap() error { return e.err }

func inconsistent(format string, args ...any) error {
	return &inconsistencyError{fmt.Errorf(format, args...)}
}

type auditor struct {
	cl        *wire.Client
	statePath string
	params    proof.Params
	key       []byte
	spot      int
	span      uint64

	// st carries state across cycles in-process; the state file persists
	// it across runs.
	st     *state
	loaded bool
}

// cycle runs one full audit pass: log position, consistency, spot reads.
func (a *auditor) cycle() error {
	ri, err := a.cl.Root()
	if err != nil {
		return fmt.Errorf("fetch root: %w", err)
	}
	if err := a.loadState(); err != nil {
		return err
	}

	pub := ed25519.PublicKey(ri.Pub)
	if a.st == nil {
		// Trust-on-first-use: pin the key the first cycle sees; everything
		// after is verified against it.
		a.st = &state{Pub: hex.EncodeToString(ri.Pub)}
		log.Printf("morphaudit: pinned signing key %s", a.st.Pub)
	} else if a.st.Pub != hex.EncodeToString(ri.Pub) {
		return inconsistent("signing key changed: pinned %s, server now presents %s", a.st.Pub, hex.EncodeToString(ri.Pub))
	}

	if err := proof.VerifyHead(pub, ri.Head); err != nil {
		return inconsistent("head signature: %v", err)
	}
	if err := a.checkLog(pub, ri); err != nil {
		return err
	}
	if err := a.spotVerify(pub); err != nil {
		return err
	}
	return a.saveState()
}

// checkLog verifies the log grew append-only from the pinned head: every
// new entry's signature and hash chain, plus the consistency proof linking
// the old head to the new one.
func (a *auditor) checkLog(pub ed25519.PublicKey, ri *proof.RootInfo) error {
	oldSize := a.st.Size
	newSize := ri.Head.Size
	switch {
	case newSize < oldSize:
		return inconsistent("log shrank: pinned size %d, server reports %d", oldSize, newSize)
	case newSize == oldSize:
		if oldSize > 0 && a.st.HeadHash != hex.EncodeToString(ri.Head.Hash[:]) {
			return inconsistent("equivocation: two signed heads at size %d (pinned %s, server presents %s)",
				oldSize, a.st.HeadHash, hex.EncodeToString(ri.Head.Hash[:]))
		}
		return nil
	}

	rr, err := a.cl.RootRange(oldSize, newSize)
	if err != nil {
		return fmt.Errorf("fetch entries [%d,%d): %w", oldSize, newSize, err)
	}
	if rr.From != oldSize || rr.To != newSize || uint64(len(rr.Entries)) != newSize-oldSize {
		return inconsistent("entry range mismatch: asked [%d,%d), got [%d,%d) with %d entries",
			oldSize, newSize, rr.From, rr.To, len(rr.Entries))
	}

	var prev proof.Digest
	if a.st.LastEntryHash != "" {
		raw, err := hex.DecodeString(a.st.LastEntryHash)
		if err != nil || len(raw) != len(prev) {
			return fmt.Errorf("corrupt state: last_entry_hash %q", a.st.LastEntryHash)
		}
		copy(prev[:], raw)
	}
	for i, e := range rr.Entries {
		wantEpoch := oldSize + uint64(i) + 1
		if e.Epoch != wantEpoch {
			return inconsistent("entry %d claims epoch %d, want %d", i, e.Epoch, wantEpoch)
		}
		if err := proof.VerifyEntry(pub, e, prev); err != nil {
			return inconsistent("epoch %d: %v", e.Epoch, err)
		}
		prev = proof.EntryHash(e)
	}

	if oldSize == 0 {
		// First sight of this log: we hold every entry, so recompute the
		// Merkle head outright instead of relying on a consistency proof.
		leaves := make([]proof.Digest, len(rr.Entries))
		for i, e := range rr.Entries {
			leaves[i] = proof.EntryHash(e)
		}
		if got := proof.TreeHash(leaves); got != ri.Head.Hash {
			return inconsistent("signed head hash does not match the %d entries served", len(leaves))
		}
	} else {
		var oldHash proof.Digest
		raw, err := hex.DecodeString(a.st.HeadHash)
		if err != nil || len(raw) != len(oldHash) {
			return fmt.Errorf("corrupt state: head_hash %q", a.st.HeadHash)
		}
		copy(oldHash[:], raw)
		if err := proof.VerifyConsistency(oldSize, oldHash, newSize, ri.Head.Hash, rr.Proof); err != nil {
			return inconsistent("consistency %d -> %d: %v", oldSize, newSize, err)
		}
	}

	log.Printf("morphaudit: log consistent, %d -> %d epochs", oldSize, newSize)
	a.st.Size = newSize
	a.st.HeadHash = hex.EncodeToString(ri.Head.Hash[:])
	a.st.LastEntryHash = hex.EncodeToString(prev[:])
	return nil
}

// spotVerify fetches proofs for a spread of addresses and reruns the full
// counter-tree walk client-side against the attested roots.
func (a *auditor) spotVerify(pub ed25519.PublicKey) error {
	if a.spot <= 0 {
		return nil
	}
	span := a.span
	if span > a.params.MemoryBytes || span == 0 {
		span = a.params.MemoryBytes
	}
	lines := span / proof.LineBytes
	if lines == 0 {
		lines = 1
	}
	step := lines / uint64(a.spot)
	if step == 0 {
		step = 1
	}
	for i := 0; i < a.spot; i++ {
		addr := (uint64(i) * step % lines) * proof.LineBytes
		p, err := a.cl.Proof(addr)
		if err != nil {
			return fmt.Errorf("fetch proof for %#x: %w", addr, err)
		}
		if a.params.Shards == 0 {
			// No -shards pin: adopt the first proof's claimed count. The
			// attestation still binds it — a lie changes every digest.
			a.params.Shards = int(p.Shards)
		}
		if _, err := p.Verify(a.params, a.key, pub); err != nil {
			return inconsistent("read proof for %#x: %v", addr, err)
		}
	}
	log.Printf("morphaudit: %d/%d spot reads verified", a.spot, a.spot)
	return nil
}

func (a *auditor) loadState() error {
	if a.loaded || a.statePath == "" {
		a.loaded = true
		return nil
	}
	a.loaded = true
	raw, err := os.ReadFile(a.statePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("read state: %w", err)
	}
	var st state
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("decode state %s: %w", a.statePath, err)
	}
	a.st = &st
	return nil
}

func (a *auditor) saveState() error {
	if a.statePath == "" {
		return nil
	}
	raw, err := json.MarshalIndent(a.st, "", "  ")
	if err != nil {
		return fmt.Errorf("encode state: %w", err)
	}
	if err := os.WriteFile(a.statePath, append(raw, '\n'), 0o600); err != nil {
		return fmt.Errorf("write state: %w", err)
	}
	return nil
}
