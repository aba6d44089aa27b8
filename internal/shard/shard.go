// Package shard is an N-way sharded front over secmem.Memory: line
// addresses interleave round-robin across N independent engines, each with
// its own integrity tree, untrusted store, and key derived from the master
// key, so operations on different shards proceed in parallel instead of
// serializing on one engine mutex.
//
// The sharding is security-preserving: every shard is a complete secure
// memory (counters, MACs, tree, on-chip root), so tampering with one
// shard's store fails closed inside that shard without weakening — or
// being maskable by — any other shard. Per-shard keys mean a pad or MAC
// collision in one shard tells an adversary nothing about the others.
package shard

import (
	"fmt"
	"slices"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
)

// LineBytes mirrors the engine's cacheline granularity.
const LineBytes = secmem.LineBytes

// Config describes a sharded secure memory.
type Config struct {
	// Shards is the number of independent engines (>= 1).
	Shards int
	// Mem is the template for each engine. MemoryBytes is the TOTAL
	// protected capacity and must divide evenly into Shards engines of
	// whole cachelines; Key is the master key each shard's sub-key is
	// derived from.
	Mem secmem.Config
	// Tenants, when non-empty, lays out one key-domain range per tenant id
	// (RegisterTenants). Their order does not matter; the set does: a store
	// keeps the list it was created with.
	Tenants []string
}

// Sharded interleaves line addresses across independent secmem engines.
// All fields are immutable after New (tenants and span are set once by
// RegisterTenants before serving starts); concurrency control lives inside
// each engine, so methods are safe for concurrent use.
type Sharded struct {
	cfg    Config
	shards []*secmem.Memory
	// tenants maps tenant id -> the first global line of its range, and span
	// is every range's length in lines. Set by RegisterTenants before the
	// Sharded is shared between goroutines (New calls it for Config.Tenants);
	// read-only afterwards, so no lock is needed.
	tenants map[string]uint64
	span    uint64
}

// New constructs a sharded secure memory. Each shard serves
// MemoryBytes/Shards of the address space and is keyed with
// HMAC-SHA256(master, "morphtree/shard/<i>") truncated to the master key's
// length, so shards never share counter-mode pads or MAC chains.
func New(cfg Config) (*Sharded, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", cfg.Shards)
	}
	stride := uint64(cfg.Shards) * LineBytes
	if cfg.Mem.MemoryBytes == 0 || cfg.Mem.MemoryBytes%stride != 0 {
		return nil, fmt.Errorf("shard: capacity %d is not a positive multiple of %d shards x %d-byte lines", cfg.Mem.MemoryBytes, cfg.Shards, LineBytes)
	}
	s := &Sharded{cfg: cfg, shards: make([]*secmem.Memory, cfg.Shards)}
	for i := range s.shards {
		sub := cfg.Mem
		sub.MemoryBytes = cfg.Mem.MemoryBytes / uint64(cfg.Shards)
		key, err := deriveKey(cfg.Mem.Key, i)
		if err != nil {
			return nil, err
		}
		sub.Key = key
		m, err := secmem.New(sub)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = m
	}
	if len(cfg.Tenants) > 0 {
		if err := s.RegisterTenants(cfg.Tenants); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// deriveKey derives shard i's sub-key from the master key, preserving the
// master's AES key length. The derivation itself lives in internal/proof
// (the single shared definition) so client-side verifiers reproduce it
// without importing the serving stack.
//
//morph:secret
func deriveKey(master []byte, i int) ([]byte, error) {
	key, err := proof.DeriveShardKey(master, i)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return key, nil
}

// Locate maps a line-aligned global address to (shard, local address).
// Interleaving is round-robin at line granularity: global line d lives in
// shard d % N at local line d / N, so sequential traffic spreads evenly.
// The durability layer uses it to route journal records to per-shard WALs.
func (s *Sharded) Locate(addr uint64) (int, uint64, error) {
	if addr%LineBytes != 0 {
		return 0, 0, fmt.Errorf("shard: address %#x is not line-aligned", addr)
	}
	if addr >= s.cfg.Mem.MemoryBytes {
		return 0, 0, fmt.Errorf("shard: address %#x beyond capacity %#x", addr, s.cfg.Mem.MemoryBytes)
	}
	d := addr / LineBytes
	n := uint64(s.cfg.Shards)
	return int(d % n), (d / n) * LineBytes, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.cfg.Shards }

// MemoryBytes returns the total protected capacity.
func (s *Sharded) MemoryBytes() uint64 { return s.cfg.Mem.MemoryBytes }

// Shard exposes shard i's engine — primarily its untrusted Store, the
// adversary interface attack tests tamper through.
func (s *Sharded) Shard(i int) *secmem.Memory { return s.shards[i] }

// Read verifies and decrypts the line at a line-aligned global address into
// a fresh slice the caller owns.
func (s *Sharded) Read(addr uint64) ([]byte, error) { return s.AppendRead(nil, addr) }

// AppendRead is Read appended to dst (secmem.Memory.AppendRead): nothing is
// written before the line has verified, and an error returns nil.
func (s *Sharded) AppendRead(dst []byte, addr uint64) ([]byte, error) {
	idx, local, err := s.Locate(addr)
	if err != nil {
		return nil, err
	}
	return s.shards[idx].AppendRead(dst, local)
}

// Write encrypts and stores a 64-byte line at a line-aligned global address.
func (s *Sharded) Write(addr uint64, line []byte) error {
	idx, local, err := s.Locate(addr)
	if err != nil {
		return err
	}
	return s.shards[idx].Write(local, line)
}

// RegisterTenants gives each tenant an equal range of the address space, in
// sorted-id order from address 0, and each engine the matching tenant table,
// so a line's key domain is a function of its address. A range is the largest
// multiple of shards x the lines one encryption-counter block covers that
// fits capacity / tenants: lines interleave round-robin across shards, so
// that unit is a whole number of counter blocks on every shard, and no block
// anywhere covers two tenants. Lines past the last range stay in each
// engine's own domain. It must be called once, before the Sharded is shared
// between goroutines and before anything is written; calling it again
// replaces the previous registration.
func (s *Sharded) RegisterTenants(ids []string) error {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("shard: duplicate tenant id %q", ids[i])
		}
	}
	n, lines := uint64(s.cfg.Shards), s.cfg.Mem.MemoryBytes/LineBytes
	unit := n * uint64(s.shards[0].Geometry().EncArity)
	if len(ids) == 0 || lines/uint64(len(ids)) < unit {
		return fmt.Errorf("shard: %d lines hold no %d ranges of %d lines (%d shards x %d-line counter blocks)",
			lines, len(ids), unit, n, unit/n)
	}
	span := lines / uint64(len(ids)) / unit * unit
	tenants := make(map[string]uint64, len(ids))
	table := make([]secmem.TenantRange, len(ids))
	for i, id := range ids {
		first := uint64(i) * span
		tenants[id] = first
		table[i] = secmem.TenantRange{ID: id, Lo: first / n, Hi: (first + span) / n}
	}
	for i, m := range s.shards {
		if err := m.SetTenants(table); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	s.tenants, s.span = tenants, span
	return nil
}

// TenantRange returns tenant id's range of global addresses, [base,
// base+size) bytes.
func (s *Sharded) TenantRange(id string) (base, size uint64, ok bool) {
	first, ok := s.tenants[id]
	return first * LineBytes, s.span * LineBytes, ok
}

// Stats returns the aggregate of every shard's engine stats (sums of the
// paper's event categories: increments, overflows, rebases, re-encryptions,
// verified fetches). Each per-shard snapshot is a deep copy taken under
// that shard's lock, so the merge never races the engines.
func (s *Sharded) Stats() secmem.Stats {
	var agg secmem.Stats
	for _, m := range s.shards {
		agg.Merge(m.Stats())
	}
	return agg
}

// ShardStats returns each shard's individual stats snapshot, for spotting
// load imbalance.
func (s *Sharded) ShardStats() []secmem.Stats {
	out := make([]secmem.Stats, len(s.shards))
	for i, m := range s.shards {
		out[i] = m.Stats()
	}
	return out
}

// RegisterMetrics registers a pull-time collector exposing engine stats as
// counters: fleet-wide totals (secmem.*), the per-level overflow breakdown
// (secmem.l<level>.*, the paper's Fig. 7 categories), and per-shard write
// counts (shard.<i>.writes) for spotting load imbalance. One ShardStats
// pass per scrape; nil registries are a no-op.
func (s *Sharded) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(string, uint64)) {
		per := s.ShardStats()
		var agg secmem.Stats
		for i := range per {
			agg.Merge(per[i])
			emit(fmt.Sprintf("shard.%d.writes", i), per[i].Writes)
			emit(fmt.Sprintf("shard.%d.reads", i), per[i].Reads)
		}
		emit("secmem.reads", agg.Reads)
		emit("secmem.writes", agg.Writes)
		emit("secmem.reencryptions", agg.Reencryptions)
		emit("secmem.verified_fetches", agg.VerifiedFetches)
		var overflows, rebases, setResets, switches uint64
		for _, row := range agg.OverflowsByLevel() {
			prefix := fmt.Sprintf("secmem.l%d.", row.Level)
			emit(prefix+"full_resets", row.FullResets)
			emit(prefix+"set_resets", row.SetResets)
			emit(prefix+"rebases", row.Rebases)
			emit(prefix+"format_switches", row.FormatSwitches)
			overflows += row.FullResets + row.SetResets
			rebases += row.Rebases
			setResets += row.SetResets
			switches += row.FormatSwitches
		}
		emit("secmem.overflows", overflows)
		emit("secmem.set_resets", setResets)
		emit("secmem.rebases", rebases)
		emit("secmem.format_switches", switches)
		for id, ops := range agg.Tenants {
			emit(fmt.Sprintf("tenant.%s.reads", id), ops.Reads)
			emit(fmt.Sprintf("tenant.%s.writes", id), ops.Writes)
		}
	})
}

// VerifyAll re-verifies every written line in every shard from a cold
// metadata cache, returning the first integrity error found.
func (s *Sharded) VerifyAll() error {
	for i, m := range s.shards {
		if err := m.VerifyAll(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Prove builds the verification witness for a read at a global address:
// the owning shard's ciphertext, MAC, and counter-line chain up to its
// root, plus every shard's current root digest (so the verifier can bind
// the witness to the combined root the transparency log publishes). The
// Epoch and Attestation fields are left for the serving layer to fill —
// the engine has no signing authority.
func (s *Sharded) Prove(addr uint64) (*proof.Proof, error) {
	idx, local, err := s.Locate(addr)
	if err != nil {
		return nil, err
	}
	line, lineMAC, chain, root, err := s.shards[idx].Prove(local)
	if err != nil {
		return nil, err
	}
	p := &proof.Proof{
		Addr:       addr,
		Shards:     uint32(s.cfg.Shards),
		Shard:      uint32(idx),
		Line:       line,
		LineMAC:    lineMAC,
		Chain:      chain,
		Root:       root,
		ShardRoots: make([]proof.Digest, s.cfg.Shards),
	}
	for j := range s.shards {
		if j == idx {
			p.ShardRoots[j] = proof.RootDigest(j, root)
			continue
		}
		p.ShardRoots[j] = proof.RootDigest(j, s.shards[j].RootEncoding())
	}
	return p, nil
}

// RootDigests returns every shard's current root digest. CombineRoots
// over the result is the combined root the transparency log records at a
// checkpoint epoch.
func (s *Sharded) RootDigests() []proof.Digest {
	out := make([]proof.Digest, len(s.shards))
	for i, m := range s.shards {
		out[i] = proof.RootDigest(i, m.RootEncoding())
	}
	return out
}

// FlipDataBit flips one stored ciphertext bit of the line at a global
// address (adversary interface, used by the wire-level TAMPER op). It
// reports whether the line existed.
func (s *Sharded) FlipDataBit(addr uint64, byteOff int, bit uint) bool {
	idx, local, err := s.Locate(addr)
	if err != nil {
		return false
	}
	return s.shards[idx].Store().FlipBit(local/LineBytes, byteOff, bit)
}

// MismatchError reports stored or replicated state whose layout disagrees
// with the Config it is recovered under. Installing it anyway would deal
// lines to the wrong shards (every address maps through d % Shards), or seal
// them under the wrong tenants' keys (every range moves with the tenant
// list), so the mismatch is rejected with this typed error before any state
// is built; callers distinguish operator misconfiguration from corruption.
type MismatchError struct {
	// Field names the disagreeing layout parameter ("shards" or "tenants").
	Field string
	// Stream is the value the stored or replicated state carries, and Config
	// the value the caller's Config describes. For "tenants" both are list
	// digests (0 = no tenants), not counts.
	Stream uint64
	Config uint64
}

// Error implements error.
func (e *MismatchError) Error() string {
	if e.Field == "tenants" {
		return fmt.Sprintf("shard: load: tenant list %#016x does not match config tenant list %#016x (0 = none); the tenant set is fixed when a store is created", e.Stream, e.Config)
	}
	return fmt.Sprintf("shard: load: stream %s %d does not match config %s %d", e.Field, e.Stream, e.Field, e.Config)
}

// Organization maps a counter-organization name to its encryption and tree
// specs, covering the designs the paper evaluates. Names: sc64, sc128,
// vault, morph128, morph128-zcc.
func Organization(name string) (enc counters.Spec, tree []counters.Spec, err error) {
	switch name {
	case "sc64":
		return counters.SplitSpec(64), []counters.Spec{counters.SplitSpec(64)}, nil
	case "sc128":
		return counters.SplitSpec(128), []counters.Spec{counters.SplitSpec(128)}, nil
	case "vault":
		return counters.SplitSpec(64), []counters.Spec{counters.SplitSpec(32), counters.SplitSpec(16)}, nil
	case "morph128":
		return counters.MorphSpec(true), []counters.Spec{counters.MorphSpec(true)}, nil
	case "morph128-zcc":
		return counters.MorphSpec(false), []counters.Spec{counters.MorphSpec(false)}, nil
	}
	return counters.Spec{}, nil, fmt.Errorf("shard: unknown organization %q (want sc64, sc128, vault, morph128, morph128-zcc)", name)
}
