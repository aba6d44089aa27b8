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
	// Obs, when non-nil, instruments every engine: all shards record into
	// shared secmem.write.latency / secmem.read.latency / secmem.lock_wait
	// histograms (histograms merge across recorders, so one stream covers
	// the fleet while trace events stay shard-tagged).
	Obs *obs.Registry
	// Tracer, when non-nil, receives each engine's tree-walk, overflow,
	// rebase and format-switch events tagged with its shard index.
	Tracer *obs.Tracer
}

// Sharded interleaves line addresses across independent secmem engines.
// All fields are immutable after New (tenants is populated once by
// RegisterTenants before serving starts); concurrency control lives inside
// each engine, so methods are safe for concurrent use.
type Sharded struct {
	cfg    Config
	shards []*secmem.Memory
	// tenants maps tenant id -> one key domain per shard (parallel to
	// shards). Populated by RegisterTenants before the Sharded is shared
	// between goroutines; read-only afterwards, so no lock is needed.
	tenants map[string][]*secmem.Domain
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
		cfg.instrument(m, i)
		s.shards[i] = m
	}
	return s, nil
}

// instrument wires engine i into the shared obs instruments, if any.
func (c Config) instrument(m *secmem.Memory, i int) {
	if c.Obs == nil && c.Tracer == nil {
		return
	}
	m.Instrument(secmem.Instrumentation{
		WriteLatency: c.Obs.Histogram("secmem.write.latency"),
		ReadLatency:  c.Obs.Histogram("secmem.read.latency"),
		LockWait:     c.Obs.Histogram("secmem.lock_wait"),
		Tracer:       c.Tracer,
		Shard:        int32(i),
	})
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
	return s.locate(addr)
}

func (s *Sharded) locate(addr uint64) (int, uint64, error) {
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
	idx, local, err := s.locate(addr)
	if err != nil {
		return nil, err
	}
	return s.shards[idx].AppendRead(dst, local)
}

// Write encrypts and stores a 64-byte line at a line-aligned global address.
func (s *Sharded) Write(addr uint64, line []byte) error {
	idx, local, err := s.locate(addr)
	if err != nil {
		return err
	}
	return s.shards[idx].Write(local, line)
}

// RegisterTenants derives a key domain for every (tenant, shard) pair, so
// each tenant's data lines are sealed under keys layered over the shard
// sub-keys (HMAC(shardKey, "morphtree/tenant/<id>")). It must be called
// once, before the Sharded is shared between goroutines — the domain map
// is read locklessly afterwards, preserving the immutable-after-New
// contract. Calling it again replaces the previous registration.
func (s *Sharded) RegisterTenants(ids []string) error {
	tenants := make(map[string][]*secmem.Domain, len(ids))
	for _, id := range ids {
		if _, dup := tenants[id]; dup {
			return fmt.Errorf("shard: duplicate tenant id %q", id)
		}
		doms := make([]*secmem.Domain, len(s.shards))
		for i, m := range s.shards {
			dom, err := m.NewDomain(id)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			doms[i] = dom
		}
		tenants[id] = doms
	}
	s.tenants = tenants
	return nil
}

// tenantDomain resolves tenant id's key domain on shard idx.
func (s *Sharded) tenantDomain(id string, idx int) (*secmem.Domain, error) {
	doms, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("shard: unknown tenant %q", id)
	}
	return doms[idx], nil
}

// TenantRead is AppendRead routed through tenant id's key domain. A line last
// written by a different tenant (or via the default-domain Write) fails
// closed with a *secmem.IntegrityError — cross-tenant isolation is
// enforced by key separation, not access-control bookkeeping.
func (s *Sharded) TenantRead(dst []byte, id string, addr uint64) ([]byte, error) {
	idx, local, err := s.locate(addr)
	if err != nil {
		return nil, err
	}
	dom, err := s.tenantDomain(id, idx)
	if err != nil {
		return nil, err
	}
	return s.shards[idx].ReadDomain(dst, dom, local)
}

// TenantWrite is Write routed through tenant id's key domain.
func (s *Sharded) TenantWrite(id string, addr uint64, line []byte) error {
	idx, local, err := s.locate(addr)
	if err != nil {
		return err
	}
	dom, err := s.tenantDomain(id, idx)
	if err != nil {
		return err
	}
	return s.shards[idx].WriteDomain(dom, local, line)
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
	idx, local, err := s.locate(addr)
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
	idx, local, err := s.locate(addr)
	if err != nil {
		return false
	}
	return s.shards[idx].Store().FlipBit(local/LineBytes, byteOff, bit)
}

// MismatchError reports a state stream whose shard layout disagrees with the
// Config it is recovered under. Installing it anyway would deal lines to the
// wrong shards (every address maps through d % Shards), so the mismatch is
// rejected with this typed error before any state is built; callers
// distinguish operator misconfiguration from stream corruption.
type MismatchError struct {
	// Field names the disagreeing layout parameter ("shards").
	Field string
	// Stream is the value the stream carries.
	Stream uint64
	// Config is the value the caller's Config describes.
	Config uint64
}

// Error implements error.
func (e *MismatchError) Error() string {
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
