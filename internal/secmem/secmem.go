// Package secmem is the functional secure-memory engine: a working
// implementation of the full SGX-style protection stack the paper builds on
// — counter-mode encryption, per-line MACs, and a Bonsai-style counter
// integrity tree — parameterized by any counter organization from
// internal/counters (SC-n baselines, VAULT's variable arity, MorphCtr-128).
//
// The engine maintains real cryptographic state: reads verify the MAC chain
// from the data line up to the on-chip root and fail with *IntegrityError
// on any tampering, splicing, or replay; writes increment counters, handle
// overflows by re-encrypting the affected children, and propagate updates
// to the root. The performance simulator (internal/sim) models the same
// machinery's timing; this package proves its security behavior.
//
// The cache of verified counter blocks is write-back, like the paper's
// metadata cache: a write increments its leaf counter in the cache and marks
// the block dirty; a write-back increments the parent's counter for the block
// (dirtying the parent in turn), seals the block under that new value and
// stores it. Invariant: every stored counter line is sealed under its parent's
// current cached value for that slot, or its block is cached and dirty. Reads
// and cold fetches consult cached values only, so verification stays exact.
// Every dirty block is written back before a stored line or the root can be
// seen or a cached block dropped (FlushMetadataCache, VerifyAll, Save,
// BeginCut, BeginFullCut, Prove, RootEncoding, Store, Apply), and
// oldest first while more than dirtyBlockBound are dirty. So for l >= 1,
// Stats.Increments[l] counts write-backs of level l-1: tree-line writes.
//
// The store (store.go) keeps lines in paged tables, 64 consecutive lines to a
// chunk — for data one 4 KB page, the span of one MCR counter set — with their
// MACs and dirty stamps and, for counter lines, the cached verified block
// beside them: an access indexes where it used to hash a map, and work on the
// store scales with the chunks touched, not with the capacity.
package secmem

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/invariant"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/tree"
)

// LineBytes is the cacheline granularity of the engine.
const LineBytes = 64

// dirtyBlockBound is how many cached counter blocks may await write-back: the
// paper's 128 KB metadata cache, in 64-byte lines. It bounds the stall a
// full write-back adds to a checkpoint, whatever the memory size.
const dirtyBlockBound = 128 << 10 / LineBytes

// Config describes a secure-memory instance.
type Config struct {
	// MemoryBytes is the protected capacity (a multiple of 64).
	MemoryBytes uint64
	// Enc is the encryption-counter organization (e.g. SC-64,
	// MorphCtr-128).
	Enc counters.Spec
	// Tree is the per-level integrity-tree counter schedule; element 0 is
	// level 1, with the last element repeating (VAULT: [SC-32, SC-16]).
	Tree []counters.Spec
	// Key is the AES key (16, 24, or 32 bytes) for pads and MACs.
	//
	//morph:secret
	Key []byte
	// MACWidth is the MAC truncation (defaults to mac.Width56).
	MACWidth mac.Width
}

// IntegrityError reports a failed verification: the memory contents do not
// match what the processor wrote, i.e. an attack or corruption.
type IntegrityError struct {
	// Level is the failing verification level: -1 for a data line,
	// 0 for encryption counters, 1.. for tree levels.
	Level int
	// Index is the failing line's index within its level.
	Index uint64
	// Reason describes the mismatch.
	Reason string
}

// Error implements error.
func (e *IntegrityError) Error() string {
	what := "data line"
	if e.Level == 0 {
		what = "encryption-counter line"
	} else if e.Level > 0 {
		what = fmt.Sprintf("tree level-%d line", e.Level)
	}
	return fmt.Sprintf("secmem: integrity violation at %s %d: %s", what, e.Index, e.Reason)
}

// Stats counts engine activity, mirroring the event categories the paper's
// evaluation reports.
type Stats struct {
	// Reads and Writes count data-line operations.
	Reads, Writes uint64
	// Increments, Overflows and Rebases are per counter level
	// (index 0 = encryption counters).
	Increments []uint64
	Overflows  []uint64
	Rebases    []uint64
	// SetResets counts, per level, the subset of Overflows that reset
	// only one MCR counter set (re-encrypting the set size, 64 children)
	// rather than the whole line. Overflows[l] - SetResets[l] is the
	// full-reset count, giving the paper's Fig. 7-style breakdown of
	// cheap vs expensive overflows.
	SetResets []uint64
	// FormatSwitches counts, per level, ZCC<->uniform/MCR representation
	// changes (free re-encodings, no memory traffic).
	FormatSwitches []uint64
	// Reencryptions counts child lines rewritten due to overflows.
	Reencryptions uint64
	// VerifiedFetches counts counter lines fetched from untrusted
	// storage and MAC-verified (the tree-traversal work).
	VerifiedFetches uint64
	// Tenants counts data-line traffic per tenant range, keyed by tenant
	// id: a row for every tenant in the table (SetTenants), nil without one.
	Tenants map[string]TenantOps
}

// TenantOps is the data-line traffic on one tenant's range of an engine.
type TenantOps struct {
	Reads, Writes uint64
}

// LevelOverflow is one row of the per-level overflow breakdown.
type LevelOverflow struct {
	// Level is the counter level (0 = encryption counters).
	Level int
	// FullResets overflowed the whole line (arity children rewritten).
	FullResets uint64
	// SetResets overflowed one MCR counter set (64 children rewritten).
	SetResets uint64
	// Rebases absorbed a would-be overflow with no extra traffic.
	Rebases uint64
	// FormatSwitches re-encoded the line's representation for free.
	FormatSwitches uint64
}

// OverflowsByLevel splits the overflow counts into the paper's Fig. 7
// categories, one row per counter level that saw any activity.
func (s Stats) OverflowsByLevel() []LevelOverflow {
	levels := len(s.Overflows)
	out := make([]LevelOverflow, 0, levels)
	for l := 0; l < levels; l++ {
		row := LevelOverflow{Level: l, FullResets: s.Overflows[l]}
		if l < len(s.SetResets) {
			row.SetResets = s.SetResets[l]
			row.FullResets -= row.SetResets
		}
		if l < len(s.Rebases) {
			row.Rebases = s.Rebases[l]
		}
		if l < len(s.FormatSwitches) {
			row.FormatSwitches = s.FormatSwitches[l]
		}
		out = append(out, row)
	}
	return out
}

// Memory is a functional secure memory. All methods are safe for
// concurrent use; operations serialize on an internal lock, matching the
// single memory controller the engine models.
type Memory struct {
	// Immutable after New.
	cfg    Config
	geom   *tree.Geometry
	keyer  *mac.Keyer
	walker *proof.Walker
	store  *Store

	mu    sync.Mutex
	root  counters.Block
	stats Stats
	// own is the engine's key domain, and tenants the sorted tenant table
	// (SetTenants); a data line is sealed under the one domainOf finds.
	own     domain
	tenants []domain
	// spare[level] is a block of the level's organization that bump copies a
	// line into before incrementing it, and preValues is where the copy's
	// values are decoded if the increment overflowed. Organizations differ by
	// level, so each needs its own spare; no bump runs inside another and all
	// run under mu, so one set per Memory suffices and the increment path
	// allocates nothing (TestHotPathAllocations).
	spare     []counters.Block
	preValues []uint64
	// Dirty epochs for incremental checkpoints (see dirty.go): a stored line
	// is stamped dirtyCur; stamps >= dirtyFloor are dirty; cut is the open cut,
	// and cutBufs its two record buffers, kept from the last one.
	dirtyCur   uint32
	dirtyFloor uint32
	cut        *Cut
	cutBufs    [2][]byte
	// wb is the counter cache's state; write evicts while more than wbBound
	// blocks are dirty (a field only so a test can shrink it).
	wb      writeBackState
	wbBound int
}

// blockRef names a counter block below the root.
type blockRef struct {
	level int
	idx   uint64
}

// writeBackState tracks the cache of verified counter blocks, which live in
// the store's chunks beside their lines: cached lists the chunks that hold
// any, so dropping the cache costs what was cached, not a level. Of those
// whose stored line is stale ("dirty" in the paper's sense, not the checkpoint
// stamps') the chunk's pending bit flags each, and ring holds them oldest
// first, n of them from head. err is the first write-back failure; the engine
// fails stop on it.
type writeBackState struct {
	cached  []*chunk[ctrExt]
	ring    []blockRef
	head, n int
	err     error
}

// New constructs a secure memory. All counters start at zero and all lines
// read as zero until written.
func New(cfg Config) (*Memory, error) {
	if len(cfg.Tree) == 0 {
		return nil, fmt.Errorf("secmem: tree spec schedule is empty")
	}
	arities := make([]int, len(cfg.Tree))
	for i, s := range cfg.Tree {
		arities[i] = s.Arity
	}
	geom, err := tree.New(cfg.MemoryBytes, cfg.Enc.Arity, arities)
	if err != nil {
		return nil, err
	}
	cipher, err := aesctr.New(cfg.Key)
	if err != nil {
		return nil, err
	}
	width := cfg.MACWidth
	if width == 0 {
		width = mac.Width56
	}
	keyer, err := mac.New(cfg.Key, width)
	if err != nil {
		return nil, err
	}
	walker, err := proof.NewWalker(cfg.Enc, cfg.Tree, cfg.Key, cfg.MACWidth)
	if err != nil {
		return nil, err
	}
	m := &Memory{
		cfg:    cfg,
		geom:   geom,
		keyer:  keyer,
		walker: walker,
		store:  newStore(geom),
		root:   walker.SpecAt(geom.RootLevel()).New(),
		own:    domain{cipher: cipher, keyer: keyer},
	}
	levels := geom.RootLevel() + 1
	m.stats.Increments = make([]uint64, levels)
	m.stats.Overflows = make([]uint64, levels)
	m.stats.Rebases = make([]uint64, levels)
	m.stats.SetResets = make([]uint64, levels)
	m.stats.FormatSwitches = make([]uint64, levels)
	m.spare = make([]counters.Block, levels)
	for i := range m.spare {
		spec := walker.SpecAt(i)
		m.spare[i] = spec.New()
		if spec.Arity > len(m.preValues) {
			m.preValues = make([]uint64, spec.Arity)
		}
	}
	m.dirtyCur, m.dirtyFloor = firstEpoch, firstEpoch
	m.wbBound = dirtyBlockBound
	m.wb.ring = make([]blockRef, dirtyBlockBound+1)
	return m, nil
}

// Geometry exposes the metadata layout.
func (m *Memory) Geometry() *tree.Geometry { return m.geom }

// Store exposes the untrusted backing store (the adversary's view), with
// every dirty counter block written back first: what an adversary sees is
// sealed state. A line dirtied later is overwritten at its write-back,
// whatever was done to its stale stored copy.
func (m *Memory) Store() *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // a failure is kept in wb.err and fails every later op
	return m.store
}

// Clone returns a deep copy of s: the per-level slices are reallocated, so
// mutating the copy (or the original, under the engine's lock) never aliases
// the other.
func (s Stats) Clone() Stats {
	s.Increments = append([]uint64(nil), s.Increments...)
	s.Overflows = append([]uint64(nil), s.Overflows...)
	s.Rebases = append([]uint64(nil), s.Rebases...)
	s.SetResets = append([]uint64(nil), s.SetResets...)
	s.FormatSwitches = append([]uint64(nil), s.FormatSwitches...)
	if s.Tenants != nil {
		tenants := make(map[string]TenantOps, len(s.Tenants))
		for id, ops := range s.Tenants {
			tenants[id] = ops
		}
		s.Tenants = tenants
	}
	return s
}

// Merge adds other's counts into s, extending the per-level slices if other
// has more levels. Shard aggregators use this to roll per-engine stats into
// one view.
func (s *Stats) Merge(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Reencryptions += other.Reencryptions
	s.VerifiedFetches += other.VerifiedFetches
	s.Increments = mergeLevels(s.Increments, other.Increments)
	s.Overflows = mergeLevels(s.Overflows, other.Overflows)
	s.Rebases = mergeLevels(s.Rebases, other.Rebases)
	s.SetResets = mergeLevels(s.SetResets, other.SetResets)
	s.FormatSwitches = mergeLevels(s.FormatSwitches, other.FormatSwitches)
	for id, ops := range other.Tenants {
		if s.Tenants == nil {
			s.Tenants = make(map[string]TenantOps, len(other.Tenants))
		}
		t := s.Tenants[id]
		t.Reads += ops.Reads
		t.Writes += ops.Writes
		s.Tenants[id] = t
	}
}

func mergeLevels(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Stats returns a deep copy of the activity counters, taken under the
// engine's lock. Callers may retain and mutate the result freely; it never
// aliases the slices the engine keeps incrementing.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats.Clone()
	if len(m.tenants) > 0 {
		s.Tenants = make(map[string]TenantOps, len(m.tenants))
	}
	for _, d := range m.tenants {
		s.Tenants[d.ID] = d.ops
	}
	return s
}

// FlushMetadataCache writes back every dirty counter line and drops every
// verified one below the root, so subsequent accesses re-fetch and re-verify
// from untrusted storage. Attack simulations use this to model a cold
// metadata cache.
func (m *Memory) FlushMetadataCache() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.flushMetadataCache() // see Store
}

func (m *Memory) flushMetadataCache() error {
	if err := m.settle(0); err != nil {
		return err
	}
	for _, c := range m.wb.cached {
		c.ext.blk, c.ext.listed = [chunkLines]counters.Block{}, false
	}
	m.wb.cached = m.wb.cached[:0]
	return nil
}

// Path returns the (level, index) verification chain for a data line, from
// the encryption-counter line up to (excluding) the on-chip root.
func (m *Memory) Path(addr uint64) [][2]uint64 {
	idx := addr / LineBytes / uint64(m.geom.EncArity)
	chain := [][2]uint64{{0, idx}}
	for level := 0; level < m.geom.RootLevel()-1; level++ {
		parent, _ := m.geom.ParentSlot(level, idx)
		chain = append(chain, [2]uint64{uint64(level + 1), parent})
		idx = parent
	}
	return chain
}

// checkAddr validates a line-aligned address.
func (m *Memory) checkAddr(addr uint64) error {
	if addr%LineBytes != 0 {
		return fmt.Errorf("secmem: address %#x is not line-aligned", addr)
	}
	if addr >= m.cfg.MemoryBytes {
		return fmt.Errorf("secmem: address %#x beyond capacity %#x", addr, m.cfg.MemoryBytes)
	}
	return nil
}

// Write encrypts and stores a 64-byte line at a line-aligned address,
// incrementing its counter in the cache; the tree above it moves when the
// counter line is written back.
func (m *Memory) Write(addr uint64, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.write(addr, line)
}

func (m *Memory) write(addr uint64, line []byte) error {
	if err := m.checkAddr(addr); err != nil {
		return err
	}
	if len(line) != LineBytes {
		return fmt.Errorf("secmem: line must be %d bytes, got %d", LineBytes, len(line))
	}
	if m.wb.err != nil {
		return m.wb.err
	}
	d := addr / LineBytes
	eb, slot := m.geom.EncSlot(d)
	blk, err := m.bump(0, eb, slot)
	if err != nil {
		return err
	}
	if err := m.settle(m.wbBound); err != nil {
		return err
	}
	ctr := blk.Value(slot)
	c, i := m.store.data.grow(d), d%chunkLines
	if m.cut != nil {
		m.cut.keep(c.stamp[i], DirtyLine{Level: -1, Index: d, Line: c.get(i), MAC: c.ext.mac[i]})
	}
	dom, ct := m.domainOf(d), c.line[i][:]
	if err := dom.cipher.XOR(ct, line, addr, ctr); err != nil {
		return err
	}
	m.sealData(c, i, dom.keyer.Data(ct, ctr, addr))
	m.stats.Writes++
	dom.ops.Writes++
	return nil
}

// sealData records the MAC of data line i of c, whose ciphertext was just
// built where it is stored: the engine hands out only copies of a stored
// buffer, so nothing outside the lock can be looking at it.
func (m *Memory) sealData(c *chunk[dataExt], i uint64, lineMAC uint64) {
	c.has |= 1 << i
	c.ext.mac[i] = lineMAC
	c.mark(i, m.dirtyCur)
}

// Read fetches, verifies and decrypts the 64-byte line at a line-aligned
// address. Never-written lines read as zeros. Any inconsistency between the
// stored {data, MAC, counters} and the protected state returns an
// *IntegrityError. The caller owns the fresh slice it returns.
func (m *Memory) Read(addr uint64) ([]byte, error) { return m.AppendRead(nil, addr) }

// AppendRead is Read into the caller's buffer: the verified plaintext is
// appended to dst and the extended slice returned, so a caller that reuses
// its buffer reads without allocating. Nothing is written into dst until the
// tree walk and the MAC have verified the line, and on any error the result
// is nil and dst[:len(dst)] is as it was.
func (m *Memory) AppendRead(dst []byte, addr uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.read(dst, addr)
}

func (m *Memory) read(dst []byte, addr uint64) ([]byte, error) {
	if err := m.checkAddr(addr); err != nil {
		return nil, err
	}
	if m.wb.err != nil {
		return nil, m.wb.err
	}
	d := addr / LineBytes
	eb, slot := m.geom.EncSlot(d)
	blk, err := m.trustedBlock(0, eb)
	if err != nil {
		return nil, err
	}
	ctr := blk.Value(slot)
	c, i, dom := m.store.data.at(d), d%chunkLines, m.domainOf(d)
	ct := c.get(i)
	if ct == nil {
		if ctr == 0 {
			m.stats.Reads++
			dom.ops.Reads++
			return append(dst, zeroLine[:]...), nil
		}
		return nil, &IntegrityError{Level: -1, Index: d, Reason: "written line missing from memory"}
	}
	if dom.keyer.Data(ct, ctr, addr) != c.ext.mac[i] {
		return nil, &IntegrityError{Level: -1, Index: d, Reason: "MAC mismatch"}
	}
	// Verified: only now is dst touched, and the plaintext is decrypted where
	// it lands. Growing a nil dst is the one allocation of a warm Read; a
	// caller that passes its own buffer back pays none.
	n := len(dst)
	dst = slices.Grow(dst, LineBytes)[:n+LineBytes]
	if err := dom.cipher.XOR(dst[n:], ct, addr, ctr); err != nil {
		return nil, err
	}
	m.stats.Reads++
	dom.ops.Reads++
	return dst, nil
}

// zeroLine is what a never-written line reads as.
var zeroLine [LineBytes]byte

// bump increments the counter protecting child `slot` of line `idx` at
// `level` in the cache, handling an overflow by refreshing (re-encrypting or
// re-MACing) the affected children, and leaves the block dirty: its stored
// line and its parent's counter for it move at write-back.
//
// An overflow has to know what every sibling's value was before it. Overflows
// are what the paper's formats make rare, so the increment does not pay for
// one in advance: the block is copied as it is, and the copy is decoded only
// if Increment says it overflowed. Nothing here predicts the overflow — the
// format logic that decides it exists once, in Increment.
func (m *Memory) bump(level int, idx uint64, slot int) (counters.Block, error) {
	blk, err := m.trustedBlock(level, idx)
	if err != nil {
		return nil, err
	}
	pre := m.spare[level]
	pre.CopyFrom(blk)
	ev := blk.Increment(slot)
	m.stats.Increments[level]++
	if ev.Overflow {
		m.stats.Overflows[level]++
		if ev.Reencrypt < blk.Arity() {
			m.stats.SetResets[level]++
		}
	}
	if ev.Rebased {
		m.stats.Rebases[level]++
	}
	if ev.FormatSwitch {
		m.stats.FormatSwitches[level]++
	}
	if level < m.geom.RootLevel() {
		// blk is cached, so its chunk exists.
		if c, bit := m.store.levels[level].at(idx), uint64(1)<<(idx%chunkLines); c.ext.pending&bit == 0 {
			c.ext.pending |= bit
			m.wb.ring[(m.wb.head+m.wb.n)%len(m.wb.ring)] = blockRef{level, idx}
			m.wb.n++
		}
	}
	if ev.Overflow {
		// The refresh rewrites resident children where they are stored; it
		// allocates only what a first write or a cold fetch of a child would
		// (TestHotPathAllocations).
		snapshot := m.preValues[:pre.Arity()]
		pre.Values(snapshot)
		if err := m.refreshChildren(level, idx, blk, snapshot, slot); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// writeBack makes a dirty block's stored line current: it increments the
// parent's counter for the block — the paper's tree-line write, which leaves
// the parent dirty in turn; the root never leaves the chip — then seals the
// block under that new value and stores it.
func (m *Memory) writeBack(level int, idx uint64) error {
	parent, pslot := m.geom.ParentSlot(level, idx)
	pblk, err := m.bump(level+1, parent, pslot)
	if err != nil {
		return err
	}
	m.sealBlock(level, idx, pblk.Value(pslot))
	m.store.levels[level].at(idx).ext.pending &^= 1 << (idx % chunkLines)
	return nil
}

// pending reports whether a counter block is cached and awaiting write-back.
func (m *Memory) pending(level int, idx uint64) bool {
	c := m.store.levels[level].at(idx)
	return c != nil && c.ext.pending>>(idx%chunkLines)&1 != 0
}

// settle writes dirty blocks back, oldest first, until at most keep remain;
// a parent dirtied on the way queues behind its children. A write-back fails
// only on an integrity violation (a tampered sibling met while an overflow is
// refreshed) and not every caller can return one, so the engine fails stop:
// the error is kept and every later operation returns it.
func (m *Memory) settle(keep int) error {
	var wrote []blockRef // morphdebug builds only
	for m.wb.err == nil && m.wb.n > keep {
		ref := m.wb.ring[m.wb.head]
		m.wb.head = (m.wb.head + 1) % len(m.wb.ring)
		m.wb.n--
		m.wb.err = m.writeBack(ref.level, ref.idx)
		if invariant.Enabled {
			wrote = append(wrote, ref)
		}
	}
	if m.wb.err == nil {
		m.assertSealed(wrote)
	}
	return m.wb.err
}

// assertSealed checks the write-back invariant on the lines a settle wrote,
// which no adversary has touched since: each still verifies under its
// parent's cached value now, whatever later write-backs did to the parent,
// unless it is dirty again.
func (m *Memory) assertSealed(wrote []blockRef) {
	for _, ref := range wrote {
		if m.pending(ref.level, ref.idx) {
			continue
		}
		parent, pslot := m.geom.ParentSlot(ref.level, ref.idx)
		pblk, err := m.trustedBlock(ref.level+1, parent)
		if err == nil {
			_, err = m.walker.DecodeVerify(ref.level, ref.idx, m.store.levels[ref.level].at(ref.idx).get(ref.idx%chunkLines), pblk.Value(pslot))
		}
		invariant.Assertf(err == nil, "secmem: level-%d line %d is not sealed under its parent after its write-back: %v", ref.level, ref.idx, err)
	}
}

// refreshChildren re-encrypts (level 0) or re-MACs (level >= 1) every child
// whose effective counter value changed in an overflow, excluding the child
// being written (the caller rewrites it anyway). This is the paper's
// overflow cost: arity reads plus arity writes of extra traffic.
func (m *Memory) refreshChildren(level int, idx uint64, blk counters.Block, snapshot []uint64, skip int) error {
	arity := uint64(blk.Arity())
	var childEntries uint64
	if level == 0 {
		childEntries = m.geom.DataLines
	} else {
		childEntries = m.geom.LevelEntries(level - 1)
	}
	for i := 0; i < int(arity); i++ {
		child := idx*arity + uint64(i)
		if i == skip || child >= childEntries || blk.Value(i) == snapshot[i] {
			continue
		}
		if level > 0 && m.pending(level-1, child) {
			continue // its write-back seals it under the value the parent has then
		}
		if level == 0 {
			if err := m.reencryptData(child, snapshot[i], blk.Value(i)); err != nil {
				return err
			}
		} else {
			if err := m.remacChild(level-1, child, snapshot[i], blk.Value(i)); err != nil {
				return err
			}
		}
		m.stats.Reencryptions++
	}
	return nil
}

// reencryptData re-encrypts one data line from its old counter value to the
// new one, verifying its MAC on the way. Never-written lines materialize as
// encrypted zeros, under the keys of the line's domain, so their non-zero
// counters stay consistent and they read as zeros.
func (m *Memory) reencryptData(d uint64, oldCtr, newCtr uint64) error {
	c, i, dom := m.store.data.at(d), d%chunkLines, m.domainOf(d)
	addr := d * LineBytes
	var pt [LineBytes]byte // the plaintext, between its two pads
	if ct := c.get(i); ct != nil {
		if dom.keyer.Data(ct, oldCtr, addr) != c.ext.mac[i] {
			return &IntegrityError{Level: -1, Index: d, Reason: "MAC mismatch during re-encryption"}
		}
		if err := dom.cipher.XOR(pt[:], ct, addr, oldCtr); err != nil {
			return err
		}
	} else if oldCtr != 0 {
		return &IntegrityError{Level: -1, Index: d, Reason: "written line missing during re-encryption"}
	} else {
		c = m.store.data.grow(d)
	}
	if m.cut != nil {
		m.cut.keep(c.stamp[i], DirtyLine{Level: -1, Index: d, Line: c.get(i), MAC: c.ext.mac[i]})
	}
	ct := c.line[i][:]
	if err := dom.cipher.XOR(ct, pt[:], addr, newCtr); err != nil {
		return err
	}
	m.sealData(c, i, dom.keyer.Data(ct, newCtr, addr))
	return nil
}

// remacChild recomputes a counter line's MAC after its parent counter
// changed in an overflow (the line's content is unchanged).
func (m *Memory) remacChild(level int, idx uint64, oldParent, newParent uint64) error {
	c, i := m.store.levels[level].at(idx), idx%chunkLines
	if c == nil || c.ext.blk[i] == nil {
		if _, err := m.fetchBlock(level, idx, c.get(i), oldParent); err != nil {
			return err
		}
	}
	m.sealBlock(level, idx, newParent)
	return nil
}

// fetchBlock decodes a counter line's stored bytes, verified under its parent's
// counter for it (which must be zero for a line never stored: that one starts
// fresh), and caches the block beside the line, its chunk listed for the flush.
func (m *Memory) fetchBlock(level int, idx uint64, raw []byte, parentValue uint64) (blk counters.Block, err error) {
	switch {
	case raw != nil:
		if blk, err = m.decodeAndVerify(level, idx, raw, parentValue); err != nil {
			return nil, err
		}
	case parentValue != 0:
		return nil, &IntegrityError{Level: level, Index: idx, Reason: "counter line missing from memory"}
	default:
		blk = m.walker.SpecAt(level).New()
	}
	c := m.store.levels[level].grow(idx)
	c.ext.blk[idx%chunkLines] = blk
	if !c.ext.listed {
		c.ext.listed = true
		m.wb.cached = append(m.wb.cached, c)
	}
	return blk, nil
}

// trustedBlock returns a verified counter block, fetching and MAC-checking
// it from untrusted storage if it is not already in the trusted cache.
func (m *Memory) trustedBlock(level int, idx uint64) (counters.Block, error) {
	if level == m.geom.RootLevel() {
		return m.root, nil
	}
	c, i := m.store.levels[level].at(idx), idx%chunkLines
	if c != nil && c.ext.blk[i] != nil {
		return c.ext.blk[i], nil
	}
	parent, pslot := m.geom.ParentSlot(level, idx)
	pblk, err := m.trustedBlock(level+1, parent)
	if err != nil {
		return nil, err
	}
	raw := c.get(i)
	blk, err := m.fetchBlock(level, idx, raw, pblk.Value(pslot))
	if err != nil || raw == nil {
		return blk, err
	}
	m.stats.VerifiedFetches++
	return blk, nil
}

// decodeAndVerify unpacks a stored counter line and checks its MAC against
// the expected parent counter value. The actual walk logic lives in
// proof.Walker so client-side verifiers run the identical code; this
// wrapper only converts the walker's typed mismatch into the engine's.
func (m *Memory) decodeAndVerify(level int, idx uint64, raw []byte, parentValue uint64) (counters.Block, error) {
	blk, err := m.walker.DecodeVerify(level, idx, raw, parentValue)
	if err != nil {
		return nil, integrityFromMismatch(err)
	}
	return blk, nil
}

// integrityFromMismatch converts a *proof.MismatchError into the engine's
// *IntegrityError, preserving level, index, and reason, so the package's
// error contract is unchanged by the shared-walker refactor.
func integrityFromMismatch(err error) error {
	var me *proof.MismatchError
	if errors.As(err, &me) {
		return &IntegrityError{Level: me.Level, Index: me.Index, Reason: me.Reason}
	}
	return err
}

// sealBlock computes a cached block's MAC under parentValue and persists it.
// The block is encoded once, over its stored line, with a zero MAC field — the
// bytes the MAC covers — and the MAC is then written into the line's last word.
func (m *Memory) sealBlock(level int, idx uint64, parentValue uint64) {
	c, i := m.store.levels[level].at(idx), idx%chunkLines
	if m.cut != nil {
		m.cut.keep(c.stamp[i], DirtyLine{Level: int32(level), Index: idx, Line: c.get(i)})
	}
	blk, line := c.ext.blk[i], c.line[i][:]
	blk.SetMAC(0)
	blk.EncodeTo(line)
	sealed := m.keyer.Counter(line, parentValue, level, idx)
	blk.SetMAC(sealed)
	counters.SetLineMAC(line, sealed)
	c.has |= 1 << i
	c.mark(i, m.dirtyCur)
}

// ReadAt reads len(p) bytes starting at an arbitrary offset, crossing line
// boundaries as needed.
func (m *Memory) ReadAt(p []byte, off uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(p) > 0 {
		base := off &^ (LineBytes - 1)
		line, err := m.read(nil, base)
		if err != nil {
			return err
		}
		n := copy(p, line[off-base:])
		p = p[n:]
		off += uint64(n)
	}
	return nil
}

// WriteAt writes p starting at an arbitrary offset using read-modify-write
// on partial lines.
func (m *Memory) WriteAt(p []byte, off uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(p) > 0 {
		base := off &^ (LineBytes - 1)
		var line []byte
		if off == base && len(p) >= LineBytes {
			line = p[:LineBytes]
		} else {
			cur, err := m.read(nil, base)
			if err != nil {
				return err
			}
			copy(cur[off-base:], p)
			line = cur
		}
		n := int(base + LineBytes - off)
		if n > len(p) {
			n = len(p)
		}
		if err := m.write(base, line); err != nil {
			return err
		}
		p = p[n:]
		off += uint64(n)
	}
	return nil
}

// Prove snapshots the raw material for a read proof at a line-aligned
// address: the stored ciphertext and MAC (nil/0 if never written), the raw
// counter line at every level on the verification path (nil entries for
// never-materialized lines), and the on-chip root's encoding. Everything
// is cloned under the engine lock, so the proof is a consistent point-in-
// time view even with concurrent writers; the engine does NOT verify the
// chain here — the whole point is that the verifier recomputes it.
func (m *Memory) Prove(addr uint64) (line []byte, lineMAC uint64, chain [][]byte, root []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAddr(addr); err != nil {
		return nil, 0, nil, nil, err
	}
	if err := m.settle(0); err != nil {
		return nil, 0, nil, nil, err
	}
	d := addr / LineBytes
	line, _ = m.store.DataLine(d)
	lineMAC, _ = m.store.DataMAC(d)
	chain = make([][]byte, m.geom.RootLevel())
	idx, _ := m.geom.EncSlot(d)
	for level := 0; level < m.geom.RootLevel(); level++ {
		chain[level], _ = m.store.CounterLine(level, idx)
		idx, _ = m.geom.ParentSlot(level, idx)
	}
	return line, lineMAC, chain, m.root.Encode(), nil
}

// RootEncoding returns the on-chip root line's current encoding, cloned
// under the engine lock. The transparency log publishes digests of it.
func (m *Memory) RootEncoding() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.settle(0) // see Store
	return m.root.Encode()
}

// VerifyAll re-verifies every written data line from a cold metadata cache,
// in address order, returning the first integrity error found (nil if the
// memory is intact).
func (m *Memory) VerifyAll() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.flushMetadataCache(); err != nil {
		return err
	}
	var line []byte // every line is decrypted into the one buffer
	return m.store.data.stored(func(d uint64, _ *chunk[dataExt], _ uint64) (err error) {
		line, err = m.read(line[:0], d*LineBytes)
		return err
	})
}
