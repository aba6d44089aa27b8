package secmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Persistence: Save serializes a secure memory's complete state — the
// untrusted store (ciphertexts, MACs, counter lines) plus the on-chip root
// — so it can be reloaded later with Load. The root line must travel
// through a trusted channel in a real deployment (it is the anchor all
// verification hangs from); everything else is self-protecting, so a
// tampered save file surfaces as an *IntegrityError on first read after
// loading.

const (
	persistMagic   = "MTSM"
	persistVersion = 1
)

// Save writes the memory's state to w.
func (m *Memory) Save(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.settle(0); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("secmem: save: %w", err)
	}
	if err := writeU64(bw, persistVersion); err != nil {
		return err
	}
	if err := writeU64(bw, m.cfg.MemoryBytes); err != nil {
		return err
	}
	if err := writeString(bw, m.configFingerprint()); err != nil {
		return err
	}
	// Root line (trusted; callers must protect the save file's
	// confidentiality/integrity out of band for it to stay an anchor).
	if _, err := bw.Write(m.root.Encode()); err != nil {
		return fmt.Errorf("secmem: save root: %w", err)
	}
	// Counter levels.
	if err := writeU64(bw, uint64(len(m.store.levels))); err != nil {
		return err
	}
	for _, level := range m.store.levels {
		if err := level.save(bw, noTail); err != nil {
			return err
		}
	}
	// Data lines with their MACs.
	if err := m.store.data.save(bw, func(c *chunk[dataExt], i uint64) error {
		return writeU64(bw, c.ext.mac[i])
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reconstructs a secure memory from r. cfg must describe the same
// organization (capacity, counter specs, key, MAC width) the state was
// saved under; the key itself is never stored.
func Load(cfg Config, r io.Reader) (*Memory, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.restoreInto(r, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// Restore replaces this engine's live state with a Save stream, atomically
// under the engine lock: concurrent readers see either the old state or
// the new one, never a mix. The stream is decoded into a staging engine
// first, so a malformed stream leaves the live state untouched. Activity
// stats and registered key domains are kept (both derive from config and
// operation counts, not from the shipped state). Live shard migration
// installs streamed donor state through this.
func (m *Memory) Restore(r io.Reader) error {
	st, err := m.StageRestore(r)
	if err != nil {
		return err
	}
	m.CommitRestore(st)
	return nil
}

// Staged is decoded state not yet adopted; see StageRestore.
type Staged struct {
	fresh *Memory
}

// StageRestore decodes a Save stream into a staging engine without
// touching live state. Callers that read from an authenticated transport
// verify the stream trailer between StageRestore and CommitRestore, so a
// forged stream is rejected before anything is adopted.
func (m *Memory) StageRestore(r io.Reader) (*Staged, error) {
	fresh, err := New(m.cfg)
	if err != nil {
		return nil, err
	}
	if err := fresh.restoreInto(r, firstEpoch); err != nil {
		return nil, err
	}
	return &Staged{fresh: fresh}, nil
}

// CommitRestore atomically adopts staged state. Every adopted line was
// staged dirty: installed state is not covered by this engine's local
// checkpoint chain, so the next incremental checkpoint must capture it in
// full (a post-install full snapshot resets the stamps as usual).
func (m *Memory) CommitRestore(st *Staged) {
	fresh := st.fresh
	m.mu.Lock()
	m.store = fresh.store
	m.root = fresh.root
	m.wb = fresh.wb // blocks cached or dirty in the replaced state are dropped with it
	m.dirtyCur = fresh.dirtyCur
	m.dirtyFloor = fresh.dirtyFloor
	m.cut = nil // an open cut was of the replaced state: its drain fails
	m.mu.Unlock()
}

// restoreInto decodes a Save stream into m's store and root, every line
// stamped stamp (0 = clean). Callers must own m exclusively (a fresh engine).
func (m *Memory) restoreInto(r io.Reader, stamp uint32) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != persistMagic {
		return fmt.Errorf("secmem: load: bad magic")
	}
	version, err := readU64(br)
	if err != nil {
		return err
	}
	if version != persistVersion {
		return fmt.Errorf("secmem: load: unsupported version %d", version)
	}
	memBytes, err := readU64(br)
	if err != nil {
		return err
	}
	if memBytes != m.cfg.MemoryBytes {
		return fmt.Errorf("secmem: load: capacity %d does not match config %d", memBytes, m.cfg.MemoryBytes)
	}
	fp, err := readString(br)
	if err != nil {
		return err
	}
	if fp != m.configFingerprint() {
		return fmt.Errorf("secmem: load: organization %q does not match config %q", fp, m.configFingerprint())
	}
	rootRaw := make([]byte, LineBytes)
	if _, err := io.ReadFull(br, rootRaw); err != nil {
		return fmt.Errorf("secmem: load root: %w", err)
	}
	root, err := m.cfg.specAt(m.geom.RootLevel()).Decode(rootRaw)
	if err != nil {
		return fmt.Errorf("secmem: load root: %w", err)
	}
	m.root = root

	numLevels, err := readU64(br)
	if err != nil {
		return err
	}
	if numLevels != uint64(len(m.store.levels)) {
		return fmt.Errorf("secmem: load: %d levels, want %d", numLevels, len(m.store.levels))
	}
	for lvl, level := range m.store.levels {
		if err := level.load(br, m.geom.LevelEntries(lvl), stamp, noTail); err != nil {
			return err
		}
	}
	return m.store.data.load(br, m.geom.DataLines, stamp, func(c *chunk[dataExt], i uint64) (err error) {
		c.ext.mac[i], err = readU64(br)
		return err
	})
}

// configFingerprint names the counter organization (keys excluded).
func (m *Memory) configFingerprint() string {
	fp := m.cfg.Enc.Name
	for _, s := range m.cfg.Tree {
		fp += "/" + s.Name
	}
	return fmt.Sprintf("%s@%d", fp, m.keyer.Width())
}

// save writes how many lines t stores, then each in index order as its index,
// its bytes and whatever tail adds (a data line's MAC).
func (t table[X]) save(w io.Writer, tail func(c *chunk[X], i uint64) error) error {
	n := uint64(0)
	_ = t.stored(func(uint64, *chunk[X], uint64) error { n++; return nil })
	if err := writeU64(w, n); err != nil {
		return err
	}
	return t.stored(func(idx uint64, c *chunk[X], i uint64) error {
		if err := writeU64(w, idx); err != nil {
			return err
		}
		if _, err := w.Write(c.line[i][:]); err != nil {
			return fmt.Errorf("secmem: save line: %w", err)
		}
		return tail(c, i)
	})
}

// noTail is save's and load's tail for counter lines, which are all line.
func noTail(*chunk[ctrExt], uint64) error { return nil }

// load reads what save wrote into t, which holds entries lines, stamping each
// with a dirty epoch. An index beyond the table is an error: input is untrusted.
func (t table[X]) load(r io.Reader, entries uint64, stamp uint32, tail func(c *chunk[X], i uint64) error) error {
	n, err := readU64(r)
	if err != nil {
		return err
	}
	for ; n > 0; n-- {
		idx, err := readU64(r)
		if err != nil {
			return err
		}
		if idx >= entries {
			return fmt.Errorf("secmem: load: line %d beyond the %d its level holds", idx, entries)
		}
		c, i := t.grow(idx), idx%chunkLines
		if _, err := io.ReadFull(r, c.line[i][:]); err != nil {
			return fmt.Errorf("secmem: load line: %w", err)
		}
		c.has |= 1 << i
		c.mark(i, stamp)
		if err := tail(c, i); err != nil {
			return err
		}
	}
	return nil
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("secmem: save: %w", err)
	}
	return nil
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("secmem: load: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func writeString(w io.Writer, s string) error {
	if err := writeU64(w, uint64(len(s))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("secmem: save: %w", err)
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU64(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("secmem: load: fingerprint length %d unreasonable", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("secmem: load: %w", err)
	}
	return string(buf), nil
}
