package secmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
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
		if err := writeLineMap(bw, level); err != nil {
			return err
		}
	}
	// Data lines with their MACs.
	if err := writeU64(bw, uint64(len(m.store.data))); err != nil {
		return err
	}
	for _, idx := range sortedKeys(m.store.data) {
		if err := writeU64(bw, idx); err != nil {
			return err
		}
		if _, err := bw.Write(m.store.data[idx]); err != nil {
			return fmt.Errorf("secmem: save data: %w", err)
		}
		if err := writeU64(bw, m.store.dataMAC[idx]); err != nil {
			return err
		}
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
	if err := m.restoreInto(r); err != nil {
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
	if err := fresh.restoreInto(r); err != nil {
		return nil, err
	}
	return &Staged{fresh: fresh}, nil
}

// CommitRestore atomically adopts staged state. Every adopted line is
// stamped dirty: installed state is not covered by this engine's local
// checkpoint chain, so the next incremental checkpoint must capture it in
// full (a post-install full snapshot resets the stamps as usual).
func (m *Memory) CommitRestore(st *Staged) {
	fresh := st.fresh
	m.mu.Lock()
	m.store = fresh.store
	m.root = fresh.root
	m.trusted = fresh.trusted
	m.wb = fresh.wb // blocks dirty in the replaced state are dropped with it
	m.dirtyData = fresh.dirtyData
	m.dirtyCtr = fresh.dirtyCtr
	m.dirtyCur = fresh.dirtyCur
	m.dirtyFloor = fresh.dirtyFloor
	for idx := range m.store.data {
		m.dirtyData[idx] = m.dirtyCur
	}
	for lvl, level := range m.store.levels {
		for idx := range level {
			m.dirtyCtr[lvl][idx] = m.dirtyCur
		}
	}
	m.mu.Unlock()
}

// restoreInto decodes a Save stream into m's store, root, and trusted
// cache. Callers must own m exclusively (a fresh engine not yet shared).
func (m *Memory) restoreInto(r io.Reader) error {
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
	for lvl := range m.store.levels {
		entries, err := readLineMap(br)
		if err != nil {
			return err
		}
		m.store.levels[lvl] = entries
	}
	numData, err := readU64(br)
	if err != nil {
		return err
	}
	for i := uint64(0); i < numData; i++ {
		idx, err := readU64(br)
		if err != nil {
			return err
		}
		line := make([]byte, LineBytes)
		if _, err := io.ReadFull(br, line); err != nil {
			return fmt.Errorf("secmem: load data: %w", err)
		}
		mac, err := readU64(br)
		if err != nil {
			return err
		}
		m.store.data[idx] = line
		m.store.dataMAC[idx] = mac
	}
	return nil
}

// configFingerprint names the counter organization (keys excluded).
func (m *Memory) configFingerprint() string {
	fp := m.cfg.Enc.Name
	for _, s := range m.cfg.Tree {
		fp += "/" + s.Name
	}
	return fmt.Sprintf("%s@%d", fp, m.keyer.Width())
}

func writeLineMap(w io.Writer, lines map[uint64][]byte) error {
	if err := writeU64(w, uint64(len(lines))); err != nil {
		return err
	}
	keys := make([]uint64, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := writeU64(w, k); err != nil {
			return err
		}
		if _, err := w.Write(lines[k]); err != nil {
			return fmt.Errorf("secmem: save line: %w", err)
		}
	}
	return nil
}

func readLineMap(r io.Reader) (map[uint64][]byte, error) {
	n, err := readU64(r)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64][]byte, n)
	for i := uint64(0); i < n; i++ {
		k, err := readU64(r)
		if err != nil {
			return nil, err
		}
		line := make([]byte, LineBytes)
		if _, err := io.ReadFull(r, line); err != nil {
			return nil, fmt.Errorf("secmem: load line: %w", err)
		}
		out[k] = line
	}
	return out, nil
}

func sortedKeys(m map[uint64][]byte) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
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
