package secmem

import (
	"bufio"
	"fmt"
	"io"

	"github.com/securemem/morphtree/internal/container"
)

// Persistence. Engine state leaves a process in one shape, the state stream
// (DESIGN.md, "State stream"): per engine a u64 count and that many records
// (DirtyLine.AppendRecord), the on-chip root among them as the record at the
// root level. A checkpoint is a Cut (dirty.go): a delta's records are the
// lines stamped since the last one, a full checkpoint's — the durable layer's
// snapshot files, which a replica bootstraps from — every stored line behind a
// record naming the organization and the root. Save here writes that full
// image of a standalone engine through a full cut. ReadRecords and Apply are
// the one way back in.
//
// Save is the bare image behind a twelve-byte header. The root it carries
// must travel through a trusted channel in a real deployment (it is the
// anchor all verification hangs from); everything else is self-protecting, so
// a tampered save file surfaces as an *IntegrityError on first read after
// loading. The streams that cross a disk or a network travel inside
// internal/ckpt's authenticated container instead.

const (
	persistMagic = "MTSM"
	// persistVersion 3: the line MAC became GHASH-then-AES (DESIGN §4), so
	// every sealed line's MAC moved.
	persistVersion = 3

	// HeaderBytes is the length of the header every container of this
	// repository opens with: a four-byte magic and a u64 version.
	HeaderBytes = container.HeaderBytes

	// configLevel is the level of a full image's first record: Index is the
	// capacity in bytes and Line the organization's fingerprint.
	configLevel int32 = -2
)

// VersionError reports input whose header names another container, or another
// version of the one expected (container.VersionError). Files written before a
// format's version moved fail with it, never with an *IntegrityError.
type VersionError = container.VersionError

// Save writes the memory's state to w: the header, then a full image — a full
// cut's records, the cut aborted once they are written, so the next delta
// takes the same lines it would have. It fails while another cut is open,
// leaving that one as it was.
func (m *Memory) Save(w io.Writer) error {
	cut, err := m.BeginFullCut()
	if err != nil {
		return err
	}
	defer cut.Abort()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(container.AppendHeader(nil, persistMagic, persistVersion)); err != nil {
		return fmt.Errorf("secmem: save: %w", err)
	}
	if err := cut.WriteRecords(bw); err != nil {
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
	br := bufio.NewReader(r)
	var head [HeaderBytes]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("secmem: load: header: %w", unexpectedEOF(err))
	}
	if err := container.CheckHeader(head[:], persistMagic, persistVersion); err != nil {
		return nil, err
	}
	if err := ReadRecords(br, m.Apply); err != nil {
		return nil, err
	}
	return m, nil
}

// Apply installs a batch of a state stream's lines into the store under one
// hold of the lock, bypassing the journal, each stamped clean: a checkpoint
// chain already covers it (recovery, Load). m must be out of service — a
// fresh engine, or one being recovered — and the stream authenticated before
// m serves: what a line holds is checked only when it is read. Verified
// blocks cached from the lines replaced are dropped.
func (m *Memory) Apply(batch []DirtyLine) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.flushMetadataCache(); err != nil {
		return err
	}
	root := int32(m.geom.RootLevel())
	for _, d := range batch {
		switch {
		case d.Level == configLevel:
			if fp := m.configFingerprint(); d.Index != m.cfg.MemoryBytes || string(d.Line) != fp {
				return fmt.Errorf("secmem: load: state of %q over %d bytes does not match config %q over %d", d.Line, d.Index, fp, m.cfg.MemoryBytes)
			}
		case len(d.Line) != LineBytes:
			return fmt.Errorf("secmem: load: level-%d line %d is %d bytes, want %d", d.Level, d.Index, len(d.Line), LineBytes)
		case d.Level == root:
			blk, err := m.walker.SpecAt(int(root)).Decode(d.Line)
			if err != nil {
				return fmt.Errorf("secmem: load root: %w", err)
			}
			m.root = blk
		case d.Level == -1:
			c, err := put(m.store.data, m.geom.DataLines, d)
			if err != nil {
				return err
			}
			c.ext.mac[d.Index%chunkLines] = d.MAC
		case d.Level >= 0 && d.Level < root:
			if _, err := put(m.store.levels[d.Level], m.geom.LevelEntries(int(d.Level)), d); err != nil {
				return err
			}
		default:
			return fmt.Errorf("secmem: load: line level %d out of range", d.Level)
		}
	}
	return nil
}

// put stores d's line in t, which holds entries lines, stamped clean. An
// index beyond the table is an error: input is untrusted.
func put[X any](t table[X], entries uint64, d DirtyLine) (*chunk[X], error) {
	if d.Index >= entries {
		return nil, fmt.Errorf("secmem: load: level-%d line %d beyond the %d its level holds", d.Level, d.Index, entries)
	}
	c, i := t.grow(d.Index), d.Index%chunkLines
	c.line[i], c.has = [LineBytes]byte(d.Line), c.has|1<<i
	c.stamp[i] = 0
	return c, nil
}

// configFingerprint names the counter organization (keys excluded).
func (m *Memory) configFingerprint() string {
	fp := m.cfg.Enc.Name
	for _, s := range m.cfg.Tree {
		fp += "/" + s.Name
	}
	return fmt.Sprintf("%s@%d", fp, m.keyer.Width())
}
