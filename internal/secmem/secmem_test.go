package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/mac"
)

var testKey = []byte("0123456789abcdef")

// configs returns every counter organization the paper evaluates, over a
// small memory so tests stay fast.
func configs(memBytes uint64) map[string]Config {
	return map[string]Config{
		"SC-64": {
			MemoryBytes: memBytes,
			Enc:         counters.SplitSpec(64),
			Tree:        []counters.Spec{counters.SplitSpec(64)},
			Key:         testKey,
		},
		"SC-128": {
			MemoryBytes: memBytes,
			Enc:         counters.SplitSpec(128),
			Tree:        []counters.Spec{counters.SplitSpec(128)},
			Key:         testKey,
		},
		"VAULT": {
			MemoryBytes: memBytes,
			Enc:         counters.SplitSpec(64),
			Tree:        []counters.Spec{counters.SplitSpec(32), counters.SplitSpec(16)},
			Key:         testKey,
		},
		"MorphCtr-128": {
			MemoryBytes: memBytes,
			Enc:         counters.MorphSpec(true),
			Tree:        []counters.Spec{counters.MorphSpec(true)},
			Key:         testKey,
		},
		"MorphCtr-128-ZCC": {
			MemoryBytes: memBytes,
			Enc:         counters.MorphSpec(false),
			Tree:        []counters.Spec{counters.MorphSpec(false)},
			Key:         testKey,
		},
	}
}

func mustNew(t testing.TB, cfg Config) *Memory {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func line(seed byte) []byte {
	l := make([]byte, LineBytes)
	for i := range l {
		l[i] = seed + byte(i)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MemoryBytes: 1 << 20, Enc: counters.SplitSpec(64), Key: testKey}); err == nil {
		t.Error("empty tree schedule must fail")
	}
	cfg := configs(1 << 20)["SC-64"]
	cfg.Key = []byte("short")
	if _, err := New(cfg); err == nil {
		t.Error("bad key must fail")
	}
	cfg = configs(100)["SC-64"]
	if _, err := New(cfg); err == nil {
		t.Error("unaligned memory size must fail")
	}
}

func TestWriteReadRoundTripAllConfigs(t *testing.T) {
	for name, cfg := range configs(1 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			addrs := []uint64{0, 64, 4096, 65536, 1<<20 - 64}
			for i, a := range addrs {
				if err := m.Write(a, line(byte(i))); err != nil {
					t.Fatalf("write %#x: %v", a, err)
				}
			}
			for i, a := range addrs {
				got, err := m.Read(a)
				if err != nil {
					t.Fatalf("read %#x: %v", a, err)
				}
				if !bytes.Equal(got, line(byte(i))) {
					t.Fatalf("read %#x mismatch", a)
				}
			}
			// Re-verify from a cold metadata cache.
			m.FlushMetadataCache()
			for i, a := range addrs {
				got, err := m.Read(a)
				if err != nil {
					t.Fatalf("cold read %#x: %v", a, err)
				}
				if !bytes.Equal(got, line(byte(i))) {
					t.Fatalf("cold read %#x mismatch", a)
				}
			}
		})
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	got, err := m.Read(4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, LineBytes)) {
		t.Fatal("unwritten line not zero")
	}
}

func TestOverwriteChangesCiphertext(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"])
	m.Write(0, line(1))
	ct1, _ := m.Store().DataLine(0)
	ct1 = bytes.Clone(ct1)
	m.Write(0, line(1)) // same plaintext, new counter
	ct2, _ := m.Store().DataLine(0)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("same plaintext re-encrypted to same ciphertext: counter not advancing")
	}
}

func TestAddressValidation(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"])
	if err := m.Write(3, line(0)); err == nil {
		t.Error("unaligned write must fail")
	}
	if err := m.Write(1<<20, line(0)); err == nil {
		t.Error("out-of-range write must fail")
	}
	if _, err := m.Read(1 << 21); err == nil {
		t.Error("out-of-range read must fail")
	}
	if err := m.Write(0, make([]byte, 32)); err == nil {
		t.Error("short line must fail")
	}
}

func TestReadAtWriteAt(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	msg := []byte("the quick brown fox jumps over the lazy dog; counters morph!")
	if err := m.WriteAt(msg, 100); err != nil { // crosses a line boundary
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("ReadAt = %q", got)
	}
	// Whole-line fast path.
	big := bytes.Repeat([]byte("x"), 256)
	if err := m.WriteAt(big, 512); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 256)
	if err := m.ReadAt(got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("aligned WriteAt mismatch")
	}
}

func wantIntegrityError(t *testing.T, err error, context string) *IntegrityError {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: attack went undetected", context)
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("%s: got %v, want IntegrityError", context, err)
	}
	return ie
}

func TestDetectsDataTamper(t *testing.T) {
	for name, cfg := range configs(1 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			m.Write(64, line(9))
			if !m.Store().FlipBit(1, 5, 3) {
				t.Fatal("flip failed")
			}
			ie := wantIntegrityError(t, mustReadErr(m, 64), "data tamper")
			if ie.Level != -1 {
				t.Fatalf("violation at level %d, want data level", ie.Level)
			}
		})
	}
}

func mustReadErr(m *Memory, addr uint64) error {
	_, err := m.Read(addr)
	return err
}

func TestDetectsMACTamper(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	m.Write(0, line(1))
	mc, _ := m.Store().DataMAC(0)
	m.Store().SetDataMAC(0, mc^1)
	wantIntegrityError(t, mustReadErr(m, 0), "MAC tamper")
}

func TestDetectsSplicing(t *testing.T) {
	// Moving a valid {data, MAC} pair to another address must fail: MACs
	// bind the line address.
	m := mustNew(t, configs(1 << 20)["SC-64"])
	m.Write(0, line(1))
	m.Write(64, line(2))
	ct0, _ := m.Store().DataLine(0)
	mac0, _ := m.Store().DataMAC(0)
	m.Store().SetDataLine(1, ct0)
	m.Store().SetDataMAC(1, mac0)
	wantIntegrityError(t, mustReadErr(m, 64), "splice")
}

func TestDetectsStaleDataReplay(t *testing.T) {
	// Replaying an old {data, MAC} pair (without the counters) must fail:
	// the counter has moved on.
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	m.Write(0, line(1))
	old := m.Store().Snapshot(0, nil)
	m.Write(0, line(2))
	m.Store().Replay(old)
	wantIntegrityError(t, mustReadErr(m, 0), "stale data replay")
}

func TestDetectsFullTupleReplay(t *testing.T) {
	// The full replay attack of Section II-A4: restore the data line, its
	// MAC, AND every off-chip counter line on its path. The on-chip root
	// must still catch it.
	for name, cfg := range configs(1 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			m.Write(0, line(1))
			chain := m.Path(0)
			old := m.Store().Snapshot(0, chain)
			m.Write(0, line(2))
			m.Store().Replay(old)
			m.FlushMetadataCache() // cold cache: all trust re-derived from the root
			wantIntegrityError(t, mustReadErr(m, 0), "full tuple replay")
		})
	}
}

func TestReplayOfSiblingStateDetected(t *testing.T) {
	// Replay the counter chain but keep the NEW data: also caught.
	m := mustNew(t, configs(1 << 20)["SC-64"])
	m.Write(0, line(1))
	chain := m.Path(0)
	old := m.Store().Snapshot(0, chain)
	m.Write(0, line(2))
	newData := m.Store().Snapshot(0, nil)
	m.Store().Replay(old)
	m.Store().Replay(newData) // restore new data over old counters
	m.FlushMetadataCache()
	wantIntegrityError(t, mustReadErr(m, 0), "counter-only replay")
}

func TestDetectsCounterTamper(t *testing.T) {
	for name, cfg := range configs(1 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			m.Write(0, line(1))
			if !m.Store().FlipCounterBit(0, 0, 9, 2) {
				t.Fatal("flip failed")
			}
			m.FlushMetadataCache()
			ie := wantIntegrityError(t, mustReadErr(m, 0), "counter tamper")
			if ie.Level != 0 {
				t.Fatalf("violation at level %d, want 0", ie.Level)
			}
		})
	}
}

func TestDetectsTreeLevelTamper(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"])
	m.Write(0, line(1))
	if m.Store().StoredLevels() < 2 {
		t.Skip("tree too shallow to tamper level 1")
	}
	if !m.Store().FlipCounterBit(1, 0, 3, 1) {
		t.Fatal("flip failed")
	}
	m.FlushMetadataCache()
	ie := wantIntegrityError(t, mustReadErr(m, 0), "tree tamper")
	if ie.Level != 1 {
		t.Fatalf("violation at level %d, want 1", ie.Level)
	}
}

func TestDetectsCounterLineDeletion(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	m.Write(0, line(1))
	m.Store().SetCounterLine(0, 0, make([]byte, LineBytes))
	m.FlushMetadataCache()
	wantIntegrityError(t, mustReadErr(m, 0), "counter zeroing")
}

func TestOverflowReencryptionPreservesSiblings(t *testing.T) {
	// SC-128's 3-bit minors overflow every 8 writes; siblings must still
	// decrypt correctly after the re-encryption storm.
	m := mustNew(t, configs(1 << 20)["SC-128"])
	// Populate the first counter block's children (data lines 0..127).
	for i := uint64(0); i < 128; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer line 0 to force repeated overflows.
	for w := 0; w < 100; w++ {
		if err := m.Write(0, line(200)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Overflows[0] == 0 {
		t.Fatal("expected encryption-counter overflows")
	}
	if st.Reencryptions == 0 {
		t.Fatal("expected re-encryptions")
	}
	m.FlushMetadataCache()
	for i := uint64(1); i < 128; i++ {
		got, err := m.Read(i * 64)
		if err != nil {
			t.Fatalf("sibling %d after overflow: %v", i, err)
		}
		if !bytes.Equal(got, line(byte(i))) {
			t.Fatalf("sibling %d corrupted by re-encryption", i)
		}
	}
}

func TestMorphRebasingReducesOverflows(t *testing.T) {
	// Uniform writes over a full counter line: rebasing must absorb
	// overflows that the ZCC-only variant suffers.
	run := func(cfg Config) Stats {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			for i := uint64(0); i < 128; i++ {
				if err := m.Write(i*64, line(byte(round))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.Stats()
	}
	all := configs(1 << 20)
	withRebase := run(all["MorphCtr-128"])
	withoutRebase := run(all["MorphCtr-128-ZCC"])
	if withRebase.Rebases[0] == 0 {
		t.Fatal("expected rebases under uniform writes")
	}
	if withRebase.Overflows[0] >= withoutRebase.Overflows[0] {
		t.Fatalf("rebasing did not reduce overflows: %d vs %d",
			withRebase.Overflows[0], withoutRebase.Overflows[0])
	}
}

func TestPathShape(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"])
	chain := m.Path(0)
	if len(chain) != m.Geometry().RootLevel() {
		t.Fatalf("path length %d, want %d", len(chain), m.Geometry().RootLevel())
	}
	if chain[0][0] != 0 {
		t.Fatal("path must start at encryption-counter level")
	}
}

func TestVerifyAllCleanAndTampered(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	for i := uint64(0); i < 64; i++ {
		m.Write(i*64, line(byte(i)))
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("clean memory failed verification: %v", err)
	}
	m.Store().FlipBit(17, 0, 0)
	if err := m.VerifyAll(); err == nil {
		t.Fatal("tampered memory passed verification")
	}
}

// TestConsistencyStress runs random writes and reads against a plain map
// reference model, across every configuration, with periodic cold-cache
// flushes. Counter overflows, rebases, format switches and tree overflows
// all happen along the way; data must never be corrupted or rejected.
func TestConsistencyStress(t *testing.T) {
	for name, cfg := range configs(256 << 10) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			ref := map[uint64][]byte{}
			rng := rand.New(rand.NewSource(42))
			lines := cfg.MemoryBytes / LineBytes
			for op := 0; op < 6000; op++ {
				idx := uint64(rng.Intn(int(lines / 8))) // concentrate to force overflows
				addr := idx * LineBytes
				switch rng.Intn(4) {
				case 0, 1, 2:
					l := line(byte(rng.Intn(256)))
					if err := m.Write(addr, l); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					ref[idx] = l
				case 3:
					got, err := m.Read(addr)
					if err != nil {
						t.Fatalf("op %d read: %v", op, err)
					}
					want, ok := ref[idx]
					if !ok {
						want = make([]byte, LineBytes)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: data corruption at line %d", op, idx)
					}
				}
				if op%1500 == 1499 {
					m.FlushMetadataCache()
				}
			}
			st := m.Stats()
			t.Logf("%s: %d writes, overflows=%v rebases=%v reencrypt=%d",
				name, st.Writes, st.Overflows, st.Rebases, st.Reencryptions)
		})
	}
}

func TestStatsShape(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["SC-64"])
	m.Write(0, line(1))
	st := m.Stats()
	if st.Writes != 1 {
		t.Fatalf("writes = %d", st.Writes)
	}
	// Write-back propagation: the write increments the leaf counter only;
	// the levels above move when the lines below them are written back.
	for lvl := 0; lvl <= m.Geometry().RootLevel(); lvl++ {
		want := uint64(0)
		if lvl == 0 {
			want = 1
		}
		if st.Increments[lvl] != want {
			t.Fatalf("level %d increments before write-back = %d, want %d", lvl, st.Increments[lvl], want)
		}
	}
	m.FlushMetadataCache()
	st = m.Stats()
	for lvl := 0; lvl <= m.Geometry().RootLevel(); lvl++ {
		if st.Increments[lvl] != 1 {
			t.Fatalf("level %d increments after write-back = %d, want 1", lvl, st.Increments[lvl])
		}
	}
	// Stats must be a copy.
	st.Increments[0] = 99
	if m.Stats().Increments[0] == 99 {
		t.Fatal("Stats leaked internal state")
	}
}

func TestMACWidthConfigurable(t *testing.T) {
	cfg := configs(1 << 20)["SC-64"]
	cfg.MACWidth = mac.Width54
	m := mustNew(t, cfg)
	if err := m.Write(0, line(1)); err != nil {
		t.Fatal(err)
	}
	mc, _ := m.Store().DataMAC(0)
	if mc >= 1<<54 {
		t.Fatalf("MAC %#x exceeds 54 bits", mc)
	}
	if _, err := m.Read(0); err != nil {
		t.Fatal(err)
	}
}

func ExampleMemory() {
	m, _ := New(Config{
		MemoryBytes: 1 << 20,
		Enc:         counters.MorphSpec(true),
		Tree:        []counters.Spec{counters.MorphSpec(true)},
		Key:         []byte("0123456789abcdef"),
	})
	m.WriteAt([]byte("secret"), 0)
	buf := make([]byte, 6)
	m.ReadAt(buf, 0)
	fmt.Println(string(buf))
	// Output: secret
}

func TestDeltaEncryptionCounters(t *testing.T) {
	// The delta-encoded organization of reference [19] drops in as an
	// encryption-counter spec under any tree.
	m := mustNew(t, Config{
		MemoryBytes: 256 << 10,
		Enc:         counters.DeltaSpec(),
		Tree:        []counters.Spec{counters.SplitSpec(64)},
		Key:         testKey,
	})
	for i := uint64(0); i < 128; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform re-writes: rebasing must absorb delta saturations.
	for round := 0; round < 40; round++ {
		for i := uint64(0); i < 128; i++ {
			if err := m.Write(i*64, line(byte(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.Stats()
	if st.Overflows[0] != 0 {
		t.Fatalf("delta counters overflowed %d times under uniform writes", st.Overflows[0])
	}
	if st.Rebases[0] == 0 {
		t.Fatal("no delta rebases under uniform writes")
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccessSafe(t *testing.T) {
	m := mustNew(t, configs(1 << 20)["MorphCtr-128"])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 4096
			for i := 0; i < 200; i++ {
				addr := base + uint64(i%16)*64
				if err := m.Write(addr, line(byte(g))); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Read(addr); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("memory inconsistent after concurrent use: %v", err)
	}
}
