package secmem

import (
	"bytes"
	"testing"
)

func TestDirtyCollectCommitCycle(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)

	// Fresh engine: nothing dirty, collection holds only the root.
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("fresh engine dirty count = %d, want 0", n)
	}
	cut, lines := drainCut(t, m)
	if len(lines) != 1 || lines[0].Level != int32(m.geom.RootLevel()) {
		t.Fatalf("fresh collection = %d lines, want root only", len(lines))
	}
	cut.Commit()

	// A handful of writes dirty exactly those data lines plus ancestors.
	for i := uint64(0); i < 8; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.DirtyCount(); n == 0 {
		t.Fatal("writes left dirty count at 0")
	}
	cut, lines = drainCut(t, m)
	var data, ctr int
	for _, d := range lines {
		switch {
		case d.Level == -1:
			data++
		case d.Level < int32(m.geom.RootLevel()):
			ctr++
		}
	}
	if data != 8 {
		t.Fatalf("collected %d data lines, want 8", data)
	}
	if ctr == 0 {
		t.Fatal("no counter lines collected despite tree updates")
	}

	// Without commit, the same dirt is re-collected (failed persist path).
	cut.Abort()
	cut, again := drainCut(t, m)
	if len(again) != len(lines) {
		t.Fatalf("uncommitted re-collection = %d lines, want %d", len(again), len(lines))
	}

	// After commit, the set drains to root-only.
	cut.Commit()
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("post-commit dirty count = %d, want 0", n)
	}
	cut, drained := drainCut(t, m)
	if len(drained) != 1 {
		t.Fatalf("post-commit collection = %d lines, want root only", len(drained))
	}
	cut.Abort()
}

func TestDirtyWriteDuringCollectLandsInNextCut(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	if err := m.Write(0, line(1)); err != nil {
		t.Fatal(err)
	}
	cut, _ := drainCut(t, m)
	// Write after the cut: stamped at the advanced epoch, so committing
	// the old cut must not mark it clean.
	if err := m.Write(64, line(2)); err != nil {
		t.Fatal(err)
	}
	cut.Commit()
	_, next := drainCut(t, m)
	found := false
	for _, d := range next {
		if d.Level == -1 && d.Index == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("write racing a collection was lost from the next cut")
	}
}

// TestDirtyResetClearsAll: a committed full cut leaves no line dirty.
func TestDirtyResetClearsAll(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	for i := uint64(0); i < 16; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	commitFullCut(t, m)
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after a committed full cut = %d, want 0", n)
	}
}

// TestDirtyDeltaApplyRoundTrip proves the delta path reconstructs state:
// collect dirty lines from a mutated engine, apply them onto a stale copy,
// and every line must read back verified and equal.
func TestDirtyDeltaApplyRoundTrip(t *testing.T) {
	for _, name := range []string{"SC-64", "MorphCtr-128", "MorphCtr-128-ZCC"} {
		t.Run(name, func(t *testing.T) {
			cfg := configs(1 << 20)[name]
			m := mustNew(t, cfg)
			for i := uint64(0); i < 64; i++ {
				if err := m.Write(i*64*3%(1<<20)&^63, line(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Base snapshot, then more writes → the delta.
			var base bytes.Buffer
			if err := m.Save(&base); err != nil {
				t.Fatal(err)
			}
			commitFullCut(t, m)
			for i := uint64(64); i < 96; i++ {
				if err := m.Write(i*64*3%(1<<20)&^63, line(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			_, delta := drainCut(t, m)

			stale, err := Load(cfg, &base)
			if err != nil {
				t.Fatal(err)
			}
			if err := stale.Apply(delta); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 96; i++ {
				addr := i * 64 * 3 % (1 << 20) &^ 63
				want, err := m.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := stale.Read(addr)
				if err != nil {
					t.Fatalf("read %#x after delta apply: %v", addr, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("line %#x mismatch after delta apply", addr)
				}
			}
		})
	}
}

// (Apply is what ApplyDeltaLine, a line at a time, used to be; the test keeps
// its name.)
func TestApplyDeltaLineRejectsBadInput(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	whole := make([]byte, LineBytes)
	for name, d := range map[string]DirtyLine{
		"out-of-range data index":    {Level: -1, Index: 1 << 40, Line: whole},
		"out-of-range counter index": {Level: 0, Index: 1 << 40, Line: whole},
		"short data line":            {Level: -1, Line: make([]byte, 3)},
		"line with no bytes":         {Level: -1},
		"bogus level":                {Level: 99, Line: whole},
		"another capacity":           {Level: configLevel, Index: 2 << 20, Line: []byte(m.configFingerprint())},
		"another organization":       {Level: configLevel, Index: 1 << 20, Line: []byte("SC-64/SC-64@56")},
	} {
		if err := m.Apply([]DirtyLine{d}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if err := m.Apply([]DirtyLine{{Level: configLevel, Index: 1 << 20, Line: []byte(m.configFingerprint())}}); err != nil {
		t.Fatalf("the engine's own configuration refused: %v", err)
	}
}
