package secmem

import (
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

// TestOverflowTracing drives an SC-128 memory (3-bit minors overflow after
// 8 increments of one slot) and checks the Stats split the overflows
// account for: SC full-line resets are Overflows with no SetResets, and a
// cold-cache read counts its verified fetches.
func TestOverflowTracing(t *testing.T) {
	m := mustNew(t, Config{
		MemoryBytes: 1 << 14,
		Enc:         counters.SplitSpec(128),
		Tree:        []counters.Spec{counters.SplitSpec(64)},
		Key:         testKey,
	})
	line := make([]byte, LineBytes)
	const writes = 40
	for i := 0; i < writes; i++ {
		if err := m.Write(0, line); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Overflows[0] == 0 {
		t.Fatal("expected level-0 overflows after hammering one line")
	}
	if s.SetResets[0] != 0 {
		t.Fatalf("SC-128 cannot set-reset, got %d", s.SetResets[0])
	}
	rows := s.OverflowsByLevel()
	if rows[0].FullResets != s.Overflows[0] {
		t.Fatalf("full resets = %d, want all %d overflows", rows[0].FullResets, s.Overflows[0])
	}
	// Verified fetches count walks from untrusted storage, so force a cold
	// metadata cache and re-read.
	m.FlushMetadataCache()
	before := m.Stats().VerifiedFetches
	if _, err := m.Read(0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().VerifiedFetches == before {
		t.Fatal("no verified fetch counted after cold-cache read")
	}
}

// TestMorphSetResetTracing forces the MorphCtr MCR format (65 distinct
// lines leave ZCC) and then hammers one line until its set resets: the
// cheap per-set overflow must show up in SetResets, and rebases and format
// switches must be counted.
func TestMorphSetResetTracing(t *testing.T) {
	m := mustNew(t, Config{
		MemoryBytes: 1 << 14,
		Enc:         counters.MorphSpec(true),
		Tree:        []counters.Spec{counters.MorphSpec(true)},
		Key:         testKey,
	})
	line := make([]byte, LineBytes)
	// 65 distinct lines within one 128-arity counter block: ZCC width
	// reorganizations and then the ZCC->MCR switch.
	for i := 0; i < 65; i++ {
		if err := m.Write(uint64(i)*LineBytes, line); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if err := m.Write(0, line); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.FormatSwitches[0] == 0 {
		t.Fatal("expected format switches while growing the ZCC population")
	}
	if s.Rebases[0] == 0 {
		t.Fatal("expected MCR rebases while hammering one line")
	}
	if s.SetResets[0] == 0 {
		t.Fatal("expected at least one per-set reset")
	}
	if s.SetResets[0] > s.Overflows[0] {
		t.Fatalf("set resets %d exceed overflows %d", s.SetResets[0], s.Overflows[0])
	}
}
