package oracle

import (
	"errors"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/secmem"
)

var (
	errNet   = errors.New("connection reset")
	zeroLine = make([]byte, LineBytes)
)

func ack(t *testing.T, h *History, addr uint64) uint64 {
	t.Helper()
	seq, line := h.Invoke(addr)
	if string(line) != string(Fill(addr, seq)) {
		t.Fatalf("Invoke(%#x) did not return Fill(addr, %d)", addr, seq)
	}
	h.Settle(addr, seq, nil)
	return seq
}

func check(t *testing.T, h *History, addr uint64, got []byte, want Verdict) {
	t.Helper()
	if v := h.Check(addr, got); v != want {
		t.Fatalf("Check(%#x) = %v, want %v", addr, v, want)
	}
}

// TestFillIsInjective pins the pattern's one property the verdicts rest on:
// no two (addr, seq) share a line, and zeros is nobody's pattern.
func TestFillIsInjective(t *testing.T) {
	seen := map[string][2]uint64{string(zeroLine): {^uint64(0), ^uint64(0)}}
	for addr := uint64(0); addr < 8*LineBytes; addr += LineBytes {
		for seq := uint64(0); seq < 64; seq++ {
			line := string(Fill(addr, seq))
			if prev, dup := seen[line]; dup {
				t.Fatalf("Fill(%#x, %d) == Fill(%#x, %d)", addr, seq, prev[0], prev[1])
			}
			seen[line] = [2]uint64{addr, seq}
			if got, ok := seqOf(addr, []byte(line)); !ok || got != seq {
				t.Fatalf("seqOf(Fill(%#x, %d)) = %d, %v", addr, seq, got, ok)
			}
			if _, ok := seqOf(addr+LineBytes, []byte(line)); ok {
				t.Fatalf("Fill(%#x, %d) reads as a pattern of the next line", addr, seq)
			}
		}
	}
}

func TestZerosBeforeFirstAck(t *testing.T) {
	h := New(Zeros)
	check(t, h, 0, zeroLine, OK)
	check(t, h, 0, Fill(0, 1), Unissued) // nobody has written yet
	ack(t, h, 0)
	check(t, h, 0, zeroLine, Lost) // the acknowledged write is not there
	check(t, h, 0, Fill(0, 1), OK)
}

// TestQuarantine: an indeterminate write admits its value for good — applied,
// never applied, or applied later by a zombie — and takes its line out of the
// write set.
func TestQuarantine(t *testing.T) {
	h := New(Zeros)
	first := ack(t, h, 64)
	seq, _ := h.Invoke(64)
	if !h.Writable(64) {
		t.Fatal("a line is quarantined before any write of it failed")
	}
	h.Settle(64, seq, errNet)
	if h.Writable(64) {
		t.Fatal("a line with an indeterminate write is still writable")
	}
	if !h.Writable(128) {
		t.Fatal("quarantine leaked to another line")
	}
	check(t, h, 64, zeroLine, Lost)
	// Either value, in either order, any number of times: the zombie may land
	// between any two reads.
	for _, s := range []uint64{first, seq, first, seq, seq} {
		check(t, h, 64, Fill(64, s), OK)
	}
	check(t, h, 64, Fill(64, seq+1), Unissued)
	if h.Failures != 1 || h.Writes != 1 || h.SpuriousIntegrity != 0 {
		t.Fatalf("tally = %+v, want 1 write, 1 failure", h.Tally)
	}
}

// TestIndeterminateBeforeAnyAck: with nothing acknowledged the line may still
// be zeros, or hold the write that may have landed.
func TestIndeterminateBeforeAnyAck(t *testing.T) {
	h := New(Zeros)
	seq, _ := h.Invoke(0)
	h.Settle(0, seq, errNet)
	check(t, h, 0, zeroLine, OK)
	check(t, h, 0, Fill(0, seq), OK)
	check(t, h, 0, zeroLine, OK)
}

// TestUnknownInitialPins is the restarted-store rule: the first read of a
// line nobody has written in this run pins it, later reads must agree until
// the first acknowledgment.
func TestUnknownInitialPins(t *testing.T) {
	h := New(Unknown)
	old := Fill(0, 7) // what an earlier run left behind
	check(t, h, 0, old, OK)
	check(t, h, 0, old, OK)
	check(t, h, 0, zeroLine, Unissued) // changed with no write of ours
	check(t, h, 0, Fill(0, 8), Unissued)
	ack(t, h, 0)
	check(t, h, 0, Fill(0, 1), OK)
	check(t, h, 0, old, Resurrected) // seq 1 was seen; the old value came back

	// A line whose first look comes after a failed write: the attempt's value
	// is ours and pins nothing, anything else is where the line started.
	seq, _ := h.Invoke(64)
	h.Settle(64, seq, errNet)
	check(t, h, 64, Fill(64, seq), OK)
	check(t, h, 64, Fill(64, 9), OK)
	check(t, h, 64, Fill(64, seq), OK)
	check(t, h, 64, zeroLine, Unissued)
}

// TestNegativeVerdicts: the three ways a line can be wrong, each reported as
// what it is.
func TestNegativeVerdicts(t *testing.T) {
	h := New(Zeros)
	ack(t, h, 0)
	ack(t, h, 0)
	// Write 2 was acknowledged and never read; the line still shows 1.
	check(t, h, 0, Fill(0, 1), Lost)
	check(t, h, 0, Fill(0, 2), OK)
	// Write 2 has now been seen, and 1 comes back: a rollback, not a loss.
	check(t, h, 0, Fill(0, 1), Resurrected)
	check(t, h, 0, zeroLine, Resurrected)
	// Values no write of this history produced: a later sequence, another
	// line's pattern, a torn line.
	check(t, h, 0, Fill(0, 3), Unissued)
	check(t, h, 0, Fill(64, 2), Unissued)
	torn := append(append([]byte(nil), Fill(0, 2)[:32]...), Fill(0, 1)[32:]...)
	check(t, h, 0, torn, Unissued)
	check(t, h, 0, []byte("short"), Unissued)

	for v, want := range map[Verdict]string{Lost: "lost", Resurrected: "resurrected", Unissued: "nobody issued"} {
		if !strings.Contains(v.String(), want) {
			t.Errorf("%d.String() = %q, want it to say %q", v, v, want)
		}
	}
}

func TestObserveAndFailCount(t *testing.T) {
	h := New(Zeros)
	ack(t, h, 0)
	h.Observe(0, Fill(0, 1), nil)
	h.Observe(0, zeroLine, nil)
	h.Observe(0, Fill(0, 5), nil)
	h.Observe(0, nil, errNet)
	h.Observe(0, nil, &secmem.IntegrityError{Reason: "test"})
	want := Tally{Reads: 3, Writes: 1, Verified: 1, Resurrected: 1, Unissued: 1, Failures: 1, SpuriousIntegrity: 1}
	if h.Tally != want {
		t.Fatalf("tally = %+v, want %+v", h.Tally, want)
	}
	if h.Ops() != 6 || h.Mismatches() != 2 {
		t.Fatalf("Ops = %d, Mismatches = %d, want 6 and 2", h.Ops(), h.Mismatches())
	}
	var sum Tally
	sum.Add(h.Tally)
	sum.Add(h.Tally)
	if sum.Reads != 6 || sum.SpuriousIntegrity != 2 {
		t.Fatalf("Add: %+v", sum)
	}
}

// TestAudit reads a small store back three ways: intact, with one
// acknowledged write dropped, and unreadable.
func TestAudit(t *testing.T) {
	store := map[uint64][]byte{}
	build := func() *History {
		h := New(Zeros)
		for addr := uint64(0); addr < 4*LineBytes; addr += LineBytes {
			for i := 0; i < 3; i++ {
				seq, line := h.Invoke(addr)
				h.Settle(addr, seq, nil)
				store[addr] = line
			}
		}
		h.Observe(5*LineBytes, zeroLine, nil) // read, never written: audited too
		return h
	}
	read := func(addr uint64) ([]byte, error) {
		if line, ok := store[addr]; ok {
			return line, nil
		}
		return zeroLine, nil
	}
	if a := build().Audit(read); a.Bad() != 0 || a.Reads != 5 || a.Verified != 5 {
		t.Fatalf("clean audit = %+v", a)
	}

	h := build()
	store[2*LineBytes] = Fill(2*LineBytes, 2) // the third write never landed
	a := h.Audit(read)
	if a.Bad() != 1 || a.Lost != 1 {
		t.Fatalf("audit after a dropped write = %+v, want one Lost", a)
	}
	if !strings.Contains(a.String(), "1 lost acknowledged writes (1 never visible, 0 rolled back)") {
		t.Fatalf("audit row %q does not name the loss", a)
	}

	a = h.Audit(func(uint64) ([]byte, error) { return nil, errNet })
	if a.Bad() != 5 || a.Failures != 5 {
		t.Fatalf("audit of an unreadable store = %+v", a)
	}
	if h.Reads != 1 {
		t.Fatalf("audits leaked into the client's own tally: %+v", h.Tally)
	}
}

// TestJournalPrefix: the crash harness's question. Two shards, interleaved
// writes; whatever prefix of each shard's log survives decides every line.
func TestJournalPrefix(t *testing.T) {
	j := NewJournal(2)
	const a, b, c = 0, 64, 128 // a and c on shard 0, b on shard 1
	j.Append(0, a)             // a=1
	j.Append(1, b)             // b=1
	j.Append(0, c)             // c=1
	j.Append(0, a)             // a=2
	j.Append(1, b)             // b=2
	if got := j.Lens(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("Lens = %v", got)
	}

	state := func(h *History, addr uint64, want []byte) {
		t.Helper()
		check(t, h, addr, want, OK)
	}
	all := j.Surviving(j.Lens())
	state(all, a, Fill(a, 2))
	state(all, b, Fill(b, 2))
	state(all, c, Fill(c, 1))

	// Shard 0 loses its last record, shard 1 everything.
	cut := j.Surviving([]int{2, 0})
	state(cut, a, Fill(a, 1))
	state(cut, c, Fill(c, 1))
	state(cut, b, zeroLine)
	check(t, cut, a, Fill(a, 2), Unissued) // a record past the cut survived
	check(t, cut, b, Fill(b, 1), Unissued)
	// The full journal against the cut store: two acknowledged writes lost.
	lost := j.Surviving(j.Lens()).Audit(func(addr uint64) ([]byte, error) {
		return map[uint64][]byte{a: Fill(a, 1), b: zeroLine, c: Fill(c, 1)}[addr], nil
	})
	if lost.Lost != 2 || lost.Bad() != 2 {
		t.Fatalf("audit of a store missing two records = %+v", lost)
	}

	// A clone extends without disturbing the original.
	ext := j.Clone()
	ext.Append(1, b) // b=3
	if got := ext.Lens(); got[1] != 3 || j.Lens()[1] != 2 {
		t.Fatalf("Clone shares state: %v vs %v", got, j.Lens())
	}
	state(ext.Surviving(ext.Lens()), b, Fill(b, 3))
	state(j.Surviving(j.Lens()), b, Fill(b, 2))
}
