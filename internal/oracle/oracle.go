// Package oracle is the one shadow model under every harness: a history of
// what one client did to each line it owns, and the verdict on anything the
// system later shows for that line.
//
// Lines are independent registers, so the model is per address. A write is
// invoked with the next sequence number of its line and the line pattern
// Fill(addr, seq); it then settles one of two ways. Acknowledged: the system
// said yes, so from now on the line must hold that value or something issued
// after it. Indeterminate: the attempt failed, and the protocol has no request
// IDs, so the request may have been applied, may never be, or may still be
// sitting in a buffer and land after later operations complete (a zombie).
// An indeterminate write therefore admits its value forever, and quarantines
// its line: a client that respects Writable never writes the line again this
// run, because a fresh acknowledgment that a zombie then overwrote would read
// as a lost write the system never lost.
//
// What a line may show is the last acknowledged value or any indeterminate
// one; before this run's first acknowledgment, the line's initial value —
// zeros on a store known to be fresh, and on any other store whatever the
// first read finds, pinned from then on. Anything else is one of three
// failures, each reported as what it is: Lost, Resurrected, Unissued.
//
// A History belongs to one goroutine. The crash harness asks the same
// question of a recovered store through a Journal: the acknowledged writes in
// the order each shard's log holds them, and the history that a surviving
// prefix of every log implies.
package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/securemem/morphtree/internal/secmem"
)

// LineBytes is the size of the register the model describes.
const LineBytes = secmem.LineBytes

// Fill is the line pattern: the contents of write seq to addr. Every 16-byte
// stride carries the address, the sequence and its own offset, so a line
// spliced from another address, replayed from another sequence or torn
// between two writes matches no (addr, seq) at all.
func Fill(addr, seq uint64) []byte {
	line := make([]byte, LineBytes)
	for i := 0; i < LineBytes; i += 16 {
		binary.LittleEndian.PutUint64(line[i:], addr^seq)
		binary.LittleEndian.PutUint64(line[i+8:], seq*0x9e3779b97f4a7c15+uint64(i))
	}
	return line
}

// seqOf inverts Fill: the sequence whose pattern for addr got is, if any.
func seqOf(addr uint64, got []byte) (uint64, bool) {
	if len(got) != LineBytes {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(got) ^ addr
	return seq, bytes.Equal(got, Fill(addr, seq))
}

// Initial is what a line nobody has written in this run holds.
type Initial int

const (
	// Zeros: the store is fresh, so an unwritten line reads as zeros.
	Zeros Initial = iota
	// Unknown: the store has a past (a restarted data directory). The first
	// read of a line pins its initial value; later reads must agree until
	// this run's first acknowledged write to it.
	Unknown
)

// Verdict classifies one observed line against its history.
type Verdict int

const (
	// OK: the last acknowledged value, an indeterminate one, or — with
	// nothing acknowledged yet — the initial value.
	OK Verdict = iota
	// Lost: an acknowledged write never became visible; the line still shows
	// an older value of its own history.
	Lost
	// Resurrected: the line shows an older value after a read had already
	// returned a newer one — a rollback or a replay, not a write that never
	// landed.
	Resurrected
	// Unissued: a value no write of this history could have produced.
	Unissued
)

func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Lost:
		return "lost acknowledged write"
	case Resurrected:
		return "resurrected older value"
	default:
		return "value nobody issued"
	}
}

// Tally counts what a client, or an audit, saw.
type Tally struct {
	// Reads and Writes are completed operations: a read that returned a line,
	// a write that was acknowledged.
	Reads, Writes uint64
	// Verified is the reads whose line the history admits; the next three are
	// the reads it does not, by verdict.
	Verified                    uint64
	Lost, Resurrected, Unissued uint64
	// SpuriousIntegrity is operations that failed with *secmem.IntegrityError.
	// No harness built on this package tampers while the model is watching,
	// so each one is a false alarm. Failures is every other final failure.
	SpuriousIntegrity, Failures uint64
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Reads += o.Reads
	t.Writes += o.Writes
	t.Verified += o.Verified
	t.Lost += o.Lost
	t.Resurrected += o.Resurrected
	t.Unissued += o.Unissued
	t.SpuriousIntegrity += o.SpuriousIntegrity
	t.Failures += o.Failures
}

// Ops is every operation attempted, completed or not.
func (t Tally) Ops() uint64 { return t.Reads + t.Writes + t.SpuriousIntegrity + t.Failures }

// Mismatches is the reads that returned a line the history does not admit.
func (t Tally) Mismatches() uint64 { return t.Lost + t.Resurrected + t.Unissued }

// Bad is, for an audit's tally, the lines that did not read back as the
// history requires — wrong contents or no contents.
func (t Tally) Bad() uint64 { return t.Mismatches() + t.SpuriousIntegrity + t.Failures }

// String renders an audit's tally for a failing row.
func (t Tally) String() string {
	return fmt.Sprintf("%d lost acknowledged writes (%d never visible, %d rolled back), %d values nobody issued, %d lines unreadable",
		t.Lost+t.Resurrected, t.Lost, t.Resurrected, t.Unissued, t.SpuriousIntegrity+t.Failures)
}

// zeros is a fresh store's unwritten line, shared and never written to.
var zeros = make([]byte, LineBytes)

// line is one register's history.
type line struct {
	issued uint64   // highest sequence invoked
	acked  uint64   // last acknowledged sequence; 0 = none in this run
	seen   uint64   // highest sequence a read has returned
	maybe  []uint64 // indeterminate sequences
	// initial is what the line held before this run wrote it: zeros on a
	// fresh store, otherwise nil until a read pins it.
	initial []byte
}

// History is one client's model of the lines it owns.
type History struct {
	Tally
	initial Initial
	lines   map[uint64]*line
}

// New returns an empty history over a store whose unwritten lines hold
// initial.
func New(initial Initial) *History {
	return &History{initial: initial, lines: make(map[uint64]*line)}
}

func (h *History) line(addr uint64) *line {
	l := h.lines[addr]
	if l == nil {
		l = &line{}
		if h.initial == Zeros {
			l.initial = zeros
		}
		h.lines[addr] = l
	}
	return l
}

// Writable is the quarantine rule: false once addr has an indeterminate
// write, from then on the line is only read.
func (h *History) Writable(addr uint64) bool {
	l := h.lines[addr]
	return l == nil || len(l.maybe) == 0
}

// Invoke starts a write: the next sequence of addr and the line to send. A
// caller that cannot quarantine (a prober with one line) may invoke on an
// unwritable line: the last acknowledgment and every failed attempt stay
// admissible.
func (h *History) Invoke(addr uint64) (seq uint64, data []byte) {
	l := h.line(addr)
	l.issued++
	return l.issued, Fill(addr, l.issued)
}

// Settle ends the write Invoke started: acknowledged when err is nil,
// otherwise indeterminate, with err counted by Fail.
func (h *History) Settle(addr, seq uint64, err error) {
	l := h.line(addr)
	if err != nil {
		l.maybe = append(l.maybe, seq)
		h.Fail(err)
		return
	}
	l.acked = seq
	h.Writes++
}

// Fail counts an operation that failed for good: a spurious integrity alarm
// if it is an *secmem.IntegrityError, a final failure otherwise.
func (h *History) Fail(err error) {
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		h.SpuriousIntegrity++
		return
	}
	h.Failures++
}

// Observe is a read's outcome: err counted by Fail, or got judged by Check
// and counted under its verdict.
func (h *History) Observe(addr uint64, got []byte, err error) {
	if err != nil {
		h.Fail(err)
		return
	}
	h.Tally.count(h.Check(addr, got))
}

func (t *Tally) count(v Verdict) {
	t.Reads++
	switch v {
	case OK:
		t.Verified++
	case Lost:
		t.Lost++
	case Resurrected:
		t.Resurrected++
	default:
		t.Unissued++
	}
}

// Check judges got as the contents of addr. No match promotes anything: a
// zombie can still move the line among its admissible values later.
func (h *History) Check(addr uint64, got []byte) Verdict {
	l := h.line(addr)
	seq, patterned := seqOf(addr, got)
	if patterned && seq != 0 && (seq == l.acked || slices.Contains(l.maybe, seq)) {
		if seq > l.seen {
			l.seen = seq
		}
		return OK
	}
	if l.initial == nil && l.acked == 0 {
		// Unknown past, first look: whatever is there is where the line
		// started. (A value matching an indeterminate write returned above
		// and pins nothing: it may be ours.)
		l.initial = append([]byte(nil), got...)
		return OK
	}
	switch {
	case bytes.Equal(got, l.initial):
		seq = 0
	case !patterned || seq == 0 || seq > l.acked:
		return Unissued
	}
	// An older state of this line's own history: the initial value or an
	// acknowledged sequence below the last one.
	if l.acked == 0 {
		return OK
	}
	if l.seen > seq {
		return Resurrected
	}
	return Lost
}

// Audit reads every line the history has touched, in address order, through
// read — a clean path to the store, after the faults have stopped — and
// returns the audit's own tally: Bad() is the gate, String() the row. An audit
// is a history's last act: what it reads counts as seen, like any read.
func (h *History) Audit(read func(addr uint64) ([]byte, error)) Tally {
	addrs := make([]uint64, 0, len(h.lines))
	for a := range h.lines {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	audit := History{initial: h.initial, lines: h.lines}
	for _, a := range addrs {
		got, err := read(a)
		audit.Observe(a, got, err)
	}
	return audit.Tally
}

// Journal is the crash harness's history: every acknowledged write, in the
// order the shard that owns its address applied it — which, under the
// journal-before-apply discipline, is the order of that shard's log records.
type Journal struct {
	shards [][]entry
	issued map[uint64]uint64
}

type entry struct{ addr, seq uint64 }

// NewJournal returns an empty journal over the given number of shards.
func NewJournal(shards int) *Journal {
	return &Journal{shards: make([][]entry, shards), issued: make(map[uint64]uint64)}
}

// Append records the next write of addr, owned by shard, and returns the
// line to write. The caller's write must then succeed: a journal has no
// indeterminate entries.
func (j *Journal) Append(shard int, addr uint64) []byte {
	j.issued[addr]++
	seq := j.issued[addr]
	j.shards[shard] = append(j.shards[shard], entry{addr, seq})
	return Fill(addr, seq)
}

// Lens returns how many writes each shard's journal holds.
func (j *Journal) Lens() []int {
	n := make([]int, len(j.shards))
	for s := range j.shards {
		n[s] = len(j.shards[s])
	}
	return n
}

// Clone returns an independent copy, to extend without disturbing j.
func (j *Journal) Clone() *Journal {
	c := NewJournal(len(j.shards))
	for s := range j.shards {
		c.shards[s] = append([]entry(nil), j.shards[s]...)
	}
	for a, n := range j.issued {
		c.issued[a] = n
	}
	return c
}

// Surviving is the history a crash leaves when only the first keep[s] records
// of shard s's log survive: every address the journal mentions must hold its
// last surviving write, or zeros if none survived.
func (j *Journal) Surviving(keep []int) *History {
	h := New(Zeros)
	for s, es := range j.shards {
		for i, e := range es {
			l := h.line(e.addr)
			if i < keep[s] {
				l.issued, l.acked = e.seq, e.seq
			}
		}
	}
	return h
}
