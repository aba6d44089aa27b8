package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies a lifecycle event type.
type Kind uint8

// Lifecycle event kinds. The A/B payload fields carry kind-specific
// detail; Dur carries a duration in nanoseconds where one applies.
const (
	KindReqEnd      Kind = iota // A=opcode, B=status, Dur=latency (started at Time-Dur)
	KindWALFsync                // A=batch size (writers covered), Dur=fsync latency
	KindSnapshot                // A=LSN, Dur=checkpoint latency
	KindShed                    // A=opcode (request shed by admission control)
	KindProofBuild              // A=address, B=chain lines present, Dur=build latency
	KindRootPublish             // A=epoch, B=log size (transparency-log append)
	KindTenantBind              // A=tenant index (connection bound by HELLO)
	KindQuotaShed               // A=opcode, B=tenant index (request shed by quota)
	KindReplBatch               // A=shard, B=records applied, Dur=apply latency
	KindPromote                 // A=new fencing epoch, Dur=catch-up latency
	KindFence                   // A=observed epoch, B=local epoch (step-down)
	KindDeltaCkpt               // A=new epoch, B=dirty lines captured, Dur=cut latency
	numKinds
)

var kindNames = [numKinds]string{
	"req_end", "wal_fsync", "snapshot", "shed",
	"proof_build", "root_publish",
	"tenant_bind", "quota_shed", "repl_batch", "promote", "fence",
	"delta_ckpt",
}

// String returns the snake_case kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind name for JSON snapshots.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name from a JSON snapshot.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one traced lifecycle event. Seq is globally monotonic per
// tracer; Time is unix nanoseconds; Shard is -1 when no shard applies.
type Event struct {
	Seq   uint64 `json:"seq"`
	Time  int64  `json:"time_unix_nano"`
	Kind  Kind   `json:"kind"`
	Shard int32  `json:"shard"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
	Dur   int64  `json:"dur_ns,omitempty"`
}

// traceSlot is one ring entry guarded by its own mutex so writers to
// different slots never contend and readers can copy a consistent event.
type traceSlot struct {
	mu   sync.Mutex
	ev   Event
	full bool
}

// Tracer is a fixed-capacity drop-oldest ring of lifecycle events. Emit
// claims a sequence number atomically and then TryLocks only its target
// slot: if a reader (or a lapping writer) holds that slot, the event is
// counted as dropped instead of blocking — tracing never stalls the hot
// path. Per-kind totals are kept in plain atomics and survive ring
// wraparound, so rates remain exact even when events are overwritten.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Tracer struct {
	slots   []traceSlot
	seq     atomic.Uint64
	dropped atomic.Uint64
	counts  [numKinds]atomic.Uint64
}

// NewTracer returns a tracer holding the last cap events (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{slots: make([]traceSlot, capacity)}
}

// Emit records one event. It never blocks: under slot contention the
// event is dropped (and counted).
func (t *Tracer) Emit(kind Kind, shard int32, a, b uint64, dur time.Duration) {
	if t == nil || kind >= numKinds {
		return
	}
	seq := t.seq.Add(1)
	t.counts[kind].Add(1)
	slot := &t.slots[seq%uint64(len(t.slots))]
	if !slot.mu.TryLock() {
		t.dropped.Add(1)
		return
	}
	slot.ev = Event{
		Seq:   seq,
		Time:  time.Now().UnixNano(),
		Kind:  kind,
		Shard: shard,
		A:     a,
		B:     b,
		Dur:   int64(dur),
	}
	slot.full = true
	slot.mu.Unlock()
}

// Events returns the ring's current contents ordered by sequence number.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.full {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Count returns the total number of events emitted with the given kind,
// including events since overwritten or dropped.
func (t *Tracer) Count(kind Kind) uint64 {
	if t == nil || kind >= numKinds {
		return 0
	}
	return t.counts[kind].Load()
}

// TraceSnapshot is the JSON view served at /tracez: lifetime totals plus
// the ring's recent events.
type TraceSnapshot struct {
	TimeUnixNano int64             `json:"time_unix_nano"`
	Emitted      uint64            `json:"emitted"`
	Dropped      uint64            `json:"dropped"`
	Counts       map[string]uint64 `json:"counts"`
	Events       []Event           `json:"events"`
}

// Encode marshals the trace snapshot as JSON (the /tracez body).
func (s TraceSnapshot) Encode() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("obs: encode trace snapshot: %w", err)
	}
	return b, nil
}

// DecodeTraceSnapshot unmarshals a /tracez body.
func DecodeTraceSnapshot(b []byte) (TraceSnapshot, error) {
	var s TraceSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return TraceSnapshot{}, fmt.Errorf("obs: decode trace snapshot: %w", err)
	}
	return s, nil
}

// Snapshot captures totals and the current ring contents.
func (t *Tracer) Snapshot() TraceSnapshot {
	snap := TraceSnapshot{
		TimeUnixNano: time.Now().UnixNano(),
		Counts:       map[string]uint64{},
	}
	if t == nil {
		return snap
	}
	snap.Emitted = t.seq.Load()
	snap.Dropped = t.dropped.Load()
	for k := Kind(0); k < numKinds; k++ {
		if n := t.counts[k].Load(); n != 0 {
			snap.Counts[k.String()] = n
		}
	}
	snap.Events = t.Events()
	return snap
}
