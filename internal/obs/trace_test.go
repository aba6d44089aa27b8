package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerBasics(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(KindReplBatch, 3, 2, 64, 0)
	tr.Emit(KindReqEnd, -1, 0x02, 0, 150*time.Microsecond)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != KindReplBatch || evs[0].Shard != 3 || evs[0].A != 2 || evs[0].B != 64 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Seq <= evs[0].Seq {
		t.Fatalf("sequence not monotonic: %d then %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[1].Dur != int64(150*time.Microsecond) {
		t.Fatalf("dur = %d", evs[1].Dur)
	}
	if tr.Count(KindReplBatch) != 1 || tr.Count(KindReqEnd) != 1 || tr.Count(KindShed) != 0 {
		t.Fatal("per-kind counts wrong")
	}
}

func TestTracerDropOldest(t *testing.T) {
	tr := NewTracer(16)
	const emitted = 100
	for i := 0; i < emitted; i++ {
		tr.Emit(KindReqEnd, -1, uint64(i), 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want capacity 16", len(evs))
	}
	// The ring keeps the newest events: sequence numbers 85..100.
	for i, ev := range evs {
		if want := uint64(emitted - 16 + 1 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
	if tr.Count(KindReqEnd) != emitted {
		t.Fatalf("lifetime count = %d, want %d (must survive overwrite)", tr.Count(KindReqEnd), emitted)
	}
}

func TestTracerMinimumCapacity(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < 20; i++ {
		tr.Emit(KindShed, -1, 1, 0, 0)
	}
	if got := len(tr.Events()); got != 16 {
		t.Fatalf("capacity-0 tracer holds %d, want clamped minimum 16", got)
	}
}

func TestTracerConcurrent(t *testing.T) {
	// Hammer a small ring from many goroutines while a reader drains it:
	// exercised under -race in CI; emitted must equal sum of counts, and
	// observed events must be well-formed.
	tr := NewTracer(32)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tr.Events()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Emit(Kind(i%int(numKinds)), int32(w), uint64(i), 0, 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	snap := tr.Snapshot()
	if snap.Emitted != workers*perWorker {
		t.Fatalf("emitted = %d, want %d", snap.Emitted, workers*perWorker)
	}
	var total uint64
	for _, n := range snap.Counts {
		total += n
	}
	if total != workers*perWorker {
		t.Fatalf("sum of counts = %d, want %d", total, workers*perWorker)
	}
	for _, ev := range snap.Events {
		if ev.Seq == 0 || ev.Seq > workers*perWorker {
			t.Fatalf("bogus event seq %d", ev.Seq)
		}
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %q -> %v", k, b, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("nonsense")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTraceSnapshotJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(KindWALFsync, -1, 4, 0, 2*time.Millisecond)
	b, err := tr.Snapshot().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeTraceSnapshot(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Emitted != 1 || got.Counts["wal_fsync"] != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != KindWALFsync {
		t.Fatalf("events: %+v", got.Events)
	}
}
