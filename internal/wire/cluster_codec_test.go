package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestReplicateRequestRoundTrip(t *testing.T) {
	want := &ReplicateRequest{
		Epoch:     7,
		Node:      "127.0.0.1:9999",
		Marks:     []uint64{0, 42, 1 << 40},
		Bootstrap: true,
	}
	p, err := EncodeReplicateRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplicateRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestReplicateResponseBatchesRoundTrip(t *testing.T) {
	want := &ReplicateResponse{
		Epoch:   3,
		Marks:   []uint64{10, 0, 99},
		Batches: [][]byte{[]byte("sealed-frames-0"), nil, []byte("sealed-frames-2")},
	}
	p, err := EncodeReplicateResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplicateResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || !reflect.DeepEqual(got.Marks, want.Marks) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Snapshot != nil || got.SnapMarks != nil {
		t.Fatalf("unexpected snapshot fields: %+v", got)
	}
	for i := range want.Batches {
		if !bytes.Equal(got.Batches[i], want.Batches[i]) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

func TestReplicateResponseSnapshotRoundTrip(t *testing.T) {
	want := &ReplicateResponse{
		Epoch:     9,
		Marks:     []uint64{5, 6},
		Snapshot:  []byte("full-state-blob"),
		SnapMarks: []uint64{5, 6},
	}
	p, err := EncodeReplicateResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplicateResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Snapshot, want.Snapshot) || !reflect.DeepEqual(got.SnapMarks, want.SnapMarks) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got.Batches != nil {
		t.Fatalf("unexpected batches: %+v", got.Batches)
	}
}

// TestClusterCodecsTruncationRobust: every truncation of a valid encoding
// must error cleanly, never panic or decode garbage.
func TestClusterCodecsTruncationRobust(t *testing.T) {
	req, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 1, Node: "n1", Marks: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := EncodeReplicateResponse(&ReplicateResponse{Epoch: 1, Marks: []uint64{1}, Batches: [][]byte{[]byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	prom, err := EncodePromote(2, []uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := EncodeFollow(2, "leader:1")
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		p      []byte
		decode func([]byte) error
	}{
		"request":  {req, func(b []byte) error { _, err := DecodeReplicateRequest(b); return err }},
		"response": {resp, func(b []byte) error { _, err := DecodeReplicateResponse(b); return err }},
		"promote":  {prom, func(b []byte) error { _, _, err := DecodePromote(b); return err }},
		"follow":   {fol, func(b []byte) error { _, _, err := DecodeFollow(b); return err }},
	} {
		for cut := 0; cut < len(tc.p); cut++ {
			if err := tc.decode(tc.p[:cut]); err == nil {
				t.Fatalf("%s: decode of %d/%d bytes succeeded", name, cut, len(tc.p))
			}
		}
		if err := tc.decode(tc.p); err != nil {
			t.Fatalf("%s: full decode failed: %v", name, err)
		}
	}
}

// TestReplicateRequestHostileLengths: absurd claimed vector sizes must be
// rejected before allocation.
func TestReplicateRequestHostileLengths(t *testing.T) {
	p, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 1, Node: "x", Marks: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	hostile := append([]byte(nil), p...)
	// nshards field sits after epoch(8)+flags(1)+nodeLen(2)+node(1).
	hostile[12], hostile[13], hostile[14], hostile[15] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeReplicateRequest(hostile); err == nil {
		t.Fatal("hostile shard count accepted")
	}
}

func TestMovedErrorCrossesWire(t *testing.T) {
	orig := &MovedError{Epoch: 12, Leader: "10.0.0.2:7000"}
	status, payload := EncodeError(orig)
	if status != StatusMoved {
		t.Fatalf("status = %#x, want StatusMoved", status)
	}
	err := DecodeError(status, payload)
	var me *MovedError
	if !errors.As(err, &me) {
		t.Fatalf("decoded %T, want *MovedError", err)
	}
	if me.Epoch != orig.Epoch || me.Leader != orig.Leader {
		t.Fatalf("decoded %+v, want %+v", me, orig)
	}
	if !IsMoved(err) || !IsRetryable(err) {
		t.Fatal("MovedError must be moved + retryable")
	}
	if IsShed(err) || IsTransport(err) {
		t.Fatal("MovedError is neither shed nor transport")
	}
	// Leaderless form survives too.
	err = DecodeError(EncodeError(&MovedError{Epoch: 3}))
	if !IsMoved(err) {
		t.Fatalf("leaderless moved error lost: %v", err)
	}
}

func TestRouteInfoRoundTrip(t *testing.T) {
	want := &RouteInfo{
		Epoch:            4,
		Self:             "a:1",
		Role:             "primary",
		Leader:           "a:1",
		Nodes:            []RouteNode{{Addr: "a:1", Role: "primary"}, {Addr: "b:2", Role: "replica"}},
		Marks:            []uint64{11, 12},
		LeaseRemainingMS: -1,
	}
	p, err := EncodeRouteInfo(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRouteInfo(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestClusterOpNames(t *testing.T) {
	for op, want := range map[byte]string{
		OpReplicate: "replicate",
		OpRoute:     "route",
		OpPromote:   "promote",
		OpFollow:    "follow",
	} {
		if got := OpName(op); got != want {
			t.Fatalf("OpName(%#x) = %q, want %q", op, got, want)
		}
	}
}

// checkCodec holds a cluster-op decoder to the invariant on bytes from
// anyone: ErrMalformed, or a value that encodes back to exactly the bytes it
// was decoded from — and never more memory than the bytes account for.
func checkCodec[T any](t *testing.T, p []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decode(p)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+16*uint64(len(p)) {
		t.Fatalf("decoding %d bytes allocated %d", len(p), got)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	again, err := encode(v)
	if err != nil || !bytes.Equal(again, p) {
		t.Fatalf("%x decoded to %+v, which encodes to %x (%v)", p, v, again, err)
	}
}

// FuzzReplicateCodec runs both OpReplicate decoders over the same bytes.
func FuzzReplicateCodec(f *testing.F) {
	req, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 7, Node: "r:1", Marks: []uint64{0, 42}, Bootstrap: true})
	batches, _ := EncodeReplicateResponse(&ReplicateResponse{Epoch: 3, Marks: []uint64{10, 0}, Batches: [][]byte{[]byte("frames"), nil}})
	snap, _ := EncodeReplicateResponse(&ReplicateResponse{Epoch: 9, Marks: []uint64{5}, Snapshot: []byte("blob"), SnapMarks: []uint64{5}})
	for _, p := range [][]byte{req, batches, snap} {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	hostile := bytes.Clone(batches)
	binary.BigEndian.PutUint32(hostile[9:], maxClusterShards) // a shard count nothing backs
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, p []byte) {
		checkCodec(t, p, DecodeReplicateRequest, EncodeReplicateRequest)
		checkCodec(t, p, DecodeReplicateResponse, EncodeReplicateResponse)
	})
}
