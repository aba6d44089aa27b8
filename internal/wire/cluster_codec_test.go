package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/tenant"
)

func TestReplicateRequestRoundTrip(t *testing.T) {
	want := &ReplicateRequest{
		Epoch:          7,
		Node:           "127.0.0.1:9999",
		Marks:          []uint64{0, 42, 1 << 40},
		Bootstrap:      true,
		Base:           3,
		Offset:         5 * PageBytes,
		CWRecords:      true,
		PagedBootstrap: true,
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

// TestReplicateRequestTenantDigest: a poll with a tenant list carries its
// digest behind flags bit 1 and round-trips; a poll without one keeps the
// layout it had before the field existed, byte for byte.
func TestReplicateRequestTenantDigest(t *testing.T) {
	want := &ReplicateRequest{Epoch: 2, Node: "r", Marks: []uint64{9}, Tenants: bytes.Repeat([]byte{0xA7}, tenantDigestLen)}
	p, err := EncodeReplicateRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeReplicateRequest(p); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v (%v), want %+v", got, err, want)
	}
	if _, err := EncodeReplicateRequest(&ReplicateRequest{Tenants: []byte{1}}); err == nil {
		t.Fatal("a one-byte tenant digest encoded")
	}
	plain, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 2, Node: "r", Marks: []uint64{9}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	// | epoch 2 | flags 1 | nodeLen 1 | "r" | 1 shard | mark 9 |
	if want := "000000000000000201000172000000010000000000000009"; hex.EncodeToString(plain) != want {
		t.Fatalf("a poll without tenants encodes as %x, want %s", plain, want)
	}
	// A poll that reads this WAL generation sets flags bit 2, which the
	// decoder of the build before refuses as malformed (its flags stop at 3).
	cw, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 2, Node: "r", Marks: []uint64{9}, Bootstrap: true, CWRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "000000000000000205000172000000010000000000000009"; hex.EncodeToString(cw) != want {
		t.Fatalf("a poll reading line-MAC records encodes as %x, want %s", cw, want)
	}
	// A poll that bootstraps from base pages sets flags bit 3 and carries
	// the page it wants after its marks; the decoder of the build before
	// refuses it as malformed (its flags stop at 7).
	paged, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 2, Node: "r", Marks: []uint64{9}, Bootstrap: true, Base: 4, Offset: 0x100000, CWRecords: true, PagedBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "00000000000000020d000172000000010000000000000009" + "0000000000000004" + "0000000000100000"; hex.EncodeToString(paged) != want {
		t.Fatalf("a paged poll encodes as %x, want %s", paged, want)
	}
	bad := bytes.Clone(cw)
	bad[8] = 0x10
	if _, err := DecodeReplicateRequest(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("flags 0x10 decoded: %v, want ErrMalformed", err)
	}
	bad[8] = 0x0D // says it carries a page position it does not
	if _, err := DecodeReplicateRequest(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a paged poll without its position decoded: %v, want ErrMalformed", err)
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
	if got.Page != nil {
		t.Fatalf("unexpected page: %+v", got.Page)
	}
	for i := range want.Batches {
		if !bytes.Equal(got.Batches[i], want.Batches[i]) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

// TestReplicateResponseSnapshotRoundTrip: a page of a base snapshot
// round-trips behind flags bit 1; the whole-stream snapshot answer's bit 0 is
// malformed, and so is a page a follower could not spool — empty, over
// PageBytes, or past the file's end.
func TestReplicateResponseSnapshotRoundTrip(t *testing.T) {
	want := &ReplicateResponse{
		Epoch: 9,
		Marks: []uint64{5, 6},
		Page:  &BasePage{Seq: 4, Size: 3*PageBytes + 7, Offset: 3 * PageBytes, Data: []byte("7 bytes")},
	}
	p, err := EncodeReplicateResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplicateResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	whole := bytes.Clone(p)
	whole[8] = 1
	if _, err := DecodeReplicateResponse(whole); !errors.Is(err, ErrMalformed) {
		t.Fatalf("the whole-stream snapshot flag decoded: %v, want ErrMalformed", err)
	}
	for name, pg := range map[string]BasePage{
		"empty":           {Seq: 4, Size: 10, Offset: 10},
		"over PageBytes":  {Seq: 4, Size: 2 * PageBytes, Data: make([]byte, PageBytes+1)},
		"past the end":    {Seq: 4, Size: 10, Offset: 8, Data: []byte("abc")},
		"offset past end": {Seq: 4, Size: 10, Offset: 11, Data: []byte("a")},
	} {
		if _, err := EncodeReplicateResponse(&ReplicateResponse{Epoch: 9, Page: &pg}); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: encoded: %v, want ErrMalformed", name, err)
		}
		bad := binary.BigEndian.AppendUint64(append(bytes.Clone(p[:replRespFixed-4]), 0, 0, 0, 0), pg.Seq)
		bad = binary.BigEndian.AppendUint64(bad, pg.Size)
		bad = append(binary.BigEndian.AppendUint64(bad, pg.Offset), pg.Data...)
		if _, err := DecodeReplicateResponse(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded: %v, want ErrMalformed", name, err)
		}
	}
}

// TestClusterCodecsTruncationRobust: every truncation of a valid encoding
// must error cleanly, never panic or decode garbage.
func TestClusterCodecsTruncationRobust(t *testing.T) {
	req, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 1, Node: "n1", Marks: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	tenantReq, err := EncodeReplicateRequest(&ReplicateRequest{Epoch: 1, Node: "n1", Marks: []uint64{1, 2}, Tenants: make([]byte, tenantDigestLen)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := EncodeReplicateResponse(&ReplicateResponse{Epoch: 1, Marks: []uint64{1}, Batches: [][]byte{[]byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		p      []byte
		decode func([]byte) error
	}{
		"request":  {req, func(b []byte) error { _, err := DecodeReplicateRequest(b); return err }},
		"tenants":  {tenantReq, func(b []byte) error { _, err := DecodeReplicateRequest(b); return err }},
		"response": {resp, func(b []byte) error { _, err := DecodeReplicateResponse(b); return err }},
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

func TestClusterOpNames(t *testing.T) {
	for op, want := range map[byte]string{
		OpReplicate: "replicate",
		0x0F:        "op_0f", // retired OpRoute
	} {
		if got := OpName(op); got != want {
			t.Fatalf("OpName(%#x) = %q, want %q", op, got, want)
		}
	}
}

// checkCodec holds a payload decoder to the invariant on bytes from
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

// FuzzReplicateCodec runs both OpReplicate decoders, the request and the
// response, over the same bytes.
func FuzzReplicateCodec(f *testing.F) {
	req, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 7, Node: "r:1", Marks: []uint64{0, 42}, Bootstrap: true})
	tenants, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 4, Node: "r:2", Marks: []uint64{3}, Tenants: bytes.Repeat([]byte{0xC5}, tenantDigestLen)})
	batches, _ := EncodeReplicateResponse(&ReplicateResponse{Epoch: 3, Marks: []uint64{10, 0}, Batches: [][]byte{[]byte("frames"), nil}})
	snap, _ := EncodeReplicateResponse(&ReplicateResponse{Epoch: 9, Marks: []uint64{5}, Page: &BasePage{Seq: 2, Size: PageBytes + 4, Offset: PageBytes, Data: []byte("page")}})
	// The edge shapes: a plain poll with no node and no shards, and a
	// response that carries no shards at all.
	poll, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 1})
	empty, _ := EncodeReplicateResponse(&ReplicateResponse{Epoch: 2})
	for _, p := range [][]byte{req, tenants, batches, snap, poll, empty} {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	hostile := bytes.Clone(batches)
	binary.BigEndian.PutUint32(hostile[9:], MaxClusterShards) // a shard count nothing backs
	f.Add(hostile)
	cw, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 5, Node: "r:3", Marks: []uint64{8, 1}, Tenants: bytes.Repeat([]byte{0x3C}, tenantDigestLen), CWRecords: true})
	f.Add(cw)
	paged, _ := EncodeReplicateRequest(&ReplicateRequest{Epoch: 6, Node: "r:4", Marks: []uint64{2, 0}, Bootstrap: true, Base: 3, Offset: 2 * PageBytes, CWRecords: true, PagedBootstrap: true})
	f.Add(paged)
	whole := bytes.Clone(snap)
	whole[8] = 1 // the whole-stream snapshot answer of the build before
	f.Add(whole)
	f.Add(append(bytes.Clone(cw[:8]), 0x10)) // the first flag no build defines
	f.Fuzz(func(t *testing.T, p []byte) {
		checkCodec(t, p, DecodeReplicateRequest, EncodeReplicateRequest)
		checkCodec(t, p, DecodeReplicateResponse, EncodeReplicateResponse)
	})
}

// writeReq, rootRange and hello are the OpWrite, OpRootRange and OpHello
// payloads as one value, so their decoders fit checkCodec.
type writeReq struct {
	addr uint64
	line []byte
}

type rootRange struct{ from, to uint64 }

type hello struct {
	id    string
	token []byte
}

// FuzzRequestCodec runs the request decoders a server applies to bytes
// from anyone — READ/TAMPER/PROOF's address, WRITE's, ROOT_RANGE's and
// HELLO's, a tenant's or a cluster peer's — over the same bytes.
func FuzzRequestCodec(f *testing.F) {
	write, _ := AppendWrite(nil, 0x40, bytes.Repeat([]byte{0xAB}, secmem.LineBytes))
	hi, _ := AppendHello(nil, "alpha", [tenant.TokenLen]byte{1, 2, 3})
	peer, _ := AppendHello(nil, tenant.PeerID, [tenant.TokenLen]byte{4, 5, 6})
	for _, p := range [][]byte{AppendAddr(nil, 0x40), write, AppendRootRange(nil, 1, 9), hi, peer} {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkCodec(t, p, DecodeAddr, func(a uint64) ([]byte, error) { return AppendAddr(nil, a), nil })
		checkCodec(t, p, func(p []byte) (writeReq, error) {
			addr, line, err := DecodeWrite(p)
			return writeReq{addr, line}, err
		}, func(v writeReq) ([]byte, error) { return AppendWrite(nil, v.addr, v.line) })
		checkCodec(t, p, func(p []byte) (rootRange, error) {
			from, to, err := DecodeRootRange(p)
			return rootRange{from, to}, err
		}, func(v rootRange) ([]byte, error) { return AppendRootRange(nil, v.from, v.to), nil })
		checkCodec(t, p, func(p []byte) (hello, error) {
			id, token, err := DecodeHello(p)
			return hello{id, token}, err
		}, func(v hello) ([]byte, error) { return AppendHello(nil, v.id, [tenant.TokenLen]byte(v.token)) })
	})
}
