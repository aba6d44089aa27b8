package proof

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/securemem/morphtree/internal/container"
)

func sampleProof() *Proof {
	line := bytes.Repeat([]byte{0x11}, LineBytes)
	return &Proof{
		Addr:        0x1C0,
		Shards:      2,
		Shard:       1,
		Epoch:       7,
		Line:        line,
		LineMAC:     0xDEADBEEF,
		Chain:       [][]byte{bytes.Repeat([]byte{0x22}, LineBytes), nil, bytes.Repeat([]byte{0x33}, LineBytes)},
		Root:        bytes.Repeat([]byte{0x44}, LineBytes),
		ShardRoots:  []Digest{{1}, {2}},
		Attestation: bytes.Repeat([]byte{0x55}, 64),
	}
}

func sampleRootInfo() *RootInfo {
	return &RootInfo{
		Pub:  bytes.Repeat([]byte{0x66}, 32),
		Head: SignedHead{Size: 3, Hash: Digest{9}, Sig: bytes.Repeat([]byte{0x77}, 64)},
		Latest: &Entry{
			Epoch: 3, Root: Digest{1}, Prev: Digest{2},
			Sig: bytes.Repeat([]byte{0x88}, 64),
		},
	}
}

func sampleRange() *RangeResult {
	return &RangeResult{
		From: 1,
		To:   3,
		Entries: []Entry{
			{Epoch: 2, Root: Digest{1}, Prev: Digest{2}, Sig: bytes.Repeat([]byte{0x99}, 64)},
			{Epoch: 3, Root: Digest{3}, Prev: Digest{4}, Sig: bytes.Repeat([]byte{0xAA}, 64)},
		},
		Proof: []Digest{{5}, {6}},
	}
}

func TestProofCodecRoundTrip(t *testing.T) {
	p := sampleProof()
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", p, got)
	}

	// A never-written line travels as an absence flag, not 64 zero bytes.
	p.Line, p.LineMAC = nil, 0
	buf, err = p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Line != nil || got.LineMAC != 0 {
		t.Fatalf("absent line decoded as %v/%d", got.Line, got.LineMAC)
	}
}

func TestRootInfoCodecRoundTrip(t *testing.T) {
	r := sampleRootInfo()
	buf, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRootInfo(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", r, got)
	}

	r.Latest = nil
	buf, err = r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeRootInfo(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Latest != nil {
		t.Fatal("empty-log root info decoded with a latest entry")
	}
}

func TestRangeResultCodecRoundTrip(t *testing.T) {
	r := sampleRange()
	buf, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRangeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != r.From || got.To != r.To || !reflect.DeepEqual(got.Entries, r.Entries) || !reflect.DeepEqual(got.Proof, r.Proof) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", r, got)
	}
}

// TestDecodersRejectEveryTruncation chops each wire form at every prefix
// length: no prefix may decode successfully or panic — the mid-proof
// truncated-frame case a flaky or hostile server produces.
func TestDecodersRejectEveryTruncation(t *testing.T) {
	proofBuf, err := sampleProof().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	rootBuf, err := sampleRootInfo().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	rangeBuf, err := sampleRange().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{"proof", proofBuf, func(b []byte) error { _, err := DecodeProof(b); return err }},
		{"root info", rootBuf, func(b []byte) error { _, err := DecodeRootInfo(b); return err }},
		{"root range", rangeBuf, func(b []byte) error { _, err := DecodeRangeResult(b); return err }},
	}
	for _, tc := range cases {
		for cut := 0; cut < len(tc.buf); cut++ {
			if err := tc.decode(tc.buf[:cut]); err == nil {
				t.Errorf("%s truncated at %d/%d decoded successfully", tc.name, cut, len(tc.buf))
			}
		}
		// Trailing garbage is as suspect as a missing tail.
		if err := tc.decode(append(append([]byte(nil), tc.buf...), 0xFF)); err == nil {
			t.Errorf("%s with a trailing byte decoded successfully", tc.name)
		}
	}
}

// TestDecodersRejectOversizedCounts forges count fields past their caps
// and requires a typed BoundsError before any allocation-sized work.
func TestDecodersRejectOversizedCounts(t *testing.T) {
	p := sampleProof()
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Oversized path length: the u16 chain count lives right after the
	// container header, the fixed fields and the present data line.
	chainOff := container.HeaderBytes + 8 + 4 + 4 + 8 + 1 + LineBytes + 8
	forged := append([]byte(nil), buf...)
	binary.BigEndian.PutUint16(forged[chainOff:], MaxChainLines+1)
	var be *BoundsError
	if _, err := DecodeProof(forged); !errors.As(err, &be) {
		t.Fatalf("oversized chain length: got %v, want *BoundsError", err)
	}

	// Oversized shard count.
	forged = append([]byte(nil), buf...)
	binary.BigEndian.PutUint32(forged[container.HeaderBytes+8:], MaxShards+1)
	if _, err := DecodeProof(forged); !errors.As(err, &be) {
		t.Fatalf("oversized shard count: got %v, want *BoundsError", err)
	}

	// Zero shards is as hostile as too many.
	forged = append([]byte(nil), buf...)
	binary.BigEndian.PutUint32(forged[container.HeaderBytes+8:], 0)
	if _, err := DecodeProof(forged); !errors.As(err, &be) {
		t.Fatalf("zero shard count: got %v, want *BoundsError", err)
	}

	// Range response with a forged entry count.
	rr := sampleRange()
	rbuf, err := rr.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged = append([]byte(nil), rbuf...)
	binary.BigEndian.PutUint32(forged[16:], MaxRangeEntries+1)
	if _, err := DecodeRangeResult(forged); !errors.As(err, &be) {
		t.Fatalf("oversized range count: got %v, want *BoundsError", err)
	}

	// Encode-side caps hold too: a hostile chain never leaves the server.
	p.Chain = make([][]byte, MaxChainLines+1)
	if _, err := p.Encode(nil); !errors.As(err, &be) {
		t.Fatalf("encode oversized chain: got %v, want *BoundsError", err)
	}
}
