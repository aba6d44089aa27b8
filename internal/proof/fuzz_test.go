package proof_test

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// FuzzProofDecode feeds the proof-log decoders whatever a server, or a man in
// the middle, could send as a PROOF, ROOT or ROOT_RANGE reply: DecodeProof,
// DecodeRootInfo and DecodeRangeResult each get the same bytes. Every input
// decodes to a value that encodes and decodes back to itself, or fails with
// one of the decoders' typed errors — truncation, a bound, trailing bytes,
// another header — never a panic and never an *secmem.IntegrityError, which
// would call framing damage tampering. What each allocates is bounded by the
// input's length: no count is believed beyond the bytes there are to back it.
// The bound is read off the process-wide allocation counter, which the fuzz
// worker's own allocations also move, so it is the least of three decodes of
// the same input that is held to it: a decode is deterministic, and only what
// runs beside it differs from one to the next.
func FuzzProofDecode(f *testing.F) {
	for _, name := range []string{"cw_proof_0.bin", "cw_proof_5000.bin", "parent_proof_17.bin"} {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	full, err := (&proof.Proof{
		Shards: 3, Shard: 1, Epoch: 9,
		Line:        bytes.Repeat([]byte{0x11}, proof.LineBytes),
		Chain:       [][]byte{nil, bytes.Repeat([]byte{0x22}, proof.LineBytes)},
		Root:        bytes.Repeat([]byte{0x33}, proof.LineBytes),
		ShardRoots:  make([]proof.Digest, 3),
		Attestation: []byte{1, 2, 3},
	}).Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:container.HeaderBytes+8+4]) // ends after a shard count
	f.Add([]byte{})
	entry := proof.Entry{Epoch: 2, Root: proof.Digest{0x44}, Prev: proof.Digest{0x55}, Sig: []byte{6, 7}}
	head := proof.SignedHead{Size: 2, Hash: proof.Digest{0x66}, Sig: []byte{8}}
	for _, v := range []interface{ Encode([]byte) ([]byte, error) }{
		&proof.RootInfo{Pub: []byte{1, 2, 3}, Head: head},
		&proof.RootInfo{Pub: []byte{1, 2, 3}, Head: head, Latest: &entry},
		&proof.RangeResult{From: 1, To: 3, Entries: []proof.Entry{entry, entry}, Proof: []proof.Digest{{0x77}}},
	} {
		b, err := v.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		err := checkDecoder(t, in, proof.DecodeProof)
		var te *proof.TruncatedError
		if err != nil && len(in) < container.HeaderBytes && !errors.As(err, &te) {
			t.Fatalf("%d bytes, shorter than a header: %v, want a *proof.TruncatedError", len(in), err)
		}
		checkDecoder(t, in, proof.DecodeRootInfo)
		checkDecoder(t, in, proof.DecodeRangeResult)
	})
}

// checkDecoder holds one decoder to FuzzProofDecode's rules on in and
// returns the decoder's error.
func checkDecoder[T interface{ Encode([]byte) ([]byte, error) }](t *testing.T, in []byte, decode func([]byte) (T, error)) error {
	t.Helper()
	bound := 32*uint64(len(in)) + 4096
	var (
		v    T
		err  error
		grew uint64
	)
	for try := 0; try < 3 && (try == 0 || grew > bound); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = decode(in)
		runtime.ReadMemStats(&after)
		if try == 0 || after.TotalAlloc-before.TotalAlloc < grew {
			grew = after.TotalAlloc - before.TotalAlloc
		}
	}
	if !racedetect.Enabled && grew > bound {
		t.Fatalf("decoding %d bytes as %T allocated %d", len(in), v, grew)
	}
	if err == nil {
		re, err := v.Encode(nil)
		if err != nil {
			t.Fatalf("a decoded %T does not encode: %v", v, err)
		}
		again, err := decode(re)
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("a decoded %T does not survive encode and decode: %v", v, err)
		}
		return nil
	}
	var (
		ie *secmem.IntegrityError
		te *proof.TruncatedError
		be *proof.BoundsError
		xe *proof.TrailingError
		ve *secmem.VersionError
	)
	if errors.As(err, &ie) {
		t.Fatalf("malformed input reported as tampering: %v", err)
	}
	if !errors.As(err, &te) && !errors.As(err, &be) && !errors.As(err, &xe) && !errors.As(err, &ve) {
		t.Fatalf("untyped error %T: %v", err, err)
	}
	return err
}
