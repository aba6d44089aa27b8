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

// FuzzProofDecode feeds DecodeProof whatever a server, or a man in the middle,
// could send as a PROOF reply. Every input decodes to a proof that encodes
// and decodes back to itself, or fails with one of the decoder's typed errors
// — truncation, a bound, trailing bytes, another header — never a panic and
// never an *secmem.IntegrityError, which would call framing damage tampering.
// What it allocates is bounded by the input's length: no count is believed
// beyond the bytes there are to back it.
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
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := proof.DecodeProof(in)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !racedetect.Enabled && grew > 32*uint64(len(in))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		if err == nil {
			re, err := p.Encode(nil)
			if err != nil {
				t.Fatalf("a decoded proof does not encode: %v", err)
			}
			again, err := proof.DecodeProof(re)
			if err != nil || !reflect.DeepEqual(again, p) {
				t.Fatalf("a decoded proof does not survive encode and decode: %v", err)
			}
			return
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
		if len(in) < container.HeaderBytes && !errors.As(err, &te) {
			t.Fatalf("%d bytes, shorter than a header: %v, want a *proof.TruncatedError", len(in), err)
		}
	})
}
