package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/secmem"
)

func TestMigrateRequestRoundTrip(t *testing.T) {
	for _, want := range []*MigrateRequest{
		{Phase: MigrateCutover, Epoch: 9, Shard: 0, Node: "r:1"},
		{Phase: MigrateAbort, Epoch: 9, Shard: 7, Node: "10.0.0.9:7000"},
		{Phase: MigrateRun, Epoch: 1, Shard: 1, Donor: "p:1"},
		{Phase: MigrateRun}, // all-zero message survives too
	} {
		p, err := EncodeMigrateRequest(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMigrateRequest(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}

func TestMigrateResponseRoundTrip(t *testing.T) {
	for _, want := range []*MigrateResponse{
		{Epoch: 3, Mark: 77},
		{Epoch: 1},
	} {
		p, err := EncodeMigrateResponse(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMigrateResponse(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}

// oldMigrateRequest is a request in the layout before migration rode
// replication: a u64 cursor and a u32 record cap sat between the two
// addresses.
func oldMigrateRequest(phase byte, node, donor string, cursor uint64, max uint32) []byte {
	p := []byte{phase}
	p = binary.BigEndian.AppendUint64(p, 1)
	p = binary.BigEndian.AppendUint32(p, 1)
	p = binary.BigEndian.AppendUint16(p, uint16(len(node)))
	p = append(p, node...)
	p = binary.BigEndian.AppendUint64(p, cursor)
	p = binary.BigEndian.AppendUint32(p, max)
	p = binary.BigEndian.AppendUint16(p, uint16(len(donor)))
	return append(p, donor...)
}

// oldMigrateResponse is a response in that layout: epoch, mark, spill size,
// a done flag and a length-prefixed data run.
func oldMigrateResponse(data []byte) []byte {
	p := make([]byte, 25, 29+len(data))
	p[24] = 1
	p = binary.BigEndian.AppendUint32(p, uint32(len(data)))
	return append(p, data...)
}

// TestMigrateCodecRejectsMalformed: every truncation of a valid payload, an
// oversized length field and a payload in the layout of the protocol this
// one replaced decode to ErrMalformed — never a panic, a silently wrong
// message, or an *IntegrityError.
func TestMigrateCodecRejectsMalformed(t *testing.T) {
	req, err := EncodeMigrateRequest(&MigrateRequest{
		Phase: MigrateCutover, Epoch: 3, Shard: 1, Node: "node:1", Donor: "p:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(req); cut++ {
		if _, err := DecodeMigrateRequest(req[:cut]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated request (%d of %d bytes): %v", cut, len(req), err)
		}
	}
	resp, err := EncodeMigrateResponse(&MigrateResponse{Epoch: 3, Mark: 9})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(resp); cut++ {
		if _, err := DecodeMigrateResponse(resp[:cut]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated response (%d of %d bytes): %v", cut, len(resp), err)
		}
	}
	// Length fields claiming more than the frame holds.
	if _, err := DecodeMigrateRequest(append(append([]byte{MigrateCutover}, make([]byte, 12)...), 0xFF, 0xFF, 0, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized node length: %v", err)
	}
	huge := &MigrateRequest{Phase: MigrateCutover, Node: strings.Repeat("x", maxNodeAddr+1)}
	if _, err := EncodeMigrateRequest(huge); err == nil {
		t.Fatal("oversized node address encoded")
	}
	huge = &MigrateRequest{Phase: MigrateRun, Donor: strings.Repeat("x", maxNodeAddr+1)}
	if _, err := EncodeMigrateRequest(huge); err == nil {
		t.Fatal("oversized donor address encoded")
	}
	// The old layout: a Begin, a Tail and a Run as an older node sent them,
	// and a Chunk's answer.
	var ie *secmem.IntegrityError
	for name, p := range map[string][]byte{
		"begin": oldMigrateRequest(1, "r:1", "", 0, 0),
		"tail":  oldMigrateRequest(3, "r:1", "", 42, 512),
		"run":   oldMigrateRequest(MigrateRun, "", "p:1", 0, 0),
	} {
		if _, err := DecodeMigrateRequest(p); !errors.Is(err, ErrMalformed) || errors.As(err, &ie) {
			t.Fatalf("an old-layout %s request: %v", name, err)
		}
	}
	if _, err := DecodeMigrateResponse(oldMigrateResponse([]byte("chunk"))); !errors.Is(err, ErrMalformed) || errors.As(err, &ie) {
		t.Fatalf("an old-layout response: %v", err)
	}
}

func TestMigratePhaseNames(t *testing.T) {
	if got := OpName(OpMigrate); got != "migrate" {
		t.Fatalf("OpName(OpMigrate) = %q", got)
	}
	for ph, want := range map[byte]string{
		MigrateCutover: "cutover",
		MigrateAbort:   "abort",
		MigrateRun:     "run",
		1:              "phase_01", // the retired Begin
	} {
		if got := MigratePhaseName(ph); got != want {
			t.Fatalf("MigratePhaseName(%d) = %q, want %q", ph, got, want)
		}
	}
	if got := MigratePhaseName(0xEE); got != "phase_ee" {
		t.Fatalf("unknown phase name = %q", got)
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

// FuzzMigrateCodec runs both OpMigrate decoders over the same bytes.
func FuzzMigrateCodec(f *testing.F) {
	for _, r := range []*MigrateRequest{
		{Phase: MigrateCutover, Epoch: 3, Shard: 1, Node: "r:1"},
		{Phase: MigrateRun, Epoch: 1, Shard: 1, Donor: "p:1"},
	} {
		p, _ := EncodeMigrateRequest(r)
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	resp, _ := EncodeMigrateResponse(&MigrateResponse{Epoch: 3, Mark: 77})
	f.Add(resp)
	f.Add(oldMigrateRequest(3, "r:1", "", 42, 512))
	f.Add(oldMigrateResponse([]byte("chunk")))
	f.Fuzz(func(t *testing.T, p []byte) {
		checkCodec(t, p, DecodeMigrateRequest, EncodeMigrateRequest)
		checkCodec(t, p, DecodeMigrateResponse, EncodeMigrateResponse)
	})
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
