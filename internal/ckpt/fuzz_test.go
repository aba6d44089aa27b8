package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/secmem"
)

// A delta segment and the stream it travels in are read back from disk, where
// an adversary can have been. A frame's bytes are released only once its tag
// has checked, so every count the state decoder meets was written by the key's
// holder; a frame's length is read before its tag can be, and a count, though
// authentic, may be absurd. The decoders must fail typed, and must not
// allocate on the say-so of a number in the file.

const fuzzContext = "morphtree/ckpt/delta/5/4" // deltaContext(5, 4)

// allocBound is what decoding an input may allocate: the stream's largest
// frame and its buffers, and a small multiple of the input.
func allocBound(input int) uint64 { return 2<<20 + 16*uint64(input) }

// allocatedBy runs fn and returns how many bytes it allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// goldenDelta is a small valid delta at chain position 5←4: two shards, a
// root, a counter line and a few data lines each.
func goldenDelta(t testing.TB) (DeltaHeader, []lineShard) {
	t.Helper()
	hdr := DeltaHeader{Seq: 5, Base: 4, CoveredLSN: []uint64{10, 20}}
	shards := make([]lineShard, 2)
	for s := range shards {
		shards[s] = append(shards[s], secmem.DirtyLine{Level: 2, Line: bytes.Repeat([]byte{0xA0 + byte(s)}, 64)})
		shards[s] = append(shards[s], secmem.DirtyLine{Level: 0, Index: uint64(3 + s), Line: bytes.Repeat([]byte{0xB0 + byte(s)}, 64)})
		for d := uint64(0); d < 5; d++ {
			shards[s] = append(shards[s], secmem.DirtyLine{Level: -1, Index: d*7 + uint64(s), Line: bytes.Repeat([]byte{byte(d)}, 64), MAC: d * 0x9E3779B97F4A7C15})
		}
	}
	return hdr, shards
}

// deltaFile returns the bytes WriteDelta writes for hdr and shards.
func deltaFile(t testing.TB, hdr DeltaHeader, shards []lineShard) []byte {
	t.Helper()
	path := DeltaPath(t.TempDir(), hdr.Seq, hdr.Base)
	if err := WriteDelta(new(StreamWriter), path, testKey, hdr, shards); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// framed wraps payload in a valid stream: frames, their tags and the end frame.
func framed(t testing.TB, payload []byte) []byte { return streamBytes(t, fuzzContext, payload) }

// unframed is the payload of a valid stream.
func unframed(t testing.TB, stream []byte) []byte {
	t.Helper()
	sr, err := NewStreamReader(bytes.NewReader(stream), testKey, fuzzContext)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// released is what a StreamReader hands out of stream before it stops: the
// payload of the frames whose tags checked.
func released(stream []byte) []byte {
	sr, err := NewStreamReader(bytes.NewReader(stream), testKey, fuzzContext)
	if err != nil {
		return nil
	}
	payload, _ := io.ReadAll(sr)
	return payload
}

// damaged cuts a valid stream short (at even) or flips one bit of it (at
// odd). Either way it no longer authenticates.
func damaged(stream []byte, at uint32) []byte {
	if at%2 == 0 {
		return stream[:int(at/2)%len(stream)]
	}
	flipped := bytes.Clone(stream)
	bit := int(at/2) % (8 * len(stream))
	flipped[bit/8] ^= 1 << (bit % 8)
	return flipped
}

// oomDelta is a valid delta with shard 0's line count set to 2^32: the file
// that made ReadDelta ask for 2^32 lines' worth of memory — and the process
// die of it — when the count was read before anything was authenticated.
func oomDelta(t testing.TB) []byte {
	t.Helper()
	hdr, shards := goldenDelta(t)
	raw := deltaFile(t, hdr, shards)
	count := len(streamMagic) + 10 + len(fuzzContext) + lenBytes + 3*8 + len(shards)*16
	if got := binary.LittleEndian.Uint64(raw[count:]); got != uint64(len(shards[0])) {
		t.Fatalf("shard 0's count is not at offset %d: %d there", count, got)
	}
	binary.LittleEndian.PutUint64(raw[count:], 1<<32)
	return raw
}

func TestReadDeltaBoundsUnauthenticatedCounts(t *testing.T) {
	path := DeltaPath(t.TempDir(), 5, 4)
	if err := os.WriteFile(path, oomDelta(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	if got := allocatedBy(func() { _, _, err = readDelta(path, 5, 4) }); got > allocBound(0) {
		t.Errorf("ReadDelta allocated %d bytes for a count nothing had authenticated", got)
	}
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("a delta announcing 2^32 lines: got %v, want IntegrityError", err)
	}
}

// coverageDiffers reports whether a delta payload's header holds a shard
// whose two coverage words differ.
func coverageDiffers(payload []byte) bool {
	if len(payload) < 3*8 {
		return false
	}
	n := min(binary.LittleEndian.Uint64(payload[16:]), 1<<16)
	for i := 0; uint64(i) < n && 3*8+16*(i+1) <= len(payload); i++ {
		at := 3*8 + 16*i
		if !bytes.Equal(payload[at:at+8], payload[at+8:at+16]) {
			return true
		}
	}
	return false
}

// authentic reports whether stream is a whole stream under the test's key
// and context: every frame's tag checks, the end frame's too.
func authentic(stream []byte) bool {
	sr, err := NewStreamReader(bytes.NewReader(stream), testKey, fuzzContext)
	if err == nil {
		_, err = io.Copy(io.Discard, sr)
	}
	return err == nil
}

// checkTyped holds err, what reading stream returned, to the error contract.
// A stream that does not open with this container's header is a
// *secmem.VersionError. A whole stream never fails as tampering, and a
// stream that is not whole always fails: as an *secmem.IntegrityError, or —
// where decodes, the payload's decoder, is given — as the error its payload
// met in frames whose tags checked, which a whole stream of just those
// frames' bytes meets too.
func checkTyped(t *testing.T, err error, stream []byte, decodes func(payload []byte) error) {
	t.Helper()
	var ie *secmem.IntegrityError
	var ve *secmem.VersionError
	ours := len(stream) >= container.HeaderBytes && container.CheckHeader(stream, streamMagic, streamVersion) == nil
	switch whole := authentic(stream); {
	case err == nil:
		if !whole {
			t.Fatal("a stream that does not authenticate was read")
		}
	case errors.As(err, &ve):
		if ours || len(stream) < container.HeaderBytes+2 {
			t.Fatalf("a stream that opens with this container's header, or with none: %v", err)
		}
	case errors.As(err, &ie):
		if whole {
			t.Fatalf("a whole stream failed as tampering: %v", err)
		}
	case !whole && decodes == nil:
		t.Fatalf("a stream that does not authenticate failed untyped: %v", err)
	case !whole && decodes(released(stream)) == nil:
		t.Fatalf("a stream that does not authenticate failed with %v, though the bytes its tags released decode", err)
	}
}

// fuzzInput turns a fuzzer's bytes into the bytes to decode: as they are, as
// the payload of a valid stream, or as that stream damaged.
func fuzzInput(t *testing.T, data []byte, mode uint8, at uint32) []byte {
	switch mode % 3 {
	case 1:
		return framed(t, data)
	case 2:
		return damaged(framed(t, data), at)
	}
	return data
}

func FuzzStreamReader(f *testing.F) {
	f.Add([]byte("a payload"), uint8(0), uint32(0))
	f.Add([]byte("a payload"), uint8(1), uint32(0))
	f.Add(framed(f, bytes.Repeat([]byte{7}, 300)), uint8(0), uint32(0))
	f.Add(oomDelta(f), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint32) {
		stream := fuzzInput(t, data, mode, at)
		var payload []byte
		var err error
		if got := allocatedBy(func() {
			var sr *StreamReader
			if sr, err = NewStreamReader(bytes.NewReader(stream), testKey, fuzzContext); err == nil {
				payload, err = io.ReadAll(sr)
			}
		}); got > allocBound(len(stream)) {
			t.Fatalf("decoding %d bytes allocated %d", len(stream), got)
		}
		checkTyped(t, err, stream, nil)
		switch {
		case mode%3 == 2 && err == nil:
			t.Fatal("a damaged stream decoded")
		case mode%3 == 1 && (err != nil || !bytes.Equal(payload, data) || !bytes.Equal(framed(t, payload), stream)):
			t.Fatalf("a valid stream of %d bytes did not decode to its payload and back: %v", len(stream), err)
		case err == nil && !bytes.Equal(unframed(t, framed(t, payload)), payload):
			t.Fatal("what decoded does not survive re-encoding")
		}
	})
}

func FuzzReadDelta(f *testing.F) {
	hdr, shards := goldenDelta(f)
	valid := deltaFile(f, hdr, shards)
	f.Add(valid, uint8(0), uint32(0))
	f.Add(oomDelta(f), uint8(0), uint32(0))
	f.Add(unframed(f, valid), uint8(1), uint32(0))
	huge := unframed(f, valid)
	binary.LittleEndian.PutUint64(huge[3*8+len(shards)*16:], 1<<32) // the count that ran out of memory, authenticated
	f.Add(huge, uint8(1), uint32(0))
	f.Add(unframed(f, valid), uint8(2), uint32(2*8*100+1))
	f.Add(unframed(f, valid), uint8(2), uint32(2*200))
	dir := f.TempDir() // one for the process: every input is written over the last
	path, again := DeltaPath(dir, 5, 4), filepath.Join(dir, "again")
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint32) {
		file := fuzzInput(t, data, mode, at)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var hdr DeltaHeader
		var lines [][]secmem.DirtyLine
		var err error
		if n := allocatedBy(func() { hdr, lines, err = readDelta(path, 5, 4) }); n > allocBound(len(file)) {
			t.Fatalf("reading a delta of %d bytes allocated %d", len(file), n)
		}
		var ie *secmem.IntegrityError
		if errors.As(err, &ie) && authentic(file) && coverageDiffers(unframed(t, file)) {
			return // an authentic header whose two coverage words differ is refused
		}
		checkTyped(t, err, file, func(payload []byte) error {
			if err := os.WriteFile(again, framed(t, payload), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := readDelta(again, 5, 4)
			return err
		})
		if mode%3 == 2 && err == nil {
			t.Fatal("a damaged delta was read")
		}
		if err != nil {
			return
		}
		// What decodes re-encodes to the bytes read: to the payload it was
		// read from, up to whatever trailed the last shard, and to the same
		// file when the writer's framing made it and nothing trailed.
		shards := make([]lineShard, len(lines))
		for i := range lines {
			shards[i] = lines[i]
		}
		if err := WriteDelta(new(StreamWriter), again, testKey, hdr, shards); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		was, is := unframed(t, file), unframed(t, raw)
		if !bytes.HasPrefix(was, is) {
			t.Fatal("the lines read do not encode to the payload they were read from")
		}
		if mode%3 == 1 && len(is) == len(was) && !bytes.Equal(raw, file) {
			t.Fatal("a delta read and written again is not the same file")
		}
	})
}
