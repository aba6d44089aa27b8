package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
)

// A Save stream is not authenticated — the lines in it protect themselves —
// so Load meets every count and length in it on the input's say-so. It must
// fail with an error, never a panic, and must not allocate on a number's word.

// lengthBomb is the 44-byte stream that killed a replica at the commit before
// this file: a Save header of the given version for cfg's layout, then 2^62 —
// at version 1 the first shard's blob length, which Load sized a slice from;
// at version 2 the first shard's line count.
func lengthBomb(cfg Config, version uint64) []byte {
	b := append([]byte(saveMagic), make([]byte, 40)...)
	binary.LittleEndian.PutUint64(b[4:], version)
	binary.LittleEndian.PutUint64(b[12:], uint64(cfg.Shards))
	binary.LittleEndian.PutUint64(b[20:], cfg.Mem.MemoryBytes)
	binary.LittleEndian.PutUint64(b[28:], 1<<62)
	return b
}

// allocatedBy runs fn and returns how many bytes it allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what loading an input may allocate: an engine of the fuzz
// geometry with every chunk it can hold, and a small multiple of the input.
func allocBound(input int) uint64 { return 1<<20 + 16*uint64(input) }

func TestLoadBoundsUnauthenticatedLengths(t *testing.T) {
	cfg := testConfig(t, 2, 1<<14, "morph128")
	for version, wantVersionError := range map[uint64]bool{1: true, saveVersion: false} {
		var err error
		if got := allocatedBy(func() { _, err = Load(cfg, bytes.NewReader(lengthBomb(cfg, version))) }); got > allocBound(0) {
			t.Errorf("version %d: Load allocated %d bytes for a length nothing had checked", version, got)
		}
		var ve *secmem.VersionError
		if err == nil || errors.As(err, &ve) != wantVersionError {
			t.Fatalf("version %d: a stream announcing 2^62: got %v", version, err)
		}
	}
}

// FuzzLoad feeds Load raw bytes (mode 0) and a valid Save stream with the
// bytes spliced over it at an offset (mode 1). Whatever comes back is an error
// or a state: its Save is a fixed point of Load then Save, and it verifies or
// fails verification as tampering, nothing else.
func FuzzLoad(f *testing.F) {
	cfg := testConfig(f, 2, 1<<14, "morph128")
	s := mustNew(f, cfg)
	for i := uint64(0); i < 48; i++ {
		if err := s.Write(i*5%256*LineBytes, oracle.Fill(i, i)); err != nil {
			f.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if err := s.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(lengthBomb(cfg, 1), uint8(0), uint32(0))
	f.Add(lengthBomb(cfg, saveVersion), uint8(0), uint32(0))
	f.Add(valid.Bytes(), uint8(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}, uint8(1), uint32(28)) // the bomb, spliced
	f.Add([]byte{0x40}, uint8(1), uint32(1000))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint32) {
		input := data
		if mode%2 == 1 {
			input = bytes.Clone(valid.Bytes())
			copy(input[int(at)%len(input):], data)
		}
		var loaded *Sharded
		var err error
		if got := allocatedBy(func() { loaded, err = Load(cfg, bytes.NewReader(input)) }); got > allocBound(len(input)) {
			t.Fatalf("loading %d bytes allocated %d", len(input), got)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := loaded.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := Load(cfg, bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("what Load accepted does not load once saved: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save of a loaded state is not a fixed point of Load then Save")
		}
		var ie *secmem.IntegrityError
		if err := loaded.VerifyAll(); err != nil && !errors.As(err, &ie) {
			t.Fatalf("a loaded state fails verification with something other than tampering: %v", err)
		}
	})
}
