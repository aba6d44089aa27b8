package mac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
)

// rawReference is crypto/hmac over msg alone, truncated as Raw truncates.
func rawReference(key []byte, width Width, msg []byte) uint64 {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	v := binary.LittleEndian.Uint64(h.Sum(nil)[:8])
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// Message lengths on either side of every place SHA-256's padding changes
// shape: an empty message, the 55/56-byte edge where the length field stops
// fitting the block, the block itself, the engine's 88-byte line message and
// the WAL's 89-byte write body, and the same edge one block later. One Keyer
// per width does them all in turn, so a state left over from one length
// cannot survive into the next unnoticed.
func TestBlockEdgesMatchCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	key := []byte("0123456789abcdef")
	for _, width := range []Width{Width54, Width56, Width64} {
		k, err := New(key, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 31, 32, 55, 56, 63, 64, 88, 89, 119, 120} {
			msg := make([]byte, n)
			rng.Read(msg)
			if got, want := k.Raw(msg), rawReference(key, width, msg); got != want {
				t.Errorf("width %d, Raw over %d bytes: got %#x, crypto/hmac %#x", width, n, got, want)
			}
			domain, addr, counter := rng.Uint64(), rng.Uint64(), rng.Uint64()
			if got, want := k.compute(domain, addr, counter, msg), hmacReference(key, width, domain, addr, counter, msg); got != want {
				t.Errorf("width %d, line MAC over %d content bytes: got %#x, crypto/hmac %#x", width, n, got, want)
			}
		}
	}
}

func TestRawDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := keyer(t, Width64)
	k.Raw(make([]byte, 4096)) // the pooled buffer has grown to the largest message
	for _, n := range []int{0, 33, 89, 4096} {
		msg := make([]byte, n)
		if a := testing.AllocsPerRun(200, func() { sink += k.Raw(msg) }); a != 0 {
			t.Errorf("Keyer.Raw over %d bytes allocates %v times per call, want 0", n, a)
		}
	}
}

// FuzzKeyerMatchesCryptoHMAC holds both forms of the MAC to crypto/hmac for
// any key New accepts, any message up to 4 KiB and the three widths in use.
func FuzzKeyerMatchesCryptoHMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), make([]byte, 64), uint64(0xFFFF), uint64(0x40), uint64(7))
	f.Add([]byte("k"), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(make([]byte, sha256.BlockSize), make([]byte, 4096), uint64(1), ^uint64(0), uint64(1)<<56)
	f.Fuzz(func(t *testing.T, key, msg []byte, domain, addr, counter uint64) {
		if len(key) == 0 || len(key) > sha256.BlockSize || len(msg) > 4096 {
			t.Skip()
		}
		for _, width := range []Width{Width54, Width56, Width64} {
			k, err := New(key, width)
			if err != nil {
				t.Fatal(err)
			}
			// Twice each, alternating: the second evaluation runs on the
			// scratch the first one left behind.
			for i := 0; i < 2; i++ {
				if got, want := k.compute(domain, addr, counter, msg), hmacReference(key, width, domain, addr, counter, msg); got != want {
					t.Fatalf("%d-byte key, width %d, line MAC over %d bytes: got %#x, crypto/hmac %#x", len(key), width, len(msg), got, want)
				}
				if got, want := k.Raw(msg), rawReference(key, width, msg); got != want {
					t.Fatalf("%d-byte key, width %d, Raw over %d bytes: got %#x, crypto/hmac %#x", len(key), width, len(msg), got, want)
				}
			}
		}
	})
}

// Sixteen goroutines share one Keyer, each over its own messages of its own
// lengths: under -race this is the check that the pooled scratch is the only
// mutable state and is never in two hands.
func TestConcurrentMACsOnOneKeyer(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	k, err := New(key, Width56)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				msg := make([]byte, rng.Intn(200))
				rng.Read(msg)
				addr, counter := rng.Uint64(), rng.Uint64()
				if got, want := k.Data(msg, counter, addr), hmacReference(key, Width56, 0xFFFF, addr, counter, msg); got != want {
					t.Errorf("goroutine %d: Data over %d bytes: got %#x, crypto/hmac %#x", g, len(msg), got, want)
					return
				}
				if got, want := k.Raw(msg), rawReference(key, Width56, msg); got != want {
					t.Errorf("goroutine %d: Raw over %d bytes: got %#x, crypto/hmac %#x", g, len(msg), got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
