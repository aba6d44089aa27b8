package mac

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
)

// testdata/golden_macs.jsonl holds line MACs computed with crypto/hmac at the
// commit before the pre-keyed evaluation (internal/counters/testdata/README.md
// says how): HMAC-SHA256(key, domain || addr || counter || content),
// truncated. That was the line MAC of every version-2 save, version-1
// checkpoint stream and header-less proof. The line MAC is GHASH-then-AES
// now (reference_test.go), so the file checks two things that still hold:
// Derive over the same message as its label is that HMAC, bit for bit —
// Derive makes every role key, so a key it made before is the key it makes
// now — and hmacReference, the old line MAC this package's tests keep as the
// oracle for the old fixtures, agrees with it.
type goldenMAC struct {
	Key     string `json:"key"`
	Width   int    `json:"width"`
	Kind    string `json:"kind"`
	Content string `json:"content"`
	Counter uint64 `json:"counter"`
	Addr    uint64 `json:"addr"`
	Level   int    `json:"level"`
	MAC     uint64 `json:"mac"`
}

func TestGoldenMACs(t *testing.T) {
	type cell struct{ keyLen, width int }
	seen := map[cell]bool{}
	for _, g := range readGolden(t, "testdata/golden_macs.jsonl") {
		key, content := unhex(t, g.Key), unhex(t, g.Content)
		domain := uint64(dataDomain)
		switch g.Kind {
		case "data":
		case "counter":
			domain = uint64(g.Level)
		default:
			t.Fatalf("golden kind %q", g.Kind)
		}
		derived := truncate(Derive(key, string(lineMessage(domain, g.Addr, g.Counter, content))), Width(g.Width))
		oracle := hmacReference(key, Width(g.Width), domain, g.Addr, g.Counter, content)
		if derived != g.MAC || oracle != g.MAC {
			t.Errorf("%s MAC, %d-byte key, width %d, %d-byte content: Derive %#x, HMAC oracle %#x, golden %#x",
				g.Kind, len(key), g.Width, len(content), derived, oracle, g.MAC)
		}
		seen[cell{len(key), g.Width}] = true
	}
	for _, keyLen := range []int{16, 24, 32} {
		for _, width := range []int{54, 56, 64} {
			if !seen[cell{keyLen, width}] {
				t.Errorf("no golden MAC for a %d-byte key at width %d", keyLen, width)
			}
		}
	}
}

// lineMessage is a line MAC's message: domain || addr || counter || content,
// the three words little-endian.
func lineMessage(domain, addr, counter uint64, content []byte) []byte {
	msg := make([]byte, headerBytes, headerBytes+len(content))
	binary.LittleEndian.PutUint64(msg[0:], domain)
	binary.LittleEndian.PutUint64(msg[8:], addr)
	binary.LittleEndian.PutUint64(msg[16:], counter)
	return append(msg, content...)
}

// hmacReference is the line MAC before GHASH-then-AES replaced it, verbatim:
// crypto/hmac over the line message, truncated. It survives as the oracle for
// fixtures written under it.
func hmacReference(key []byte, width Width, domain, addr, counter uint64, content []byte) uint64 {
	h := hmac.New(sha256.New, key)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], domain)
	binary.LittleEndian.PutUint64(hdr[8:], addr)
	binary.LittleEndian.PutUint64(hdr[16:], counter)
	h.Write(hdr[:])
	h.Write(content)
	sum := h.Sum(nil)
	v := binary.LittleEndian.Uint64(sum[:8])
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// truncate reads a MAC out of an HMAC output as the old line MAC did: the
// first eight bytes little-endian, cut to width bits.
func truncate(sum []byte, width Width) uint64 {
	return binary.LittleEndian.Uint64(sum) & (^uint64(0) >> (64 - uint(width)))
}

// hmacSum is crypto/hmac's HMAC-SHA256(key, msg), the oracle Derive is held
// to.
func hmacSum(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// Every key length New accepts and then some, random labels from empty to
// several SHA-256 blocks: Derive is crypto/hmac's HMAC-SHA256, whole.
func TestMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for keyLen := 1; keyLen <= 2*sha256.BlockSize; keyLen++ {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, n := range []int{0, 1, 39, 40, 103, 104, 200, 1000} {
			label := make([]byte, n)
			rng.Read(label)
			if got, want := Derive(key, string(label)), hmacSum(key, label); !bytes.Equal(got, want) {
				t.Fatalf("%d-byte key, %d-byte label: got %x, crypto/hmac %x", keyLen, n, got, want)
			}
		}
	}
}

// Keys and labels on either side of every place HMAC-SHA256 changes shape:
// a key one byte short of the SHA-256 block, the block, one byte over it
// (which HMAC hashes first); labels at the 55/56-byte edge where SHA-256's
// length field stops fitting the block, the block itself, and the same edge
// one block later. Derive is crypto/hmac's at each.
func TestBlockEdgesMatchCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, keyLen := range []int{1, 16, 63, 64, 65, 128} {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, n := range []int{0, 31, 32, 55, 56, 63, 64, 88, 89, 119, 120} {
			label := make([]byte, n)
			rng.Read(label)
			if got, want := Derive(key, string(label)), hmacSum(key, label); !bytes.Equal(got, want) {
				t.Errorf("%d-byte key, %d-byte label: got %x, crypto/hmac %x", keyLen, n, got, want)
			}
		}
	}
}

// FuzzKeyerMatchesCryptoHMAC holds a Keyer's keys to crypto/hmac for any key
// New accepts: Derive is crypto/hmac's HMAC-SHA256 over any label, and a
// Keyer's Data, Counter and Record are the GCM tag under
// HMAC-SHA256(key, "morphtree/mac/ghash") finished by AES under
// HMAC-SHA256(key, "morphtree/mac/fin") — K1 and K2 computed here with
// crypto/hmac and crypto/cipher alone — for any message up to 4 KiB and the
// three widths in use.
func FuzzKeyerMatchesCryptoHMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), make([]byte, 64), uint64(0xFFFF), uint64(0x40), uint64(7))
	f.Add([]byte("k"), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(make([]byte, sha256.BlockSize), make([]byte, 4096), uint64(1), ^uint64(0), uint64(1)<<56)
	f.Fuzz(func(t *testing.T, key, msg []byte, domain, addr, counter uint64) {
		if len(key) == 0 || len(key) > sha256.BlockSize || len(msg) > 4096 {
			t.Skip()
		}
		if got, want := Derive(key, string(msg)), hmacSum(key, msg); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte key, Derive over %d bytes: got %x, crypto/hmac %x", len(key), len(msg), got, want)
		}
		k1, err := aes.NewCipher(hmacSum(key, []byte("morphtree/mac/ghash"))[:subKeyBytes])
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(k1)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := aes.NewCipher(hmacSum(key, []byte("morphtree/mac/fin"))[:subKeyBytes])
		if err != nil {
			t.Fatal(err)
		}
		tag := func(width Width, domain, addr, counter uint64, content []byte) uint64 {
			sum := gcm.Seal(nil, make([]byte, gcm.NonceSize()), nil, lineMessage(domain, addr, counter, content))
			k2.Encrypt(sum, sum)
			return truncate(sum, width)
		}
		for _, width := range []Width{Width54, Width56, Width64} {
			k, err := New(key, width)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := k.Record(msg), tag(width, recordDomain, 0, 0, msg); got != want {
				t.Fatalf("%d-byte key, width %d, Record over %d bytes: got %#x, want %#x", len(key), width, len(msg), got, want)
			}
			if got, want := k.Data(msg, counter, addr), tag(width, dataDomain, addr, counter, msg); got != want {
				t.Fatalf("%d-byte key, width %d, Data over %d bytes: got %#x, want %#x", len(key), width, len(msg), got, want)
			}
			level := int(domain % 16)
			if got, want := k.Counter(msg, counter, level, addr), tag(width, uint64(level), addr, counter, msg); got != want {
				t.Fatalf("%d-byte key, width %d, level-%d Counter over %d bytes: got %#x, want %#x", len(key), width, level, len(msg), got, want)
			}
		}
	})
}

func TestNewRejectsKeySizes(t *testing.T) {
	for _, n := range []int{0, sha256.BlockSize + 1, 200} {
		_, err := New(make([]byte, n), Width56)
		var kse *KeySizeError
		if !errors.As(err, &kse) || kse.Len != n {
			t.Errorf("%d-byte key: got %v, want *KeySizeError", n, err)
		}
	}
	if _, err := New(make([]byte, sha256.BlockSize), Width56); err != nil {
		t.Errorf("block-sized key rejected: %v", err)
	}
}

var sink uint64

func TestMACsDoNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := keyer(t, Width56)
	line := make([]byte, lineBytes)
	if n := testing.AllocsPerRun(200, func() { sink += k.Data(line, 7, 0x40) }); n != 0 {
		t.Errorf("Keyer.Data allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink += k.Counter(line, 7, 1, 3) }); n != 0 {
		t.Errorf("Keyer.Counter allocates %v times per call, want 0", n)
	}
	// A caller's stack buffer stays on its stack: compute does not retain
	// or leak content.
	if n := testing.AllocsPerRun(200, func() {
		var local [lineBytes]byte
		local[0] = byte(sink)
		sink += k.Counter(local[:], 7, 1, 3)
	}); n != 0 {
		t.Errorf("Keyer.Counter over a stack buffer allocates %v times per call, want 0", n)
	}
}

// TestRawDoesNotAllocate pins the WAL's record seal, Keyer.Record (once
// Keyer.Raw), to no allocation at any body length the WAL writes, once the
// Keyer's message buffer has grown to the largest.
func TestRawDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := keyer(t, Width64)
	k.Record(make([]byte, 4096))               // the message buffer has grown to the largest message
	for _, n := range []int{0, 33, 89, 4096} { // 89: a write record's body
		body := make([]byte, n)
		if a := testing.AllocsPerRun(200, func() { sink += k.Record(body) }); a != 0 {
			t.Errorf("Keyer.Record over %d bytes allocates %v times per call, want 0", n, a)
		}
	}
}

// BenchmarkCounterMAC is one counter line's MAC, on each path this CPU has.
func BenchmarkCounterMAC(b *testing.B) {
	k, err := New([]byte("test-key-0123456"), Width56)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, lineBytes)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += k.Counter(line, uint64(i), 1, 3)
		}
	}
	b.Run("kernel", func(b *testing.B) {
		if !useKernel {
			b.Skip("no line kernel on this CPU")
		}
		run(b)
	})
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
}
