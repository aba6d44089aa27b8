package mac

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"

	"github.com/securemem/morphtree/internal/racedetect"
)

// testdata/golden_macs.jsonl holds Keyer.Data and Keyer.Counter outputs
// computed with crypto/hmac at the commit before the pre-keyed evaluation
// (internal/counters/testdata/README.md says how). Every MAC in every
// snapshot, WAL segment and proof was made by that code, so this one must
// agree with it on every bit.
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
	f, err := os.Open("testdata/golden_macs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type cell struct{ keyLen, width int }
	seen := map[cell]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var g goldenMAC
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatal(err)
		}
		key, err := hex.DecodeString(g.Key)
		if err != nil {
			t.Fatal(err)
		}
		content, err := hex.DecodeString(g.Content)
		if err != nil {
			t.Fatal(err)
		}
		k, err := New(key, Width(g.Width))
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		switch g.Kind {
		case "data":
			got = k.Data(content, g.Counter, g.Addr)
		case "counter":
			got = k.Counter(content, g.Counter, g.Level, g.Addr)
		default:
			t.Fatalf("golden kind %q", g.Kind)
		}
		if got != g.MAC {
			t.Errorf("%s MAC, %d-byte key, width %d, %d-byte content: got %#x, golden %#x",
				g.Kind, len(key), g.Width, len(content), got, g.MAC)
		}
		seen[cell{len(key), g.Width}] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, keyLen := range []int{16, 24, 32} {
		for _, width := range []int{54, 56, 64} {
			if !seen[cell{keyLen, width}] {
				t.Errorf("no golden MAC for a %d-byte key at width %d", keyLen, width)
			}
		}
	}
}

// hmacReference is the construction compute replaced, verbatim.
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

// Every key length New accepts, every width, content from empty to several
// SHA-256 blocks: the pre-keyed evaluation is crypto/hmac's.
func TestMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for keyLen := 1; keyLen <= sha256.BlockSize; keyLen++ {
		key := make([]byte, keyLen)
		rng.Read(key)
		width := Width(1 + rng.Intn(64))
		k, err := New(key, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 39, 40, 63, 64, 65, 103, 104, 200, 1000} {
			content := make([]byte, n)
			rng.Read(content)
			domain, addr, counter := rng.Uint64(), rng.Uint64(), rng.Uint64()
			got := k.compute(domain, addr, counter, content)
			if want := hmacReference(key, width, domain, addr, counter, content); got != want {
				t.Fatalf("%d-byte key, width %d, %d-byte content: got %#x, crypto/hmac %#x", keyLen, width, n, got, want)
			}
		}
	}
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

func BenchmarkCounterMAC(b *testing.B) {
	k, err := New([]byte("test-key-0123456"), Width56)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, lineBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += k.Counter(line, uint64(i), 1, 3)
	}
}
