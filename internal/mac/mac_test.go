package mac

import (
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func keyer(t *testing.T, w Width) *Keyer {
	t.Helper()
	k, err := New([]byte("test-key-0123456"), w)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Width64); err == nil {
		t.Error("empty key must fail")
	}
	if _, err := New([]byte("k"), 0); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := New([]byte("k"), 65); err == nil {
		t.Error("width 65 must fail")
	}
}

func TestDeterministic(t *testing.T) {
	k := keyer(t, Width64)
	data := make([]byte, 64)
	if k.Data(data, 1, 2) != k.Data(data, 1, 2) {
		t.Fatal("MAC not deterministic")
	}
}

func TestTruncation(t *testing.T) {
	k54 := keyer(t, Width54)
	data := make([]byte, 64)
	for i := 0; i < 100; i++ {
		m := k54.Data(data, uint64(i), 0)
		if m >= 1<<54 {
			t.Fatalf("54-bit MAC %#x exceeds range", m)
		}
	}
	if k54.Width() != Width54 {
		t.Fatal("width accessor wrong")
	}
}

func TestBindings(t *testing.T) {
	k := keyer(t, Width64)
	data := make([]byte, 64)
	base := k.Data(data, 7, 0x1000)

	// Different counter (replay of stale tuple).
	if k.Data(data, 8, 0x1000) == base {
		t.Error("MAC did not bind the counter")
	}
	// Different address (splice).
	if k.Data(data, 7, 0x2000) == base {
		t.Error("MAC did not bind the address")
	}
	// Different content (tamper).
	mod := make([]byte, 64)
	mod[13] = 1
	if k.Data(mod, 7, 0x1000) == base {
		t.Error("MAC did not bind the content")
	}
	// Different key.
	k2, _ := New([]byte("other-key-012345"), Width64)
	if k2.Data(data, 7, 0x1000) == base {
		t.Error("MAC did not bind the key")
	}
}

func TestDomainSeparation(t *testing.T) {
	k := keyer(t, Width64)
	content := make([]byte, 64)
	d := k.Data(content, 5, 3)
	c0 := k.Counter(content, 5, 0, 3)
	c1 := k.Counter(content, 5, 1, 3)
	if d == c0 || d == c1 || c0 == c1 {
		t.Fatalf("domains collide: data=%#x l0=%#x l1=%#x", d, c0, c1)
	}
	// A record's MAC has zero address and counter words: only its domain
	// keeps it from a line's with those words.
	r := k.Record(content)
	if r == k.Data(content, 0, 0) || r == k.Counter(content, 0, 0, 0) || r == k.Counter(content, 0, 1, 0) {
		t.Fatalf("the record domain collides with a line's: record=%#x", r)
	}
	// Nor does a state-stream frame's tag, whatever its ordinal and chain.
	if f := k.Frame(3, 5, content); f == d || f == k.Frame(0, 0, content) || k.Frame(0, 0, content) == r {
		t.Fatalf("the frame domain collides with another: frame=%#x", f)
	}
}

// Property: flipping any single content byte changes the MAC.
func TestQuickContentSensitivity(t *testing.T) {
	k := keyer(t, Width64)
	f := func(content [64]byte, pos uint8, bit uint8) bool {
		orig := k.Data(content[:], 1, 1)
		content[pos%64] ^= 1 << (bit % 8)
		return k.Data(content[:], 1, 1) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Go in FIPS 140-only mode (GODEBUG=fips140=only) refuses a GCM with a caller's
// nonce, so it refuses the line MAC's: New must return crypto/cipher's error,
// not panic and not hand back a Keyer that cannot MAC. The check runs in a
// child process, because the setting is read once, at start-up.
func TestNewReturnsTheGCMRefusal(t *testing.T) {
	if os.Getenv("MAC_TEST_FIPS_ONLY") == "1" {
		if k, err := New([]byte("test-key-0123456"), Width56); err == nil || k != nil || !strings.Contains(err.Error(), "crypto/cipher") {
			t.Fatalf("New under fips140=only = %v, %v; want crypto/cipher's refusal", k, err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNewReturnsTheGCMRefusal$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only", "MAC_TEST_FIPS_ONLY=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child under fips140=only: %v\n%s", err, out)
	}
}

// Sixteen goroutines share one Keyer, each over its own messages of its own
// lengths, on each path this CPU has: under -race this is the check that the
// portable path's scratch is the Keyer's only mutable state and is never in
// two hands.
func TestConcurrentMACsOnOneKeyer(t *testing.T) {
	if useKernel {
		concurrentMACs(t)
	}
	portable(func() { concurrentMACs(t) })
}

func concurrentMACs(t *testing.T) {
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
				if got, want := k.Data(msg, counter, addr), referenceMAC(key, Width56, dataDomain, addr, counter, msg); got != want {
					t.Errorf("goroutine %d: Data over %d bytes: got %#x, reference %#x", g, len(msg), got, want)
					return
				}
				if got, want := k.Record(msg), referenceMAC(key, Width56, recordDomain, 0, 0, msg); got != want {
					t.Errorf("goroutine %d: Record over %d bytes: got %#x, reference %#x", g, len(msg), got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
