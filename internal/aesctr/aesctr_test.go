package aesctr

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// Pad is the 64-byte one-time pad for {addr, counter}: four AES blocks
// seeded with the address, counter, and block ordinal, read out as the XOR
// of a zero line.
func (c *Cipher) Pad(addr, counter uint64) [LineBytes]byte {
	var pad [LineBytes]byte
	if err := c.XOR(pad[:], pad[:], addr, counter); err != nil {
		panic(err)
	}
	return pad
}

// portable runs f with the kernel off, so XOR takes crypto/aes's path.
func portable(f func()) {
	saved := useKernel
	useKernel = false
	defer func() { useKernel = saved }()
	f()
}

func newCipher(t *testing.T) *Cipher {
	t.Helper()
	c, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Error("bad key length must fail")
	}
	for _, n := range []int{16, 24, 32} {
		if _, err := New(make([]byte, n)); err != nil {
			t.Errorf("AES-%d key rejected: %v", n*8, err)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := newCipher(t)
	pt := make([]byte, LineBytes)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	ct := make([]byte, LineBytes)
	if err := c.XOR(ct, pt, 0x40, 9); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := make([]byte, LineBytes)
	if err := c.XOR(back, ct, 0x40, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
}

func TestXORInPlace(t *testing.T) {
	c := newCipher(t)
	line := make([]byte, LineBytes)
	copy(line, []byte("hello secure memory"))
	orig := bytes.Clone(line)
	c.XOR(line, line, 1, 2)
	c.XOR(line, line, 1, 2)
	if !bytes.Equal(line, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestLineSizeEnforced(t *testing.T) {
	c := newCipher(t)
	if err := c.XOR(make([]byte, 32), make([]byte, 64), 0, 0); err == nil {
		t.Error("short dst must fail")
	}
	if err := c.XOR(make([]byte, 64), make([]byte, 63), 0, 0); err == nil {
		t.Error("short src must fail")
	}
}

func TestPadsVaryWithCounterAndAddress(t *testing.T) {
	c := newCipher(t)
	p1 := c.Pad(0x1000, 1)
	p2 := c.Pad(0x1000, 2)
	p3 := c.Pad(0x1040, 1)
	if p1 == p2 {
		t.Error("pad ignores counter — temporal pad reuse")
	}
	if p1 == p3 {
		t.Error("pad ignores address — spatial pad reuse")
	}
}

func TestPadBlocksDiffer(t *testing.T) {
	// The four 16-byte AES blocks within one pad must all differ.
	c := newCipher(t)
	p := c.Pad(0, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if bytes.Equal(p[i*16:(i+1)*16], p[j*16:(j+1)*16]) {
				t.Fatalf("pad blocks %d and %d identical", i, j)
			}
		}
	}
}

// Property: encryption is its own inverse and pads never repeat across
// distinct (addr, counter) pairs.
func TestQuickPadUniqueness(t *testing.T) {
	c := newCipher(t)
	f := func(a1, c1, a2, c2 uint32) bool {
		p1 := c.Pad(uint64(a1)<<6, uint64(c1))
		p2 := c.Pad(uint64(a2)<<6, uint64(c2))
		same := a1 == a2 && c1 == c2
		return (p1 == p2) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The kernel against the portable path for AES-128, -192 and -256 keys at
// random addresses and counters, into a separate line and in place.
func TestKernelMatchesPortable(t *testing.T) {
	if !useKernel {
		t.Skip("no line kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{16, 24, 32} {
		for i := 0; i < 500; i++ {
			key := make([]byte, n)
			rng.Read(key)
			var src [LineBytes]byte
			rng.Read(src[:])
			addr, counter := rng.Uint64(), rng.Uint64()
			if i%4 == 0 {
				counter >>= 4 // a counter whose shift loses no bits
			}
			checkPaths(t, key, src, addr, counter)
		}
	}
}

// checkPaths holds the kernel's XOR, out of place and in place, to the
// portable path's.
func checkPaths(t *testing.T, key []byte, src [LineBytes]byte, addr, counter uint64) {
	t.Helper()
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	var kernel, want [LineBytes]byte
	inPlace := src
	if err := c.XOR(kernel[:], src[:], addr, counter); err != nil {
		t.Fatal(err)
	}
	if err := c.XOR(inPlace[:], inPlace[:], addr, counter); err != nil {
		t.Fatal(err)
	}
	portable(func() {
		if err := c.XOR(want[:], src[:], addr, counter); err != nil {
			t.Fatal(err)
		}
	})
	if kernel != want || inPlace != want {
		t.Fatalf("AES-%d at {%#x, %#x}: kernel %x, in place %x, portable %x",
			len(key)*8, addr, counter, kernel, inPlace, want)
	}
}

// FuzzKernelMatchesPortable holds the kernel's XOR to the portable path for
// any key New accepts, line, address and counter.
func FuzzKernelMatchesPortable(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), make([]byte, LineBytes), uint64(0x40), uint64(7))
	f.Add(make([]byte, 24), bytes.Repeat([]byte{0xff}, LineBytes), ^uint64(0), ^uint64(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 32), make([]byte, LineBytes), uint64(0), uint64(1)<<60)
	f.Fuzz(func(t *testing.T, key, line []byte, addr, counter uint64) {
		if !useKernel {
			t.Skip("no line kernel on this CPU")
		}
		if (len(key) != 16 && len(key) != 24 && len(key) != 32) || len(line) != LineBytes {
			t.Skip()
		}
		checkPaths(t, key, [LineBytes]byte(line), addr, counter)
	})
}

// Sixteen goroutines share one Cipher, on each path this CPU has, each
// holding its lines to a Cipher of its own: under -race this is the check
// that the portable path's pad is never in two hands.
func TestConcurrentXORsOnOneCipher(t *testing.T) {
	if useKernel {
		concurrentXORs(t)
	}
	portable(func() { concurrentXORs(t) })
}

func concurrentXORs(t *testing.T) {
	shared := newCipher(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := newCipher(t)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				var src, got, want [LineBytes]byte
				rng.Read(src[:])
				addr, counter := rng.Uint64(), rng.Uint64()
				if err := shared.XOR(got[:], src[:], addr, counter); err != nil {
					t.Error(err)
					return
				}
				if err := own.XOR(want[:], src[:], addr, counter); err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("goroutine %d at {%#x, %#x}: shared Cipher %x, own %x", g, addr, counter, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sink byte

// mallocs returns how many heap objects 1 000 calls of f allocate, after one
// call to warm it up, read from the runtime's raw count: testing.AllocsPerRun
// divides as integers, so it reads half an allocation a call as 0.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// XOR between two lines on its caller's stack allocates nothing on either
// path, under the race detector too: neither path hands a line to anything
// but assembly, and the portable path makes its pad in the Cipher's own
// bytes.
func TestXORRawMallocs(t *testing.T) {
	c := newCipher(t)
	var counter uint64
	xor := func() {
		var src, dst [LineBytes]byte
		src[0] = sink
		counter++
		if err := c.XOR(dst[:], src[:], 0x40, counter); err != nil {
			t.Fatal(err)
		}
		sink += dst[0]
	}
	if useKernel {
		if n := mallocs(xor); n != 0 {
			t.Errorf("kernel: 1 000 XORs over stack lines allocate %d times, want 0", n)
		}
	}
	portable(func() {
		if n := mallocs(xor); n != 0 {
			t.Errorf("portable: 1 000 XORs over stack lines allocate %d times, want 0", n)
		}
	})
}

// BenchmarkPad is one line's pad and XOR, on each path this CPU has.
func BenchmarkPad(b *testing.B) {
	c, err := New([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, LineBytes)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.XOR(line, line, 0x40, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		sink += line[0]
	}
	b.Run("kernel", func(b *testing.B) {
		if !useKernel {
			b.Skip("no line kernel on this CPU")
		}
		run(b)
	})
	b.Run("portable", func(b *testing.B) { portable(func() { run(b) }) })
}
