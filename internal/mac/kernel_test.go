package mac

import (
	"math/rand"
	"runtime"
	"testing"
)

// portable runs f with the kernel off, so every MAC takes crypto/cipher's
// path.
func portable(f func()) {
	saved := useKernel
	useKernel = false
	defer func() { useKernel = saved }()
	f()
}

// chunkBytes is a state-stream frame's largest payload, ckpt.ChunkBytes.
const chunkBytes = 64 << 10

// checkKernel holds the kernel's Data, Counter, Record and Frame to the
// portable path's over one content.
func checkKernel(t *testing.T, k *Keyer, content []byte, domain, addr, counter uint64) {
	t.Helper()
	level := int(domain % 16)
	macs := func() [4]uint64 {
		return [4]uint64{k.Data(content, counter, addr), k.Counter(content, counter, level, addr), k.Record(content), k.Frame(addr, counter, content)}
	}
	kernel := macs()
	var port [4]uint64
	portable(func() { port = macs() })
	if kernel != port {
		t.Fatalf("width %d, %d-byte content: kernel Data, Counter, Record, Frame %#x, portable %#x", k.Width(), len(content), kernel, port)
	}
}

// Every width and every content length from 0 to 300 bytes, which takes the
// message from three blocks to twenty-two: one group of powers and several,
// with and without a partial last block.
func TestKernelMatchesPortable(t *testing.T) {
	if !useKernel {
		t.Skip("no line kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(44))
	for width := Width(1); width <= 64; width++ {
		key := make([]byte, 1+rng.Intn(64))
		rng.Read(key)
		k, err := New(key, width)
		if err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 300)
		rng.Read(content)
		for n := 0; n <= len(content); n++ {
			checkKernel(t, k, content[:n], rng.Uint64(), rng.Uint64(), rng.Uint64())
		}
	}
	// A state stream's frame tag is a 64-bit MAC over up to a whole frame.
	k, err := New([]byte("0123456789abcdef"), Width64)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, chunkBytes)
	rng.Read(content)
	for _, n := range []int{0, 1, 15, 16, 17, 4096, chunkBytes - 1, chunkBytes} {
		checkKernel(t, k, content[:n], rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
}

// FuzzKernelMatchesPortable holds the kernel to the portable path for any
// key New accepts, any width, any content up to a state-stream frame's and
// any header words.
func FuzzKernelMatchesPortable(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint8(56), make([]byte, lineBytes), uint64(0xFFFF), uint64(0x40), uint64(7))
	f.Add([]byte("k"), uint8(1), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(make([]byte, 64), uint8(64), make([]byte, 4096), uint64(1), ^uint64(0), uint64(1)<<56)
	f.Add([]byte("0123456789abcdef"), uint8(64), make([]byte, chunkBytes), uint64(0), uint64(3), uint64(0x9E3779B97F4A7C15))
	f.Fuzz(func(t *testing.T, key []byte, width uint8, content []byte, domain, addr, counter uint64) {
		if !useKernel {
			t.Skip("no line kernel on this CPU")
		}
		if len(key) == 0 || len(key) > 64 || width < 1 || width > 64 || len(content) > chunkBytes {
			t.Skip()
		}
		k, err := New(key, Width(width))
		if err != nil {
			t.Fatal(err)
		}
		checkKernel(t, k, content, domain, addr, counter)
	})
}

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

// Data, Counter, Record and Frame over buffers on their caller's stack
// allocate nothing on either path once a call has warmed the Keyer, under
// the race detector too: the portable path assembles each message in the
// Keyer's own buffer, grown by then to the longest, and makes the tag in
// the Keyer's own block.
func TestMACRawMallocs(t *testing.T) {
	k := keyer(t, Width64)
	macs := func() {
		var line [lineBytes]byte
		var body [89]byte // a WAL write record's
		line[0], body[0] = byte(sink), byte(sink>>8)
		sink += k.Data(line[:], 7, 0x40) + k.Counter(line[:], sink, 1, 3) + k.Record(body[:]) + k.Frame(1, sink, line[:])
	}
	if useKernel {
		if n := mallocs(macs); n != 0 {
			t.Errorf("kernel: 1 000 rounds of Data, Counter, Record and Frame allocate %d times, want 0", n)
		}
	}
	portable(func() {
		if n := mallocs(macs); n != 0 {
			t.Errorf("portable: 1 000 rounds of Data, Counter, Record and Frame allocate %d times, want 0", n)
		}
	})
}
