package secmem

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/counters"
)

// benchMemory builds a 1 MB secure memory for throughput benchmarks.
func benchMemory(b *testing.B, enc counters.Spec, tr []counters.Spec) *Memory {
	b.Helper()
	m, err := New(Config{MemoryBytes: 1 << 20, Enc: enc, Tree: tr, Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkWrite(b *testing.B) {
	for _, c := range []struct {
		name string
		enc  counters.Spec
	}{
		{"SC-64", counters.SplitSpec(64)},
		{"MorphCtr-128", counters.MorphSpec(true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := benchMemory(b, c.enc, []counters.Spec{c.enc})
			l := make([]byte, LineBytes)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				addr := uint64(i) * 64 % (1 << 20)
				if err := m.Write(addr, l); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(LineBytes)
		})
	}
}

// BenchmarkWriteBack is the other half of a write's cost, the half that moved
// off the write path: each iteration rewrites the 128 lines of one leaf
// counter block and then flushes, which seals and stores that block and the
// level-1 block above it — what a write used to do 128 times over. The
// geometry is the benchmark's: two counter levels under the root.
func BenchmarkWriteBack(b *testing.B) {
	morph := counters.MorphSpec(true)
	m, err := New(Config{MemoryBytes: 32 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	l := make([]byte, LineBytes)
	b.ReportAllocs()
	b.SetBytes(int64(morph.Arity) * LineBytes)
	for i := 0; i < b.N; i++ {
		for d := 0; d < morph.Arity; d++ {
			if err := m.Write(uint64(d)*LineBytes, l); err != nil {
				b.Fatal(err)
			}
		}
		m.FlushMetadataCache()
	}
}

func BenchmarkReadWarm(b *testing.B) {
	m := benchMemory(b, counters.MorphSpec(true), []counters.Spec{counters.MorphSpec(true)})
	l := make([]byte, LineBytes)
	for i := uint64(0); i < 1024; i++ {
		if err := m.Write(i*64, l); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(uint64(i) % 1024 * 64); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(LineBytes)
}

func BenchmarkReadColdVerify(b *testing.B) {
	// Cold reads re-verify the whole chain from untrusted storage.
	m := benchMemory(b, counters.MorphSpec(true), []counters.Spec{counters.MorphSpec(true)})
	l := make([]byte, LineBytes)
	for i := uint64(0); i < 1024; i++ {
		if err := m.Write(i*64, l); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.FlushMetadataCache()
		if _, err := m.Read(uint64(i) % 1024 * 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverflowStorm(b *testing.B) {
	// Hammer one line of an SC-128 memory: an overflow (and 128-line
	// re-encryption) every 8 writes.
	m := benchMemory(b, counters.SplitSpec(128), []counters.Spec{counters.SplitSpec(128)})
	l := make([]byte, LineBytes)
	for i := uint64(0); i < 128; i++ {
		m.Write(i*64, l)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(0, l); err != nil {
			b.Fatal(err)
		}
	}
	st := m.Stats()
	b.ReportMetric(float64(st.Overflows[0])/float64(b.N), "overflows/write")
}

func BenchmarkSave(b *testing.B) {
	m := benchMemory(b, counters.MorphSpec(true), []counters.Spec{counters.MorphSpec(true)})
	l := make([]byte, LineBytes)
	for i := uint64(0); i < 4096; i++ {
		m.Write(i*64%(1<<20), l)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Save(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad is BenchmarkSave's way back: the same 4 096-line image into a
// new engine.
func BenchmarkLoad(b *testing.B) {
	m := benchMemory(b, counters.MorphSpec(true), []counters.Spec{counters.MorphSpec(true)})
	l := make([]byte, LineBytes)
	for i := uint64(0); i < 4096; i++ {
		m.Write(i*64%(1<<20), l)
	}
	var image bytes.Buffer
	if err := m.Save(&image); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load(m.cfg, bytes.NewReader(image.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func ExampleMemory_Save() {
	cfg := Config{
		MemoryBytes: 1 << 20,
		Enc:         counters.MorphSpec(true),
		Tree:        []counters.Spec{counters.MorphSpec(true)},
		Key:         []byte("0123456789abcdef"),
	}
	m, _ := New(cfg)
	m.WriteAt([]byte("durable secret"), 0)
	var buf writerBuffer
	m.Save(&buf)
	loaded, _ := Load(cfg, &buf)
	out := make([]byte, 14)
	loaded.ReadAt(out, 0)
	fmt.Println(string(out))
	// Output: durable secret
}

// writerBuffer is a minimal in-memory io.ReadWriter for the example.
type writerBuffer struct {
	data []byte
	pos  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}

// BenchmarkCollectDirtySparse is a checkpoint's view of a large, mostly idle
// engine: 1 GiB protected, 1 000 lines (and their counter lines) dirty. A cut
// and a count used to scan a stamp per line of capacity; now they visit the
// chunks that hold something and skip those untouched since the last cut.
func BenchmarkCollectDirtySparse(b *testing.B) {
	morph := counters.MorphSpec(true)
	m, err := New(Config{MemoryBytes: 1 << 30, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	l := make([]byte, LineBytes)
	const dirty, stride = 1000, 16411 // a prime number of lines: every write its own page
	for i := uint64(0); i < dirty; i++ {
		if err := m.Write(i*stride*LineBytes, l); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Cut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cut, err := m.BeginCut()
			if err == nil {
				err = cut.Drain(func([]byte) error { return nil })
			}
			if err != nil || cut.N() < dirty {
				b.Fatalf("a cut of %d lines, want at least %d: %v", cut.N(), dirty, err)
			}
			cut.Abort() // never committed: the same lines every time
		}
	})
	b.Run("DirtyCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := m.DirtyCount(); n < dirty {
				b.Fatalf("%d lines dirty, want at least %d", n, dirty)
			}
		}
	})
}

// BenchmarkFlushMetadataCache is a full cold pass over the benchmark's span:
// 256 counter blocks fetched and verified into the cache, then dropped. The
// flush-ns metric is the drop alone — clearing the chunks that cached
// something, where there used to be a new map per level and the old ones left
// to the collector.
func BenchmarkFlushMetadataCache(b *testing.B) {
	morph := counters.MorphSpec(true)
	m, err := New(Config{MemoryBytes: 32 << 20, Enc: morph, Tree: []counters.Spec{morph}, Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	l := make([]byte, LineBytes)
	const span = 1 << 15
	for d := uint64(0); d < span; d++ {
		if err := m.Write(d*LineBytes, l); err != nil {
			b.Fatal(err)
		}
	}
	m.FlushMetadataCache()
	var flushing time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := uint64(0); d < span; d += uint64(morph.Arity) {
			if _, err := m.Read(d * LineBytes); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		m.FlushMetadataCache()
		flushing += time.Since(start)
	}
	b.ReportMetric(float64(flushing.Nanoseconds())/float64(b.N), "flush-ns")
}
