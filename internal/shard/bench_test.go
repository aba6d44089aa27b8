package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/securemem/morphtree/internal/oracle"
)

// BenchmarkShardScaling measures aggregate write throughput under parallel
// clients as the shard count grows. With one shard every client serializes
// on the single engine mutex; with N shards, lines interleaved across
// engines proceed concurrently, so on a multi-core runner aggregate
// ops/sec should rise with N — the scaling claim behind the serving layer.
func BenchmarkShardScaling(b *testing.B) {
	const memBytes = 1 << 22
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/write", n), func(b *testing.B) {
			s := mustNew(b, testConfig(b, n, memBytes, "morph128"))
			const lines = uint64(memBytes / LineBytes)
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				line := oracle.Fill(0, 1)
				for pb.Next() {
					i := next.Add(1)
					addr := (i % lines) * LineBytes
					if err := s.Write(addr, line); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(s.Stats().Writes)/b.Elapsed().Seconds(), "writes/s")
		})
		b.Run(fmt.Sprintf("shards=%d/read", n), func(b *testing.B) {
			s := mustNew(b, testConfig(b, n, memBytes, "morph128"))
			const warm = 1 << 10
			for i := uint64(0); i < warm; i++ {
				if err := s.Write(i*LineBytes, oracle.Fill(i, 1)); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					addr := (i % warm) * LineBytes
					if _, err := s.Read(addr); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

type prefillLayout struct {
	name    string
	callers uint64
	owns    func(c, d uint64) bool // caller c writes line d
}

// prefillLayouts deal the prefill's lines to its callers three ways: all to
// one caller; to two, each owning every other pair of lines, so both
// alternate between the two shards (the benchmark's callers); to two, each
// owning one shard's lines.
var prefillLayouts = []prefillLayout{
	{"one_caller", 1, func(c, d uint64) bool { return true }},
	{"alternating", 2, func(c, d uint64) bool { return d/2%2 == c }},
	{"shard_disjoint", 2, func(c, d uint64) bool { return d%2 == c }},
}

// BenchmarkPrefillLayout is the morphbench set-up phase as a go-test row,
// under each layout: 32 768 first writes into a fresh two-shard 64 MiB store.
// What it times is the store growing — a chunk per 64 lines per shard — on
// top of the one MAC and one pad a write costs anyway. alternating is the
// benchmark's own layout (BenchmarkPrefill before it had the other two). On
// a 2-vCPU VM two alternating callers finish no sooner than one, and two
// that never share a shard take two thirds of the time: the callers meet on
// the shard locks (EXPERIMENTS.md, "What setup_s is made of").
func BenchmarkPrefillLayout(b *testing.B) {
	for _, l := range prefillLayouts {
		b.Run(l.name, func(b *testing.B) { benchPrefill(b, l) })
	}
}

func benchPrefill(b *testing.B, layout prefillLayout) {
	const span, shards = 1 << 15, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mustNew(b, testConfig(b, shards, 64<<20, "morph128"))
		b.StartTimer()
		var wg sync.WaitGroup
		for c := uint64(0); c < layout.callers; c++ {
			wg.Add(1)
			go func(c uint64) {
				defer wg.Done()
				line := oracle.Fill(c, 1)
				for d := uint64(0); d < span; d++ {
					if !layout.owns(c, d) {
						continue
					}
					if err := s.Write(d*LineBytes, line); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkProve is one proof of a line on 1 and 4 shards: on a clean store,
// and after 1 and 2 048 writes spread over the shards, whose dirty counter
// blocks the proof first writes back (each iteration's writes are outside
// the timer). It is the parent row of a proof that settles only its path.
func BenchmarkProve(b *testing.B) {
	const memBytes, written = 1 << 22, 2048
	for _, shards := range []int{1, 4} {
		for _, writes := range []uint64{0, 1, written} {
			b.Run(fmt.Sprintf("shards=%d/writes=%d", shards, writes), func(b *testing.B) {
				s := mustNew(b, testConfig(b, shards, memBytes, "morph128"))
				for d := uint64(0); d < written; d++ {
					if err := s.Write(d*LineBytes, oracle.Fill(d, 1)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Prove(0); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for d := uint64(0); d < writes; d++ {
						if err := s.Write(d*LineBytes, oracle.Fill(d, uint64(i)+2)); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if _, err := s.Prove(uint64(i) % written * LineBytes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
