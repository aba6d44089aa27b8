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

// BenchmarkPrefill is the morphbench set-up phase as a go-test row: 32 768
// first writes into a fresh two-shard 64 MiB store from two goroutines, each
// owning every other pair of lines as the benchmark's callers do. What it
// times is the store growing — a chunk per 64 lines per shard — on top of the
// one MAC and one pad a write costs anyway.
func BenchmarkPrefill(b *testing.B) {
	const span, callers, shards = 1 << 15, 2, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mustNew(b, testConfig(b, shards, 64<<20, "morph128"))
		b.StartTimer()
		var wg sync.WaitGroup
		for c := uint64(0); c < callers; c++ {
			wg.Add(1)
			go func(c uint64) {
				defer wg.Done()
				line := oracle.Fill(c, 1)
				for d := uint64(0); d < span; d++ {
					if d/shards%callers != c {
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
