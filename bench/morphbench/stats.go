package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// sample packs one op's latency: nanoseconds in the low 31 bits (clamped,
// 2.1 s), the write flag in the top bit.
type sample uint32

const (
	sampleWriteBit = 1 << 31
	sampleMaxNS    = sampleWriteBit - 1
)

func makeSample(d time.Duration, write bool) sample {
	ns := uint64(max(d, 0))
	if ns > sampleMaxNS {
		ns = sampleMaxNS
	}
	if write {
		ns |= sampleWriteBit
	}
	return sample(ns)
}

func (s sample) write() bool { return s&sampleWriteBit != 0 }
func (s sample) ns() uint32  { return uint32(s) &^ sampleWriteBit }

// sampleBuf is one caller's latency record for a measured window. Its
// memory is mapped outside the Go heap and touched up front: recording
// never allocates, the garbage collector's pacing sees only the store
// under test, and the buffer's share of the process's resident set is a
// known constant that can be subtracted.
type sampleBuf struct {
	s []sample
	// cuts[w] is len(s) when 1-second window w ended; samples arrive in
	// time order, so window w is s[cuts[w-1]:cuts[w]].
	cuts    []int
	dropped uint64
	mem     []byte
}

const sampleBytes = int(unsafe.Sizeof(sample(0)))

func newSampleBuf(capacity, windows int) (*sampleBuf, error) {
	mem, err := syscall.Mmap(-1, 0, max(capacity, 1)*sampleBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d latency samples: %w", capacity, err)
	}
	for i := 0; i < len(mem); i += os.Getpagesize() {
		mem[i] = 1 // fault the page in now, not inside the window
	}
	s := unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), capacity)
	return &sampleBuf{s: s[:0], cuts: make([]int, 0, windows), mem: mem}, nil
}

func (b *sampleBuf) bytes() int { return len(b.mem) }

// release unmaps the buffer; its samples must not be used afterwards.
func (b *sampleBuf) release() {
	_ = syscall.Munmap(b.mem) // nothing to do about a failed unmap
	b.s, b.mem = nil, nil
}

// record stores a sample that completed in window w (windows only advance).
func (b *sampleBuf) record(w int, v sample) {
	for len(b.cuts) < w {
		b.cuts = append(b.cuts, len(b.s))
	}
	if len(b.s) == cap(b.s) {
		b.dropped++
		return
	}
	b.s = append(b.s, v)
}

// cut is where window w ended (the end of the buffer while it is open).
func (b *sampleBuf) cut(w int) int {
	if w < len(b.cuts) {
		return b.cuts[w]
	}
	return len(b.s)
}

// window returns the samples of window w.
func (b *sampleBuf) window(w int) []sample {
	if w == 0 {
		return b.s[:b.cut(0)]
	}
	return b.s[b.cut(w-1):b.cut(w)]
}

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return float64(sorted[min(max(i, 0), n-1)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// latencySummary is one op type's latency figures over a measured window.
type latencySummary struct {
	count  int
	p50    float64 // ns, over every sample of the window
	p99    float64 // ns, median over 1-second slices of that slice's p99
	minWin int     // fewest samples any slice held
}

// summarize computes the read (index 0) and write (index 1) summaries over
// the callers' buffers and the given number of 1-second slices.
func summarize(bufs []*sampleBuf, windows int) [2]latencySummary {
	var all [2][]uint32
	var p99s [2][]float64
	var out [2]latencySummary
	out[0].minWin, out[1].minWin = -1, -1
	var win [2][]uint32
	for w := 0; w < windows; w++ {
		win[0], win[1] = win[0][:0], win[1][:0]
		for _, b := range bufs {
			for _, v := range b.window(w) {
				k := 0
				if v.write() {
					k = 1
				}
				win[k] = append(win[k], v.ns())
			}
		}
		for k := range win {
			slices.Sort(win[k])
			if len(win[k]) > 0 {
				p99s[k] = append(p99s[k], quantile(win[k], 0.99))
			}
			if out[k].minWin < 0 || len(win[k]) < out[k].minWin {
				out[k].minWin = len(win[k])
			}
			all[k] = append(all[k], win[k]...)
		}
	}
	for k := range all {
		slices.Sort(all[k])
		out[k].count = len(all[k])
		out[k].p50 = quantile(all[k], 0.5)
		out[k].p99 = median(p99s[k])
	}
	return out
}

// spanRec is one recorded span: nanoseconds since the trace began.
type spanRec struct {
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of it its child covers.
func selfTime(parent, child spanRec) int64 {
	lo, hi := max(child.Start, parent.Start), min(child.End, parent.End)
	return parent.dur() - max(hi-lo, 0)
}

func medianNS(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[(len(s)-1)/2])
}
