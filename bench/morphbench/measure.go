package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wire"
)

// busyRetries is how often a caller re-sends an op the server shed with
// BUSY before counting it as failed.
const busyRetries = 3

// caller is one closed loop: it owns a disjoint set of lines, keeps the
// version it last wrote to each (the shadow), and checks every read
// against it.
type caller struct {
	id, callers int
	seed        int64
	st          store
	stream      *stream
	shadow      []uint32
	scratch     [lineBytes]byte

	buf       *sampleBuf
	attempted uint64
	failed    uint64
	busy      uint64
	reads     uint64
	firstErr  error
}

func newCaller(w *workload, seed int64, span uint64, id, callers int, st store) *caller {
	return &caller{
		id: id, callers: callers, seed: seed, st: st,
		stream: newStream(w, seed, span, id, callers),
		shadow: make([]uint32, ownedLines(span, callers)),
	}
}

func (c *caller) prefill() error {
	for slot := range c.shadow {
		if _, err := c.do(true, uint64(slot)); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// do runs one op and checks its outcome: a write stores the next version
// of the line's content, a read must return the shadow's version. The
// duration is call to return, BUSY retries included.
func (c *caller) do(write bool, slot uint64) (time.Duration, error) {
	line := lineOf(slot, c.id, c.callers)
	addr := line * lineBytes
	var got []byte
	var err error
	if write {
		fillLine(c.scratch[:], c.seed, line, c.shadow[slot]+1)
	}
	start := time.Now()
	for try := 0; ; try++ {
		if write {
			err = c.st.Write(addr, c.scratch[:])
		} else {
			got, err = c.st.Read(addr)
		}
		var busy *wire.BusyError
		if !errors.As(err, &busy) {
			break
		}
		c.busy++
		if try == busyRetries {
			break
		}
	}
	d := time.Since(start)
	switch {
	case err != nil:
		return d, fmt.Errorf("line %d: %w", line, err)
	case write:
		c.shadow[slot]++
	default:
		fillLine(c.scratch[:], c.seed, line, c.shadow[slot])
		if !bytes.Equal(got, c.scratch[:]) {
			return d, fmt.Errorf("line %d: read does not match version %d of the shadow", line, c.shadow[slot])
		}
	}
	return d, nil
}

// fail counts a failed op and keeps the first cause.
func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// loop issues ops until end. Ops that complete in [winStart, end) are the
// measured ones; earlier ones are warm-up.
func (c *caller) loop(ctx context.Context, t *target, winStart, end time.Time) {
	for ctx.Err() == nil {
		write, slot := c.stream.next()
		d, err := c.do(write, slot)
		now := time.Now()
		if !now.Before(end) {
			return
		}
		switch {
		case err != nil:
			// A failure counts wherever it happens, warm-up included.
			c.attempted++
			c.fail(err)
		case !now.Before(winStart):
			c.attempted++
			c.buf.record(int(now.Sub(winStart)/time.Second), makeSample(d, write))
		}
		if !write && c.id == 0 && t.w.flushEvery > 0 {
			if c.reads++; c.reads%uint64(t.w.flushEvery) == 0 {
				flushShards(t.sh) // in-process targets only: the wire has no such op
			}
		}
	}
}

// snapshot is what the bench reads from outside the program under test at
// a window boundary.
type snapshot struct {
	selfCPU  float64
	childCPU float64
	stats    secmem.Stats
	disk     dirUsage
}

func (t *target) snapshot() (snapshot, error) {
	s := snapshot{selfCPU: selfCPU()}
	var err error
	if t.child != nil {
		if s.childCPU, err = procCPU(t.child.pid()); err != nil {
			return s, err
		}
	}
	if t.dataDir != "" {
		s.disk = readDirUsage(t.dataDir)
	}
	s.stats, err = t.stats()
	return s, err
}

// window is the outcome of one measured window.
type window struct {
	seconds   float64
	ops       uint64 // completed and verified
	attempted uint64
	failed    uint64
	busy      uint64
	firstErr  error
	lat       [2]latencySummary // read, write
	before    snapshot
	after     snapshot
	peakRSS   float64 // MiB
	dropped   uint64
}

// samplesPerSecond caps a caller's latency buffer. Serving callers are
// bound by round trips; in-process ones by the engine.
func samplesPerSecond(w *workload) int {
	if w.serve {
		return 40_000
	}
	return 600_000
}

// measure runs the callers for warmup then for the measured window,
// snapshots the outside-visible counters at both window edges, and
// re-verifies the whole store afterwards.
func measure(ctx context.Context, t *target, warmup, length time.Duration) (*window, error) {
	windows := int((length + time.Second - 1) / time.Second)
	var bufBytes int
	for _, c := range t.callers {
		buf, err := newSampleBuf(int(length.Seconds()*float64(samplesPerSecond(t.w)))+1, windows)
		if err != nil {
			return nil, err
		}
		defer buf.release()
		c.buf = buf
		bufBytes += buf.bytes()
	}
	runtime.GC()

	winStart := time.Now().Add(warmup)
	end := winStart.Add(length)
	var wg sync.WaitGroup
	for _, c := range t.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, t, winStart, end)
		}()
	}
	win := &window{}
	select {
	case <-time.After(time.Until(winStart)):
	case <-ctx.Done():
	}
	var err error
	win.before, err = t.snapshot()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("snapshot at window start: %w", err)
	}
	if win.after, err = t.snapshot(); err != nil {
		return nil, fmt.Errorf("snapshot at window end: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The store's resident set: the child's, or this process's less the
	// sample buffers (fully resident by construction, and the bench's own).
	if t.child != nil {
		win.peakRSS, err = procHWM(t.child.pid())
	} else {
		win.peakRSS, err = procHWM("self")
		win.peakRSS -= float64(bufBytes) / (1 << 20)
	}
	if err != nil {
		return nil, err
	}

	win.seconds = length.Seconds()
	bufs := make([]*sampleBuf, len(t.callers))
	for i, c := range t.callers {
		bufs[i] = c.buf
		win.attempted += c.attempted
		win.failed += c.failed
		win.busy += c.busy
		win.dropped += c.buf.dropped
		if win.firstErr == nil {
			win.firstErr = c.firstErr
		}
	}
	win.ops = win.attempted - win.failed
	win.lat = summarize(bufs, windows)

	if err := t.verify(); err != nil {
		win.failed++
		if win.firstErr == nil {
			win.firstErr = fmt.Errorf("verify after the window: %w", err)
		}
	}
	if win.firstErr != nil {
		fmt.Fprintf(os.Stderr, "morphbench: %s: first failure: %v\n", t.w.name, win.firstErr)
	}
	return win, nil
}
