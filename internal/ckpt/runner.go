package ckpt

import (
	"sync"
	"time"
)

// Target is what the background checkpointer drives — durable.Memory or a
// cluster.Node in production, fakes in tests.
type Target interface {
	// CheckpointDelta cuts an incremental checkpoint of the dirty lines.
	CheckpointDelta() error
	// Checkpoint cuts a full snapshot (compacting the delta chain).
	Checkpoint() error
	// DeltaChainLen reports how many deltas sit atop the current base
	// snapshot.
	DeltaChainLen() int
}

// Runner owns the durable layer's background work, in one goroutine: it cuts
// a delta checkpoint every deltaEvery, compacting the chain into a full
// snapshot once it grows past maxChain, and a full snapshot every
// snapshotEvery regardless — bounding recovery work (base + short chain +
// WAL tail) and disk amplification. A delta cut stalls no writer; all file
// I/O happens outside the engine locks (see durable.CheckpointDelta).
//
// Whoever owns the store brackets the Runner's life: start it once the
// target's checkpoint hook is registered (durable.Memory.OnCheckpoint is set
// before concurrent use) and Stop it before the final checkpoint and Close.
type Runner struct {
	t        Target
	maxChain int
	onErr    func(error)

	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewRunner starts the background checkpointer. A cadence of zero turns that
// kind of checkpoint off; maxChain is the compaction threshold (values < 1
// default to 8). onErr, when non-nil, receives checkpoint failures (the
// runner keeps going — a transient disk error must not end checkpointing
// forever, and the WAL still holds every acknowledged write).
func NewRunner(t Target, deltaEvery, snapshotEvery time.Duration, maxChain int, onErr func(error)) *Runner {
	if maxChain < 1 {
		maxChain = 8
	}
	r := &Runner{t: t, maxChain: maxChain, onErr: onErr, stopc: make(chan struct{})}
	r.wg.Add(1)
	go r.loop(deltaEvery, snapshotEvery)
	return r
}

// every returns a ticker's channel and its stop; a cadence that is off gets
// a nil channel, which a select never chooses.
func every(d time.Duration) (<-chan time.Time, func()) {
	if d <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(d)
	return t.C, t.Stop
}

func (r *Runner) loop(deltaEvery, snapshotEvery time.Duration) {
	defer r.wg.Done()
	delta, stopDelta := every(deltaEvery)
	defer stopDelta()
	snapshot, stopSnapshot := every(snapshotEvery)
	defer stopSnapshot()
	for {
		full := false
		select {
		case <-r.stopc:
			return
		case <-snapshot:
			full = true
		case <-delta:
			full = r.t.DeltaChainLen() >= r.maxChain
		}
		var err error
		if full {
			err = r.t.Checkpoint()
		} else {
			err = r.t.CheckpointDelta()
		}
		if err != nil && r.onErr != nil {
			r.onErr(err)
		}
	}
}

// Stop halts the runner and waits for any in-flight checkpoint to finish.
func (r *Runner) Stop() {
	select {
	case <-r.stopc:
	default:
		close(r.stopc)
	}
	r.wg.Wait()
}
