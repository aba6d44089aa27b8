// Package obs is the live observability plane for the secure-memory
// serving stack: a metrics registry (sharded atomic counters, gauges, and
// log-linear latency histograms), a lock-light ring-buffer event tracer,
// and an HTTP admin plane serving JSON snapshots of both.
//
// The package is built for hot paths. Every instrument is nil-safe — a
// method on a nil *Counter, *Gauge, *Histogram, *Tracer, or *Registry is a
// no-op — so instrumented code carries no conditional wiring: construct the
// instruments when observability is on, leave them nil when it is off, and
// the call sites stay identical. Recording is a handful of atomic
// operations (counters and histogram buckets are striped across
// cache-line-padded cells to keep concurrent writers off each other's
// lines), and the tracer drops events rather than ever blocking a writer.
//
// The paper's evaluation (Figs. 7-13) is all event accounting — overflow
// rates, tree-walk counts, metadata-cache behavior; this package makes the
// same accounting continuously observable on a running morphserve instead
// of only at process exit.
package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numStripes is the per-instrument stripe count: enough to spread
// concurrent writers, small enough that snapshot merges stay cheap. It is
// a power of two so stripe selection is a mask.
var numStripes = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 8 {
		n <<= 1
	}
	return n
}()

// stripeToken is a goroutine-affine stripe assignment. Tokens live in a
// sync.Pool, which is per-P under the hood: a goroutine repeatedly
// recording tends to get the same token back, so its updates keep hitting
// the same stripe while goroutines on other Ps hit different ones.
type stripeToken struct{ n uint32 }

var stripeCursor atomic.Uint32

var stripePool = sync.Pool{New: func() any {
	return &stripeToken{n: stripeCursor.Add(1)}
}}

// stripe picks the calling goroutine's stripe under mask.
func stripe(mask uint32) uint32 {
	t := stripePool.Get().(*stripeToken)
	n := t.n
	stripePool.Put(t)
	return n & mask
}

// padCell is one counter stripe, padded out to its own cache line so
// concurrent writers on different stripes never false-share.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, striped atomic counter. The zero
// value is not usable; obtain counters from a Registry. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	stripes []padCell
	mask    uint32
}

func newCounter() *Counter {
	return &Counter{stripes: make([]padCell, numStripes), mask: uint32(numStripes - 1)}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.stripes[stripe(c.mask)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Concurrent adds may or may not be included; the
// result is a consistent lower bound of the eventual total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous signed value (in-flight requests, queue
// depth). All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Collector is a pull-time metrics source: invoked at every Snapshot, it
// emits (name, value) counter samples computed from state the registry
// does not own (engine stats, cache stats, admission counters). One
// collector per subsystem keeps a scrape to one stats call per subsystem.
type Collector func(emit func(name string, value uint64))

// Registry is a named collection of instruments. Get-or-create accessors
// hand out shared instruments by name, so independent subsystems recording
// under the same name merge into one stream. Registration takes a mutex;
// recording on the returned instruments is lock-free. All methods are
// safe for concurrent use; on a nil *Registry every accessor returns a nil
// (inert) instrument, so "observability off" needs no call-site branches.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = newCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a pull-time collector invoked at every Snapshot.
func (r *Registry) RegisterCollector(fn Collector) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot is a point-in-time JSON-encodable view of a registry: counter
// and gauge values plus full histogram snapshots (buckets included, so
// two snapshots can be diffed for interval quantiles).
type Snapshot struct {
	TimeUnixNano int64                   `json:"time_unix_nano"`
	Counters     map[string]uint64       `json:"counters"`
	Gauges       map[string]int64        `json:"gauges"`
	Histograms   map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every instrument and collector. Instrument pointers
// are copied under the registration mutex; values (and collectors, which
// may take subsystem locks of their own) are read outside it.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		TimeUnixNano: time.Now().UnixNano(),
		Counters:     map[string]uint64{},
		Gauges:       map[string]int64{},
		Histograms:   map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	for _, fn := range collectors {
		fn(func(name string, value uint64) { snap.Counters[name] = value })
	}
	return snap
}

// Encode marshals the snapshot as JSON (the /metricz body).
func (s Snapshot) Encode() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("obs: encode snapshot: %w", err)
	}
	return b, nil
}

// DecodeSnapshot unmarshals a /metricz body.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// FilterTenant returns a copy of the snapshot keeping only the metric
// slice owned by one tenant: every instrument named under the
// tenant.<id>. prefix (the namespace the scheduler and shard collectors
// emit per-tenant counters into). The /metricz?tenant=<id> view is built
// from this, so a tenant-scoped scrape never leaks another tenant's
// traffic counts.
func (s Snapshot) FilterTenant(id string) Snapshot {
	prefix := "tenant." + id + "."
	out := Snapshot{
		TimeUnixNano: s.TimeUnixNano,
		Counters:     map[string]uint64{},
		Gauges:       map[string]int64{},
		Histograms:   map[string]HistSnapshot{},
	}
	for k, v := range s.Counters {
		if strings.HasPrefix(k, prefix) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if strings.HasPrefix(k, prefix) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if strings.HasPrefix(k, prefix) {
			out.Histograms[k] = v
		}
	}
	return out
}

// CounterNames returns the snapshot's counter names in sorted order
// (renderers want deterministic output).
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the snapshot's histogram names in sorted order.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
