package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/securemem/morphtree/internal/secmem"
)

// Common geometry of every workload. The store protects 64 MiB in two
// shards; the workloads touch a 2 MiB span of it (32 768 lines), fully
// prefilled during set-up so no read takes the never-written fast path.
// The span is an eighth of what the issue sketched: set-up runs three
// times per measured run and prefill over the wire is the slow part.
const (
	lineBytes   = secmem.LineBytes
	orgName     = "morph128"
	numShards   = 2
	memoryBytes = 64 << 20
	spanLines   = 1 << 15
	smokeLines  = 1 << 12
)

// masterKey is the fixed demo key morphserve uses when -key is absent; the
// in-process stores use the same one so both kinds of target do the same
// cryptographic work.
var masterKey = []byte("0123456789abcdef")

type distribution int

const (
	uniform distribution = iota
	// zipfian draws a rank from Zipf(s=1.1, v=8) and scatters it over
	// the caller's lines with a fixed odd multiplier, so the hot lines
	// are not neighbours in one counter block.
	zipfian
)

const (
	zipfS       = 1.1
	zipfV       = 8
	scatterMult = 0x9E3779B1 // odd, so rank*mult mod 2^k is a permutation
)

// workload is one traffic mix against one kind of target.
type workload struct {
	name string
	why  string
	// serve targets a child morphserve over TCP loopback; otherwise the
	// callers drive an in-process shard.Sharded.
	serve bool
	// durable starts the child with a data directory (WAL at the interval
	// flush policy plus background delta checkpoints).
	durable bool
	// callers is the number of closed loops: goroutines, each with its own
	// wire.Client connection on serving workloads. (Callers sharing a
	// connection, as the issue sketched, contend on its mutex so chaotically
	// on two cores that ops_s spread by a fifth between runs.)
	callers  int
	writePct int
	dist     distribution
	// flushEvery makes caller 0 drop every shard's metadata cache after
	// this many of its own reads, standing in for the bounded metadata
	// cache the functional engine lacks. 0 never flushes. 1024 on the
	// 32 768-line span keeps the cold share the issue's 8192 had on a span
	// eight times larger: up to an eighth of the reads fetch a cold line.
	flushEvery int
}

// deltaEvery is the child's background delta-checkpoint cadence on the
// durable workload: at least three cuts land inside a 15 s window.
const deltaEvery = "4s"

var workloads = []workload{
	{
		name:  "serve_read",
		why:   "95/5 uniform over TCP from 4 callers, one connection each: wire, server and socket do most of the work; WAL and overflow machinery are bypassed",
		serve: true, callers: 4, writePct: 5, dist: uniform,
	},
	{
		name:  "serve_durable_mixed",
		why:   "50/50 uniform over TCP against a durable child (fsync interval, delta checkpoints): the serving path plus wal, durable and background ckpt",
		serve: true, durable: true, callers: 4, writePct: 50, dist: uniform,
	},
	{
		name:    "embed_write_churn",
		why:     "90/10 Zipf writes in-process from 2 goroutines: counters, the secmem write path and overflow re-encryption do all the work; wire, server and wal do none",
		callers: 2, writePct: 90, dist: zipfian,
	},
	{
		name:    "embed_read_verify",
		why:     "98/2 uniform reads in-process with periodic metadata-cache flushes: warm reads plus cold tree walks and MAC checks; bump and overflow are almost idle",
		callers: 2, writePct: 2, dist: uniform, flushEvery: 1024,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ownedLines is how many lines of a span each of callers owns.
func ownedLines(span uint64, callers int) uint64 {
	return span / uint64(callers)
}

// lineOf maps a caller's slot to the global line it owns. Caller c owns
// line d iff (d / numShards) mod callers == c: no two callers share a line,
// so each caller's shadow is exact, and every caller touches every shard,
// so shard-lock contention is real.
func lineOf(slot uint64, caller, callers int) uint64 {
	q, s := slot/numShards, slot%numShards
	return (q*uint64(callers)+uint64(caller))*numShards + s
}

// stream is one caller's seeded op sequence. The program under test sees
// only the ops it yields.
type stream struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	writePct int
	owned    uint64
}

func newStream(w *workload, seed int64, span uint64, caller, callers int) *stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", w.name, seed, caller, callers)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	s := &stream{rng: rng, writePct: w.writePct, owned: ownedLines(span, callers)}
	if w.dist == zipfian {
		s.zipf = rand.NewZipf(rng, zipfS, zipfV, s.owned-1)
	}
	return s
}

// next yields the next op: its kind and the slot (index into the caller's
// owned lines) it targets.
func (s *stream) next() (write bool, slot uint64) {
	write = s.rng.Intn(100) < s.writePct
	if s.zipf != nil {
		return write, (s.zipf.Uint64() * scatterMult) % s.owned
	}
	return write, uint64(s.rng.Int63n(int64(s.owned)))
}

// op is one recorded stream element, for the fixed-count traced run and the
// ladder, which replay the same ops through several stacks.
type op struct {
	write bool
	slot  uint64
}

func (s *stream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].write, ops[i].slot = s.next()
	}
	return ops
}

// fillLine writes the content of (seed, line, version) into dst: a
// splitmix64 sequence, so any stale, misplaced or corrupted line differs
// from what the shadow expects.
func fillLine(dst []byte, seed int64, line uint64, version uint32) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ line*0xBF58476D1CE4E5B9 ^ uint64(version)*0x94D049BB133111EB
	for i := 0; i < lineBytes; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(dst[i:], z^(z>>31))
	}
}
