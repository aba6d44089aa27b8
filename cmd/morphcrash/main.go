// Command morphcrash is the durability layer's crash-injection harness. It
// builds a reference store under a seeded write workload, then — for a
// matrix of crash points — clones the data directory, performs the file
// surgery a kernel panic at that instant would leave behind, and recovers
// the clone, asserting the result byte-for-byte against a shadow model:
//
//   - append:   the WAL tail is cut at a random byte offset; exactly the
//     whole frames before the cut must survive, in order, and the recovery
//     must report a torn tail rather than an integrity violation.
//   - snapshot: the crash lands mid-checkpoint — next-epoch segments exist
//     and at most a partial snapshot temp file; recovery must fall back to
//     the previous epoch with nothing lost and sweep the stale files.
//   - truncate: the crash lands after the snapshot rename but before the
//     old epoch's files are unlinked; recovery must prefer the new epoch,
//     keep the full state, and finish the sweep.
//   - delta: the crash lands mid-delta-checkpoint — a partial (or empty)
//     delta temp file sits beside a committed chain; recovery must use the
//     chain head, replay only the post-delta tail, and sweep the temp.
//   - compact: the crash lands mid-compaction, either before the full
//     snapshot renamed (stale next-epoch segments + partial temp beside a
//     live delta chain) or after (the old chain's files resurrected beside
//     the committed epoch); recovery must pick the right head both times.
//
// Three tampering probes ride along: a flipped snapshot byte, a flipped
// delta-segment byte, and a flipped WAL payload byte with a recomputed CRC
// (an adversary, not a crash) must all surface as integrity errors at
// recovery, never as silent repairs.
//
// Two gates complete the matrix: a recovery-time curve at two state
// sizes proving delta-chain recovery replays O(dirty tail) writes — not
// O(total history) — and is no slower than full replay at a small dirty
// fraction (the speed-up is reported), and a write-latency comparison
// proving the background delta checkpointer adds no group-commit stall (p99
// within 1.5x of the checkpoint-free run, or under an absolute no-stall
// floor).
//
// Exit status is non-zero if any crash point recovers wrong, any tamper
// probe goes undetected, or either checkpoint gate fails; -out also writes
// every result as JSON. morphcrash gates, it does not measure: what a durable
// write costs is bench/morphbench's to say (durable.write_ns, wal.append_ns).
//
// Usage:
//
//	morphcrash -points 24 -writes 600 -shards 4 -mem 262144 -seed 1 -out durable.json
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

var demoKey = []byte("0123456789abcdef")

// shadowWrite is one acknowledged write in engine apply order, which the
// WAL-before-apply lock discipline guarantees is also WAL record order.
type shadowWrite struct {
	addr uint64
	line []byte
}

// trialResult is one crash point's outcome in the JSON report.
type trialResult struct {
	Stage     string `json:"stage"`
	Detail    string `json:"detail"`
	Recovered int    `json:"recovered_writes"`
	Expected  int    `json:"expected_writes"`
	TornTails int    `json:"torn_tails"`
	Pass      bool   `json:"pass"`
	Err       string `json:"error,omitempty"`
}

type tamperResult struct {
	Target   string `json:"target"`
	Detected bool   `json:"detected"`
	Err      string `json:"recovery_error"`
}

// curvePoint is one state size on the recovery-time curve: the same
// workload recovered twice, once from a full WAL replay and once from a
// delta chain whose tail holds only the post-checkpoint dirty writes.
type curvePoint struct {
	MemBytes      uint64  `json:"mem_bytes"`
	Lines         int     `json:"lines"`
	BulkWrites    int     `json:"bulk_writes"`
	TailWrites    int     `json:"tail_writes"`
	FullReplayed  int     `json:"full_replayed_writes"`
	FullMillis    float64 `json:"full_replay_ms"`
	DeltaReplayed int     `json:"delta_replayed_writes"`
	DeltaMillis   float64 `json:"delta_recovery_ms"`
	Speedup       float64 `json:"speedup"`
	Pass          bool    `json:"pass"`
	Err           string  `json:"error,omitempty"`
}

// stallResult compares write p99 latency with and without the background
// delta checkpointer running — the stall-free claim, measured.
type stallResult struct {
	Writes    int     `json:"writes"`
	P99BaseUS float64 `json:"p99_no_ckpt_us"`
	P99CkptUS float64 `json:"p99_with_ckpt_us"`
	Deltas    uint64  `json:"deltas_cut"`
	Ratio     float64 `json:"ratio"`
	Pass      bool    `json:"pass"`
	Err       string  `json:"error,omitempty"`
}

type report struct {
	Config struct {
		Org    string `json:"org"`
		Shards int    `json:"shards"`
		Mem    uint64 `json:"mem_bytes"`
		Writes int    `json:"writes"`
		Points int    `json:"points"`
		Seed   int64  `json:"seed"`
	} `json:"config"`
	Crash    []trialResult  `json:"crash_matrix"`
	Tamper   []tamperResult `json:"tamper_probes"`
	Curve    []curvePoint   `json:"recovery_curve"`
	Stall    stallResult    `json:"ckpt_stall"`
	Recovery struct {
		Records int     `json:"replayed_records"`
		Writes  int     `json:"replayed_writes"`
		Millis  float64 `json:"elapsed_ms"`
	} `json:"full_replay_recovery"`
	Pass bool `json:"pass"`
}

func main() {
	points := flag.Int("points", 24, "total crash points across the three stages")
	writes := flag.Int("writes", 600, "workload size in acknowledged writes")
	shards := flag.Int("shards", 4, "shard count")
	mem := flag.Uint64("mem", 256<<10, "protected capacity in bytes")
	org := flag.String("org", "morph128", "counter organization")
	seed := flag.Int64("seed", 1, "workload and crash-point seed")
	out := flag.String("out", "", "JSON report path (empty = no report, only the exit status)")
	flag.Parse()

	if err := run(*points, *writes, *shards, *mem, *org, *seed, *out); err != nil {
		log.Fatalf("morphcrash: %v", err)
	}
}

func shardConfig(org string, shards int, mem uint64) (shard.Config, error) {
	enc, tree, err := shard.Organization(org)
	if err != nil {
		return shard.Config{}, err
	}
	return shard.Config{
		Shards: shards,
		Mem: secmem.Config{
			MemoryBytes: mem,
			Enc:         enc,
			Tree:        tree,
			Key:         demoKey,
		},
	}, nil
}

func run(points, writes, shards int, mem uint64, org string, seed int64, out string) error {
	shcfg, err := shardConfig(org, shards, mem)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "morphcrash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var rep report
	rep.Config.Org = org
	rep.Config.Shards = shards
	rep.Config.Mem = mem
	rep.Config.Writes = writes
	rep.Config.Points = points
	rep.Config.Seed = seed

	// ---- Reference run: seeded workload against a durable store. ----
	// NoAudit keeps every WAL frame at the fixed write size, which makes
	// the expected surviving-record count at a cut offset pure arithmetic
	// rather than a re-parse of the file under test.
	master := filepath.Join(work, "master")
	dm, _, err := durable.Open(shcfg, durable.Config{Dir: master, Sync: durable.SyncAlways, NoAudit: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	nlines := mem / durable.LineBytes
	journal := make([][]shadowWrite, shards) // per-shard, apply order
	for i := 0; i < writes; i++ {
		addr := (rng.Uint64() % nlines) * durable.LineBytes
		line := make([]byte, durable.LineBytes)
		binary.LittleEndian.PutUint64(line, rng.Uint64())
		binary.LittleEndian.PutUint64(line[8:], uint64(i))
		if err := dm.Write(addr, line); err != nil {
			return fmt.Errorf("workload write %d: %w", i, err)
		}
		si, _, err := dm.Sharded().Locate(addr)
		if err != nil {
			return err
		}
		journal[si] = append(journal[si], shadowWrite{addr, line})
	}
	if err := dm.Close(); err != nil {
		return err
	}

	// ---- Crash matrix. ----
	// Half the points cut the WAL tail; the rest split between the four
	// checkpoint-crash windows (full-snapshot rename, stale-epoch sweep,
	// mid-delta-write, mid-compaction).
	nAppend := points / 2
	rest := points - nAppend
	nSnap := rest / 4
	nTrunc := rest / 4
	nDelta := rest / 4
	nCompact := rest - nSnap - nTrunc - nDelta
	allPass := true

	for i := 0; i < nAppend; i++ {
		res := trialAppend(shcfg, work, master, journal, rng, i)
		allPass = allPass && res.Pass
		rep.Crash = append(rep.Crash, res)
	}
	for i := 0; i < nSnap; i++ {
		res := trialSnapshot(shcfg, work, master, journal, rng, i)
		allPass = allPass && res.Pass
		rep.Crash = append(rep.Crash, res)
	}
	for i := 0; i < nTrunc; i++ {
		res := trialTruncate(shcfg, work, master, journal, rng, i)
		allPass = allPass && res.Pass
		rep.Crash = append(rep.Crash, res)
	}
	for i := 0; i < nDelta; i++ {
		res := trialDelta(shcfg, work, master, journal, rng, i)
		allPass = allPass && res.Pass
		rep.Crash = append(rep.Crash, res)
	}
	for i := 0; i < nCompact; i++ {
		res := trialCompact(shcfg, work, master, journal, rng, i)
		allPass = allPass && res.Pass
		rep.Crash = append(rep.Crash, res)
	}

	// ---- Tamper probes: adversarial edits must NOT recover silently. ----
	for _, tr := range []tamperResult{
		probeTamperWAL(shcfg, work, master, rng),
		probeTamperSnapshot(shcfg, work, master),
		probeTamperDelta(shcfg, work, master, journal, rng),
	} {
		allPass = allPass && tr.Detected
		rep.Tamper = append(rep.Tamper, tr)
	}

	// ---- Full-replay recovery cost (the Anubis-style bound: work is ----
	// proportional to WAL length since the last checkpoint).
	{
		dir := filepath.Join(work, "recover-all")
		if err := cloneDir(master, dir); err != nil {
			return err
		}
		m2, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
		if err != nil {
			return fmt.Errorf("full-replay recovery: %w", err)
		}
		rep.Recovery.Records = info.ReplayedRecords
		rep.Recovery.Writes = info.ReplayedWrites
		rep.Recovery.Millis = float64(info.Elapsed.Microseconds()) / 1000
		if err := m2.Close(); err != nil {
			return err
		}
	}

	// ---- Recovery-time curve: delta chains must make recovery cost ----
	// track the dirty tail, not the total write history.
	curve, err := recoveryCurve(org, shards, seed, work)
	if err != nil {
		return err
	}
	for _, cp := range curve {
		allPass = allPass && cp.Pass
	}
	rep.Curve = curve

	// ---- Stall gate: the background checkpointer must not show up in ----
	// write tail latency.
	rep.Stall = benchStall(shcfg, work, seed)
	allPass = allPass && rep.Stall.Pass

	rep.Pass = allPass
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	switch {
	case out != "":
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	case !allPass:
		// No report was asked for, but a failing run says which point failed.
		fmt.Fprintf(os.Stderr, "%s\n", data)
	}
	fmt.Printf("morphcrash: %d crash points + %d tamper probes + %d curve points (stall ratio %.2f), pass=%v\n",
		len(rep.Crash), len(rep.Tamper), len(rep.Curve), rep.Stall.Ratio, rep.Pass)
	if !allPass {
		return fmt.Errorf("crash matrix failed")
	}
	return nil
}

// expectState replays per-shard journal prefixes into the final expected
// line contents: keep[s] records survive for shard s.
func expectState(journal [][]shadowWrite, keep []int) map[uint64][]byte {
	want := make(map[uint64][]byte)
	for s, js := range journal {
		for i := 0; i < keep[s]; i++ {
			want[js[i].addr] = js[i].line
		}
	}
	return want
}

// checkState reads every address either journal mentions and compares it
// with the shadow model (addresses whose surviving prefix never wrote them
// must read as never-written zeros).
func checkState(m *durable.Memory, journal [][]shadowWrite, want map[uint64][]byte) error {
	zeros := make([]byte, durable.LineBytes)
	seen := make(map[uint64]bool)
	for _, js := range journal {
		for _, w := range js {
			if seen[w.addr] {
				continue
			}
			seen[w.addr] = true
			got, err := m.Read(w.addr)
			if err != nil {
				return fmt.Errorf("read %#x: %w", w.addr, err)
			}
			exp, ok := want[w.addr]
			if !ok {
				exp = zeros
			}
			if string(got) != string(exp) {
				return fmt.Errorf("addr %#x diverged from shadow model", w.addr)
			}
		}
	}
	return m.VerifyAll()
}

func failTrial(stage, detail string, err error) trialResult {
	return trialResult{Stage: stage, Detail: detail, Pass: false, Err: err.Error()}
}

// trialAppend kills the store mid-WAL-append: the victim shard's segment
// is truncated at a random byte offset.
func trialAppend(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand, i int) trialResult {
	const stage = "append"
	dir := filepath.Join(work, fmt.Sprintf("append-%03d", i))
	if err := cloneDir(master, dir); err != nil {
		return failTrial(stage, "", err)
	}
	victim := rng.Intn(len(journal))
	seg := durable.SegmentPath(dir, 1, victim)
	st, err := os.Stat(seg)
	if err != nil {
		return failTrial(stage, "", err)
	}
	cut := rng.Int63n(st.Size() + 1)
	detail := fmt.Sprintf("shard %d cut at byte %d/%d", victim, cut, st.Size())
	if err := os.Truncate(seg, cut); err != nil {
		return failTrial(stage, detail, err)
	}

	// Fixed-size frames (NoAudit) make the survivor count arithmetic.
	keep := make([]int, len(journal))
	for s := range journal {
		keep[s] = len(journal[s])
	}
	keep[victim] = int(cut / wal.WriteFrameBytes)
	wantTorn := cut%wal.WriteFrameBytes != 0

	m, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		return failTrial(stage, detail, fmt.Errorf("recovery refused a pure crash artifact: %w", err))
	}
	defer func() { _ = m.Close() }() //morphlint:allow errdiscard trial teardown
	res := trialResult{
		Stage:     stage,
		Detail:    detail,
		Recovered: info.ReplayedWrites,
		Expected:  sum(keep),
		TornTails: info.TornTailCount(),
	}
	if info.ReplayedWrites != res.Expected {
		res.Err = fmt.Sprintf("replayed %d writes, want %d", info.ReplayedWrites, res.Expected)
		return res
	}
	if wantTorn != (info.TornTailCount() == 1) {
		res.Err = fmt.Sprintf("torn tails = %d, want torn=%v", info.TornTailCount(), wantTorn)
		return res
	}
	if err := checkState(m, journal, expectState(journal, keep)); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Pass = true
	return res
}

// trialSnapshot kills the store mid-checkpoint, in the window where the
// next epoch's WAL segments exist but its snapshot has not renamed into
// place. Even-numbered points also leave a partial snapshot temp file.
func trialSnapshot(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand, i int) trialResult {
	const stage = "snapshot"
	dir := filepath.Join(work, fmt.Sprintf("snapshot-%03d", i))
	if err := cloneDir(master, dir); err != nil {
		return failTrial(stage, "", err)
	}
	for s := range journal {
		if err := os.WriteFile(durable.SegmentPath(dir, 2, s), nil, 0o644); err != nil {
			return failTrial(stage, "", err)
		}
	}
	detail := "stale epoch-2 segments"
	if i%2 == 0 {
		junk := make([]byte, rng.Intn(4096))
		rng.Read(junk)
		if err := os.WriteFile(durable.SnapshotPath(dir, 2)+".tmp", junk, 0o644); err != nil {
			return failTrial(stage, detail, err)
		}
		detail += fmt.Sprintf(" + %d-byte partial snapshot temp", len(junk))
	}

	keep := make([]int, len(journal))
	for s := range journal {
		keep[s] = len(journal[s])
	}
	m, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		return failTrial(stage, detail, fmt.Errorf("recovery refused a pure crash artifact: %w", err))
	}
	defer func() { _ = m.Close() }() //morphlint:allow errdiscard trial teardown
	res := trialResult{Stage: stage, Detail: detail, Recovered: info.ReplayedWrites, Expected: sum(keep), TornTails: info.TornTailCount()}
	if info.SnapshotSeq != 1 {
		res.Err = fmt.Sprintf("recovered from epoch %d, want fallback to 1", info.SnapshotSeq)
		return res
	}
	if info.ReplayedWrites != res.Expected {
		res.Err = fmt.Sprintf("replayed %d writes, want %d", info.ReplayedWrites, res.Expected)
		return res
	}
	if err := checkState(m, journal, expectState(journal, keep)); err != nil {
		res.Err = err.Error()
		return res
	}
	// The interrupted checkpoint's litter must be swept.
	for s := range journal {
		if _, err := os.Stat(durable.SegmentPath(dir, 2, s)); err == nil {
			res.Err = fmt.Sprintf("stale epoch-2 segment %d survived recovery", s)
			return res
		}
	}
	res.Pass = true
	return res
}

// trialTruncate kills the store after a checkpoint committed (snapshot
// renamed) but before the previous epoch's files were unlinked: recovery
// must prefer the new epoch and finish the sweep.
func trialTruncate(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand, i int) trialResult {
	const stage = "truncate"
	dir := filepath.Join(work, fmt.Sprintf("truncate-%03d", i))
	if err := cloneDir(master, dir); err != nil {
		return failTrial(stage, "", err)
	}
	// Preserve epoch 1's files, run a real checkpoint (which removes
	// them), then resurrect them — exactly what a crash between the
	// rename and the unlinks leaves on disk.
	saved := map[string][]byte{}
	names := []string{filepath.Base(durable.SnapshotPath(dir, 1))}
	for s := range journal {
		names = append(names, filepath.Base(durable.SegmentPath(dir, 1, s)))
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return failTrial(stage, "", err)
		}
		saved[name] = data
	}
	m, _, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		return failTrial(stage, "", err)
	}
	if err := m.Checkpoint(); err != nil {
		return failTrial(stage, "", err)
	}
	if err := m.Close(); err != nil {
		return failTrial(stage, "", err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return failTrial(stage, "", err)
		}
	}
	detail := fmt.Sprintf("epoch-1 snapshot + %d segments resurrected beside committed epoch 2", len(journal))

	keep := make([]int, len(journal))
	for s := range journal {
		keep[s] = len(journal[s])
	}
	m2, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		return failTrial(stage, detail, fmt.Errorf("recovery refused a pure crash artifact: %w", err))
	}
	defer func() { _ = m2.Close() }() //morphlint:allow errdiscard trial teardown
	res := trialResult{Stage: stage, Detail: detail, Recovered: info.ReplayedWrites, Expected: 0, TornTails: info.TornTailCount()}
	if info.SnapshotSeq != 2 {
		res.Err = fmt.Sprintf("recovered from epoch %d, want the committed 2", info.SnapshotSeq)
		return res
	}
	if info.ReplayedWrites != 0 {
		res.Err = fmt.Sprintf("replayed %d writes, want 0 after a committed checkpoint", info.ReplayedWrites)
		return res
	}
	if err := checkState(m2, journal, expectState(journal, keep)); err != nil {
		res.Err = err.Error()
		return res
	}
	if _, err := os.Stat(durable.SnapshotPath(dir, 1)); err == nil {
		res.Err = "resurrected epoch-1 snapshot survived recovery"
		return res
	}
	res.Pass = true
	return res
}

// buildDeltaStore clones master, reopens it, extends the workload by
// extra writes, cuts an incremental delta checkpoint (epoch 2 chained to
// base snapshot 1), writes a post-delta dirty tail, and closes. It returns
// the extended shadow journal. On disk: snapshot.1, delta 2←1 covering
// everything up to its cut, and WAL segments whose tail holds exactly the
// tail writes past the delta's covered LSN.
func buildDeltaStore(shcfg shard.Config, master, dir string, journal [][]shadowWrite, rng *rand.Rand, extra, tail int) ([][]shadowWrite, error) {
	if err := cloneDir(master, dir); err != nil {
		return nil, err
	}
	ext := make([][]shadowWrite, len(journal))
	for s := range journal {
		ext[s] = append([]shadowWrite(nil), journal[s]...)
	}
	m, _, err := durable.Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways, NoAudit: true})
	if err != nil {
		return nil, err
	}
	nlines := shcfg.Mem.MemoryBytes / durable.LineBytes
	write := func(i int) error {
		addr := (rng.Uint64() % nlines) * durable.LineBytes
		line := make([]byte, durable.LineBytes)
		binary.LittleEndian.PutUint64(line, rng.Uint64())
		binary.LittleEndian.PutUint64(line[8:], uint64(i))
		if err := m.Write(addr, line); err != nil {
			return err
		}
		si, _, err := m.Sharded().Locate(addr)
		if err != nil {
			return err
		}
		ext[si] = append(ext[si], shadowWrite{addr, line})
		return nil
	}
	fail := func(err error) ([][]shadowWrite, error) {
		_ = m.Close() //morphlint:allow errdiscard build teardown
		return nil, err
	}
	for i := 0; i < extra; i++ {
		if err := write(i); err != nil {
			return fail(err)
		}
	}
	if err := m.CheckpointDelta(); err != nil {
		return fail(err)
	}
	for i := 0; i < tail; i++ {
		if err := write(extra + i); err != nil {
			return fail(err)
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	return ext, nil
}

// checkDeltaRecovery opens dir and asserts the canonical delta-chain
// recovery shape: base snapshot 1, one delta applied, exactly the dirty
// tail replayed, state matching the shadow journal.
func checkDeltaRecovery(shcfg shard.Config, dir string, ext [][]shadowWrite, tail int, res trialResult) trialResult {
	m, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		res.Err = fmt.Sprintf("recovery refused a pure crash artifact: %v", err)
		return res
	}
	defer func() { _ = m.Close() }() //morphlint:allow errdiscard trial teardown
	res.Recovered = info.ReplayedWrites
	res.Expected = tail
	res.TornTails = info.TornTailCount()
	if info.SnapshotSeq != 1 {
		res.Err = fmt.Sprintf("recovered from base epoch %d, want 1", info.SnapshotSeq)
		return res
	}
	if info.DeltasApplied != 1 {
		res.Err = fmt.Sprintf("applied %d deltas, want 1", info.DeltasApplied)
		return res
	}
	if info.ReplayedWrites != tail {
		res.Err = fmt.Sprintf("replayed %d writes, want the %d-write dirty tail", info.ReplayedWrites, tail)
		return res
	}
	keep := make([]int, len(ext))
	for s := range ext {
		keep[s] = len(ext[s])
	}
	if err := checkState(m, ext, expectState(ext, keep)); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Pass = true
	return res
}

// trialDelta kills the store mid-delta-checkpoint: a next-epoch delta temp
// file (partial on even points, empty on odd) sits beside the committed
// chain. Recovery must use the chain head, replay only the post-delta
// tail, and sweep the temp.
func trialDelta(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand, i int) trialResult {
	const stage = "delta"
	const extra, tail = 40, 20
	dir := filepath.Join(work, fmt.Sprintf("delta-%03d", i))
	ext, err := buildDeltaStore(shcfg, master, dir, journal, rng, extra, tail)
	if err != nil {
		return failTrial(stage, "", err)
	}
	tmp := ckpt.DeltaPath(dir, 3, 2) + ".tmp"
	var junk []byte
	detail := "empty next-delta temp beside committed chain"
	if i%2 == 0 {
		junk = make([]byte, 1+rng.Intn(4096))
		rng.Read(junk)
		detail = fmt.Sprintf("%d-byte partial next-delta temp beside committed chain", len(junk))
	}
	if err := os.WriteFile(tmp, junk, 0o644); err != nil {
		return failTrial(stage, detail, err)
	}
	res := checkDeltaRecovery(shcfg, dir, ext, tail, trialResult{Stage: stage, Detail: detail})
	if res.Pass {
		if _, err := os.Stat(tmp); err == nil {
			res.Pass = false
			res.Err = "partial delta temp survived recovery"
		}
	}
	return res
}

// trialCompact kills the store mid-compaction. Even points crash before
// the full snapshot renamed (stale epoch-3 segments + partial snapshot
// temp beside the live delta chain: recovery must stay on the chain and
// keep every link). Odd points crash after the rename but before the old
// chain's files were unlinked (snapshot, delta, and segments resurrected
// beside the committed epoch: recovery must prefer it and re-sweep).
func trialCompact(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand, i int) trialResult {
	const stage = "compact"
	const extra, tail = 40, 20
	dir := filepath.Join(work, fmt.Sprintf("compact-%03d", i))
	ext, err := buildDeltaStore(shcfg, master, dir, journal, rng, extra, tail)
	if err != nil {
		return failTrial(stage, "", err)
	}

	if i%2 == 0 {
		for s := range journal {
			if err := os.WriteFile(durable.SegmentPath(dir, 3, s), nil, 0o644); err != nil {
				return failTrial(stage, "", err)
			}
		}
		junk := make([]byte, 1+rng.Intn(4096))
		rng.Read(junk)
		if err := os.WriteFile(durable.SnapshotPath(dir, 3)+".tmp", junk, 0o644); err != nil {
			return failTrial(stage, "", err)
		}
		detail := "stale epoch-3 segments + partial snapshot temp beside delta chain"
		res := checkDeltaRecovery(shcfg, dir, ext, tail, trialResult{Stage: stage, Detail: detail})
		if res.Pass {
			for s := range journal {
				if _, err := os.Stat(durable.SegmentPath(dir, 3, s)); err == nil {
					res.Pass = false
					res.Err = fmt.Sprintf("stale epoch-3 segment %d survived recovery", s)
					return res
				}
			}
			// The chain the store still depends on must be intact.
			if _, err := os.Stat(ckpt.DeltaPath(dir, 2, 1)); err != nil {
				res.Pass = false
				res.Err = "sweep removed the live delta chain's link"
			}
		}
		return res
	}

	// Odd: run the real compaction, then resurrect the old chain's files —
	// exactly what a crash between the rename and the unlinks leaves.
	saved := map[string][]byte{}
	names := []string{
		filepath.Base(durable.SnapshotPath(dir, 1)),
		ckpt.DeltaName(2, 1),
	}
	for s := range journal {
		names = append(names, filepath.Base(durable.SegmentPath(dir, 1, s)))
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return failTrial(stage, "", err)
		}
		saved[name] = data
	}
	m, _, err := durable.Open(shcfg, durable.Config{Dir: dir, NoAudit: true})
	if err != nil {
		return failTrial(stage, "", err)
	}
	if err := m.Checkpoint(); err != nil {
		return failTrial(stage, "", err)
	}
	if err := m.Close(); err != nil {
		return failTrial(stage, "", err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return failTrial(stage, "", err)
		}
	}
	detail := "epoch-1 snapshot + delta 2←1 + segments resurrected beside committed epoch 3"

	m2, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		return failTrial(stage, detail, fmt.Errorf("recovery refused a pure crash artifact: %w", err))
	}
	defer func() { _ = m2.Close() }() //morphlint:allow errdiscard trial teardown
	res := trialResult{Stage: stage, Detail: detail, Recovered: info.ReplayedWrites, Expected: 0, TornTails: info.TornTailCount()}
	if info.SnapshotSeq != 3 {
		res.Err = fmt.Sprintf("recovered from epoch %d, want the committed 3", info.SnapshotSeq)
		return res
	}
	if info.DeltasApplied != 0 || info.ReplayedWrites != 0 {
		res.Err = fmt.Sprintf("applied %d deltas + %d writes, want 0 after a committed compaction", info.DeltasApplied, info.ReplayedWrites)
		return res
	}
	keep := make([]int, len(ext))
	for s := range ext {
		keep[s] = len(ext[s])
	}
	if err := checkState(m2, ext, expectState(ext, keep)); err != nil {
		res.Err = err.Error()
		return res
	}
	for _, name := range []string{filepath.Base(durable.SnapshotPath(dir, 1)), ckpt.DeltaName(2, 1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			res.Err = fmt.Sprintf("resurrected %s survived recovery", name)
			return res
		}
	}
	res.Pass = true
	return res
}

// probeTamperWAL flips one payload byte in a WAL frame and recomputes the
// CRC: indistinguishable from a crash to a checksum, so only the keyed
// record MAC can catch it.
func probeTamperWAL(shcfg shard.Config, work, master string, rng *rand.Rand) tamperResult {
	res := tamperResult{Target: "wal payload byte flip + CRC recompute"}
	dir := filepath.Join(work, "tamper-wal")
	if err := cloneDir(master, dir); err != nil {
		res.Err = err.Error()
		return res
	}
	seg := durable.SegmentPath(dir, 1, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	frames := len(data) / wal.WriteFrameBytes
	if frames == 0 {
		res.Err = "shard 0 WAL empty"
		return res
	}
	off := rng.Intn(frames) * wal.WriteFrameBytes
	body := data[off+8 : off+wal.WriteFrameBytes]
	body[30] ^= 0x40
	binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		res.Err = err.Error()
		return res
	}
	_, _, err = durable.Open(shcfg, durable.Config{Dir: dir})
	if err == nil {
		res.Err = "tampered WAL recovered without error"
		return res
	}
	res.Err = err.Error()
	res.Detected = isIntegrity(err)
	return res
}

// probeTamperSnapshot checkpoints a clone (so state lives in the
// snapshot), then flips one snapshot byte.
func probeTamperSnapshot(shcfg shard.Config, work, master string) tamperResult {
	res := tamperResult{Target: "snapshot byte flip"}
	dir := filepath.Join(work, "tamper-snap")
	if err := cloneDir(master, dir); err != nil {
		res.Err = err.Error()
		return res
	}
	m, _, err := durable.Open(shcfg, durable.Config{Dir: dir})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if err := m.Checkpoint(); err != nil {
		res.Err = err.Error()
		return res
	}
	if err := m.Close(); err != nil {
		res.Err = err.Error()
		return res
	}
	snap := durable.SnapshotPath(dir, 2)
	data, err := os.ReadFile(snap)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	data[len(data)/3] ^= 0x02
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		res.Err = err.Error()
		return res
	}
	_, _, err = durable.Open(shcfg, durable.Config{Dir: dir})
	if err == nil {
		res.Err = "tampered snapshot recovered without error"
		return res
	}
	res.Err = err.Error()
	res.Detected = isIntegrity(err)
	return res
}

// probeTamperDelta cuts a real delta checkpoint on a clone, then flips one
// byte of the delta segment: the authenticated stream must refuse it at
// recovery.
func probeTamperDelta(shcfg shard.Config, work, master string, journal [][]shadowWrite, rng *rand.Rand) tamperResult {
	res := tamperResult{Target: "delta segment byte flip"}
	dir := filepath.Join(work, "tamper-delta")
	if _, err := buildDeltaStore(shcfg, master, dir, journal, rng, 40, 0); err != nil {
		res.Err = err.Error()
		return res
	}
	path := ckpt.DeltaPath(dir, 2, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		res.Err = err.Error()
		return res
	}
	_, _, err = durable.Open(shcfg, durable.Config{Dir: dir})
	if err == nil {
		res.Err = "tampered delta recovered without error"
		return res
	}
	res.Err = err.Error()
	res.Detected = isIntegrity(err)
	return res
}

// recoveryCurve measures crash recovery at two state sizes. Each size runs
// the same workload twice: bulk writes covering every line plus a small
// dirty tail, recovered once by full WAL replay (no checkpoint) and once
// from a delta chain cut before the tail. The deterministic gate is that
// the delta path replays exactly the tail — the same count at both sizes,
// independent of the bulk history. The wall-clock gate, at the larger size
// where the tail is <= 10% of the history, is only that the delta path is not
// slower: a replayed write costs under a microsecond of engine time, so the
// ratio (reported as speedup, 1.5-2.5x) measures file reads, not replay.
func recoveryCurve(org string, shards int, seed int64, work string) ([]curvePoint, error) {
	const tail = 800
	syncNone, err := durable.ParseSyncPolicy("none")
	if err != nil {
		return nil, err
	}
	var curve []curvePoint
	for pi, mem := range []uint64{128 << 10, 512 << 10} {
		nlines := int(mem / durable.LineBytes)
		bulk := nlines * 8
		cp := curvePoint{MemBytes: mem, Lines: nlines, BulkWrites: bulk, TailWrites: tail}
		shcfg, err := shardConfig(org, shards, mem)
		if err != nil {
			return nil, err
		}
		run := func(name string, delta bool) (replayed int, millis float64, err error) {
			dir := filepath.Join(work, fmt.Sprintf("curve-%d-%s", mem, name))
			m, _, err := durable.Open(shcfg, durable.Config{Dir: dir, Sync: syncNone, NoAudit: true})
			if err != nil {
				return 0, 0, err
			}
			rng := rand.New(rand.NewSource(seed + int64(pi)))
			line := make([]byte, durable.LineBytes)
			write := func(i int) error {
				binary.LittleEndian.PutUint64(line, rng.Uint64())
				binary.LittleEndian.PutUint64(line[8:], uint64(i))
				return m.Write((rng.Uint64()%uint64(nlines))*durable.LineBytes, line)
			}
			for i := 0; i < bulk; i++ {
				if err := write(i); err != nil {
					return 0, 0, err
				}
			}
			if delta {
				if err := m.CheckpointDelta(); err != nil {
					return 0, 0, err
				}
			}
			for i := 0; i < tail; i++ {
				if err := write(bulk + i); err != nil {
					return 0, 0, err
				}
			}
			if err := m.Close(); err != nil {
				return 0, 0, err
			}
			m2, info, err := durable.Open(shcfg, durable.Config{Dir: dir, NoAudit: true})
			if err != nil {
				return 0, 0, fmt.Errorf("curve recovery (%s, %d bytes): %w", name, mem, err)
			}
			if err := m2.Close(); err != nil {
				return 0, 0, err
			}
			return info.ReplayedWrites, float64(info.Elapsed.Microseconds()) / 1000, nil
		}
		if cp.FullReplayed, cp.FullMillis, err = run("full", false); err != nil {
			return nil, err
		}
		if cp.DeltaReplayed, cp.DeltaMillis, err = run("delta", true); err != nil {
			return nil, err
		}
		if cp.DeltaMillis > 0 {
			cp.Speedup = cp.FullMillis / cp.DeltaMillis
		}
		switch {
		case cp.FullReplayed != bulk+tail:
			cp.Err = fmt.Sprintf("full replay recovered %d writes, want %d", cp.FullReplayed, bulk+tail)
		case cp.DeltaReplayed != tail:
			cp.Err = fmt.Sprintf("delta recovery replayed %d writes, want the %d-write dirty tail — recovery is scaling with history, not dirt", cp.DeltaReplayed, tail)
		case pi == 1 && cp.DeltaMillis > cp.FullMillis:
			cp.Err = fmt.Sprintf("delta recovery took %.2fms at %.1f%% dirty, slower than the %.2fms full replay", cp.DeltaMillis, 100*float64(tail)/float64(bulk+tail), cp.FullMillis)
		default:
			cp.Pass = true
		}
		curve = append(curve, cp)
	}
	return curve, nil
}

// benchStall measures per-write latency for the same workload with and
// without the background delta checkpointer, gating on the p99 ratio with
// an additive fallback: a write may briefly wait out the in-memory dirty
// copy (the freeze), so a sub-millisecond additive bump is within the
// design's stall budget even when instrumentation (the race detector)
// inflates it past the 1.5x ratio. What the gate must catch is checkpoint
// file I/O leaking inside the freeze — that stalls writes for the
// multi-millisecond duration of a segment write + fsync and fails both
// arms.
func benchStall(shcfg shard.Config, work string, seed int64) stallResult {
	const writes = 5000
	const stallBudgetUS = 1000.0
	res := stallResult{Writes: writes}
	sync, err := durable.ParseSyncPolicy("interval")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	run := func(name string, withCkpt bool) (p99us float64, deltas uint64, err error) {
		dir := filepath.Join(work, "stall-"+name)
		m, _, err := durable.Open(shcfg, durable.Config{Dir: dir, Sync: sync, NoAudit: true})
		if err != nil {
			return 0, 0, err
		}
		defer func() {
			if cerr := m.Close(); err == nil {
				err = cerr
			}
		}()
		if withCkpt {
			r := ckpt.NewRunner(m, 2*time.Millisecond, 0, 0, func(error) {})
			defer r.Stop()
		}
		rng := rand.New(rand.NewSource(seed + 13))
		nlines := shcfg.Mem.MemoryBytes / durable.LineBytes
		line := make([]byte, durable.LineBytes)
		lat := make([]time.Duration, writes)
		for i := 0; i < writes; i++ {
			binary.LittleEndian.PutUint64(line, rng.Uint64())
			addr := (rng.Uint64() % nlines) * durable.LineBytes
			t0 := time.Now()
			if err := m.Write(addr, line); err != nil {
				return 0, 0, err
			}
			lat[i] = time.Since(t0)
			if withCkpt && i == writes/2 && m.Durability().DeltaCheckpoints == 0 {
				// The runner has not fired yet (a very fast run): cut one
				// directly so the comparison always measures a live delta.
				if err := m.CheckpointDelta(); err != nil {
					return 0, 0, err
				}
			}
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p99 := lat[writes*99/100]
		return float64(p99.Nanoseconds()) / 1000, m.Durability().DeltaCheckpoints, nil
	}
	if res.P99BaseUS, _, err = run("base", false); err != nil {
		res.Err = err.Error()
		return res
	}
	if res.P99CkptUS, res.Deltas, err = run("ckpt", true); err != nil {
		res.Err = err.Error()
		return res
	}
	if res.P99BaseUS > 0 {
		res.Ratio = res.P99CkptUS / res.P99BaseUS
	}
	switch {
	case res.Deltas == 0:
		res.Err = "no delta checkpoints were cut during the measured run"
	case res.Ratio <= 1.5 || res.P99CkptUS-res.P99BaseUS <= stallBudgetUS:
		res.Pass = true
	default:
		res.Err = fmt.Sprintf("write p99 %.0fus with background checkpoints vs %.0fus without (%.2fx > 1.5x and +%.0fus past the stall budget)",
			res.P99CkptUS, res.P99BaseUS, res.Ratio, res.P99CkptUS-res.P99BaseUS)
	}
	return res
}

func isIntegrity(err error) bool {
	var ie *secmem.IntegrityError
	return errors.As(err, &ie)
}

func cloneDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
