package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wal"
)

// The crash subcommand builds a reference store under a seeded workload, then
// — for a matrix of crash points — clones its directory, performs the file
// surgery a kernel panic at that instant would leave behind, recovers the
// clone, and audits it against the journal prefix that surgery let survive:
//
//   - append:   the WAL tail is cut at a random byte offset; exactly the whole
//     frames before the cut survive, and recovery reports a torn tail rather
//     than an integrity violation.
//   - snapshot: the crash lands mid-checkpoint, before any shard journaled a
//     write into the next-epoch segment it rotated to — empty next-epoch
//     segments and at most a partial snapshot temp file; recovery falls back
//     to the previous epoch with nothing lost and sweeps the stale files.
//   - truncate: the crash lands after the snapshot rename but before the old
//     epoch's files are unlinked; recovery prefers the new epoch and finishes
//     the sweep.
//   - delta:    the crash lands mid-delta-checkpoint — a partial (or empty)
//     delta temp file beside a committed chain; recovery uses the chain head,
//     replays only the post-delta tail, and sweeps the temp.
//   - compact:  the crash lands mid-compaction, before the full snapshot
//     renamed (empty next-epoch segments and a partial temp beside a live
//     delta chain) or after (the old chain's files resurrected beside the
//     committed epoch); recovery picks the right head both times.
//   - rotate:   the crash lands mid-checkpoint after every shard rotated and
//     writes were journaled into the next-epoch segments, beside a partial
//     snapshot temp; recovery stays on the old head, replays both segments
//     of every shard, and a full checkpoint and a reopen then succeed.
//
// Five tamper probes ride along — a flipped snapshot byte, a flipped delta
// byte, a flipped WAL payload byte with the CRC recomputed, the same in a
// next-epoch segment, and an old segment cut mid-frame before a next-epoch
// segment that holds records: an adversary, not a crash — and each must
// surface as an integrity error at recovery, never as a silent repair or a
// torn tail. The recovery curve completes the matrix: a delta chain makes
// recovery replay, authenticate and read the dirty tail's WAL frames, not the
// history's. (That a checkpoint stalls no writer is
// TestWritesFinishWhileACutIsParked in internal/durable.)

// Every stage that needs a delta chain builds one from the master: deltaExtra
// writes, a delta checkpoint (epoch 2 on base snapshot 1), deltaTail writes.
const deltaExtra, deltaTail = 40, 20

// crashRun is one invocation's fixed state: the engine geometry, the scratch
// directory, the reference store and its journal, and the one seeded RNG every
// workload and every crash point draws from, in order.
type crashRun struct {
	shcfg   shard.Config
	work    string
	master  string
	journal *oracle.Journal
	rng     *rand.Rand
}

// recovery is what a surgery says recovery must report.
type recovery struct {
	detail   string
	keep     []int  // records of each shard's journal that survive
	seq      uint64 // the epoch recovered from
	deltas   int    // delta segments applied
	replayed int    // WAL writes replayed
	torn     int    // shards whose tail was truncated
	swept    []string
	kept     []string // files the sweep must leave
	// then, if not 0, is the epoch a full checkpoint of the recovered store
	// must cut, after which it must recover and audit the same again.
	then uint64
}

// surgery is one crash window: what a kill at that instant leaves in dir.
type surgery struct {
	stage string
	// build stages the store the point starts from in dir and returns its
	// journal; nil clones the master.
	build func(c *crashRun, dir string) (*oracle.Journal, error)
	cut   func(c *crashRun, dir string, j *oracle.Journal, i int) (recovery, error)
}

var surgeries = []surgery{
	{stage: "append", cut: cutAppend},
	{stage: "snapshot", cut: cutSnapshot},
	{stage: "truncate", cut: cutTruncate},
	{stage: "delta", build: deltaStore, cut: cutDelta},
	{stage: "compact", build: deltaStore, cut: cutCompact},
	{stage: "rotate", build: rotatedStore, cut: cutRotate},
}

// crashPoints splits the points over the stages: half cut the WAL tail, the
// rest divide between the four checkpoint windows, compact taking the
// remainder, and the rotate window takes an eighth more, at least one.
func crashPoints(points int) []int {
	rest := points - points/2
	return []int{points / 2, rest / 4, rest / 4, rest / 4, rest - 3*(rest/4), max(1, points/8)}
}

// newCrashRun builds the reference store: writes acknowledged writes from
// seed, journaled. The WAL journals writes only, so every frame is the fixed
// write size, which makes the surviving-record count at a cut offset
// arithmetic rather than a re-parse of the file under test. The caller
// removes c.work.
func newCrashRun(shcfg shard.Config, writes int, seed int64) (*crashRun, error) {
	work, err := os.MkdirTemp("", "morphcheck-crash-*")
	if err != nil {
		return nil, err
	}
	c := &crashRun{
		shcfg:   shcfg,
		work:    work,
		master:  filepath.Join(work, "master"),
		journal: oracle.NewJournal(shcfg.Shards),
		rng:     rand.New(rand.NewSource(seed)),
	}
	m, _, err := durable.Open(shcfg, durable.Config{Dir: c.master, Sync: durable.SyncAlways})
	if err == nil {
		err = c.write(m, c.journal, writes)
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return c, nil
}

func crash(rows *rows, shcfg shard.Config, points, writes int, seed int64) error {
	c, err := newCrashRun(shcfg, writes, seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.work)

	for si, n := range crashPoints(points) {
		for i := 0; i < n; i++ {
			text, fail := c.point(surgeries[si], i)
			rows.add(surgeries[si].stage, text, fail)
		}
	}
	for i, p := range probes {
		text, fail := c.probe(p, filepath.Join(c.work, fmt.Sprintf("tamper-%d", i)))
		rows.add("tamper", text, fail)
	}

	// Full replay: the whole journal back from the WAL alone, record for
	// record (the Anubis-style bound: work is proportional to the log since
	// the last checkpoint).
	dir := filepath.Join(c.work, "recover-all")
	if err := cloneDir(c.master, dir); err != nil {
		return err
	}
	text, fail := c.recoverAndAudit(dir, c.journal, recovery{
		detail: "every record", keep: c.journal.Lens(), seq: 1, replayed: writes})
	rows.add("full-replay", text, fail)

	return c.recoveryCurve(rows, seed)
}

// write extends the workload by n acknowledged writes, journaled in the order
// the shard that owns each line applies them.
func (c *crashRun) write(m *durable.Memory, j *oracle.Journal, n int) error {
	nlines := c.shcfg.Mem.MemoryBytes / lineBytes
	for i := 0; i < n; i++ {
		addr := (c.rng.Uint64() % nlines) * lineBytes
		si, _, err := m.Sharded().Locate(addr)
		if err != nil {
			return err
		}
		if err := m.Write(addr, j.Append(si, addr)); err != nil {
			return fmt.Errorf("workload write %d: %w", i, err)
		}
	}
	return nil
}

// point is the one loop every crash point runs: clone, surgery, recover,
// audit.
func (c *crashRun) point(s surgery, i int) (text string, fail error) {
	dir := filepath.Join(c.work, fmt.Sprintf("%s-%03d", s.stage, i))
	j := c.journal
	var err error
	if s.build != nil {
		j, err = s.build(c, dir)
	} else {
		err = cloneDir(c.master, dir)
	}
	if err != nil {
		return "", err
	}
	want, err := s.cut(c, dir, j, i)
	if err != nil {
		return want.detail, err
	}
	return c.recoverAndAudit(dir, j, want)
}

// recoverAndAudit opens dir as a restarted process would and holds the
// recovery to want: the shape RecoveryInfo reports, every line of the journal
// at its last surviving write (zeros if none survived), the tree, and the
// sweep.
func (c *crashRun) recoverAndAudit(dir string, j *oracle.Journal, want recovery) (text string, fail error) {
	m, info, err := durable.Open(c.shcfg, durable.Config{Dir: dir})
	if err != nil {
		return want.detail, fmt.Errorf("recovery refused a pure crash artifact: %w", err)
	}
	defer func() { _ = m.Close() }() //morphlint:allow errdiscard trial teardown
	text = fmt.Sprintf("%s: epoch %d, %d deltas, %d/%d writes replayed, %d torn",
		want.detail, info.SnapshotSeq, info.DeltasApplied, info.ReplayedRecords, want.replayed, info.TornTailCount())
	switch {
	case info.SnapshotSeq != want.seq:
		return text, fmt.Errorf("recovered from epoch %d, want %d", info.SnapshotSeq, want.seq)
	case info.DeltasApplied != want.deltas:
		return text, fmt.Errorf("applied %d deltas, want %d", info.DeltasApplied, want.deltas)
	case info.ReplayedRecords != want.replayed:
		return text, fmt.Errorf("replayed %d writes, want %d", info.ReplayedRecords, want.replayed)
	case info.TornTailCount() != want.torn:
		return text, fmt.Errorf("%d torn tails, want %d", info.TornTailCount(), want.torn)
	}
	if audit := j.Surviving(want.keep).Audit(m.Read); audit.Bad() != 0 {
		return text, fmt.Errorf("recovered store diverged from the journal: %s", audit)
	}
	if err := m.VerifyAll(); err != nil {
		return text, err
	}
	for _, path := range want.swept {
		if _, err := os.Stat(path); err == nil {
			return text, fmt.Errorf("%s survived recovery", filepath.Base(path))
		}
	}
	for _, path := range want.kept {
		if _, err := os.Stat(path); err != nil {
			return text, fmt.Errorf("the sweep removed %s, which the store still depends on", filepath.Base(path))
		}
	}
	if want.then == 0 {
		return text, nil
	}
	text += fmt.Sprintf(", then checkpointed to epoch %d", want.then)
	if err := m.Close(); err != nil {
		return text, err
	}
	if err := c.checkpoint(dir, nil); err != nil {
		return text, fmt.Errorf("a full checkpoint after recovery: %w", err)
	}
	_, fail = c.recoverAndAudit(dir, j, recovery{keep: want.keep, seq: want.then})
	return text, fail
}

// cutAppend kills the store mid-WAL-append: the victim shard's segment is
// truncated at a random byte offset.
func cutAppend(c *crashRun, dir string, j *oracle.Journal, _ int) (recovery, error) {
	keep := j.Lens()
	victim := c.rng.Intn(len(keep))
	seg := durable.SegmentPath(dir, 1, victim)
	st, err := os.Stat(seg)
	if err != nil {
		return recovery{}, err
	}
	cut := c.rng.Int63n(st.Size() + 1)
	// Fixed-size frames make the survivor count arithmetic.
	keep[victim] = int(cut / wal.WriteFrameBytes)
	want := recovery{
		detail: fmt.Sprintf("shard %d cut at byte %d/%d", victim, cut, st.Size()),
		keep:   keep, seq: 1, replayed: sum(keep),
	}
	if cut%wal.WriteFrameBytes != 0 {
		want.torn = 1
	}
	return want, os.Truncate(seg, cut)
}

// cutSnapshot kills the store mid-checkpoint, in the window where the next
// epoch's WAL segments exist but its snapshot has not renamed into place.
// Even-numbered points also leave a partial snapshot temp file.
func cutSnapshot(c *crashRun, dir string, j *oracle.Journal, i int) (recovery, error) {
	want := recovery{detail: "stale epoch-2 segments", keep: j.Lens(), seq: 1, replayed: sum(j.Lens())}
	for s := range want.keep {
		want.swept = append(want.swept, durable.SegmentPath(dir, 2, s))
	}
	if i%2 == 0 {
		want.detail += " + partial snapshot temp"
		want.swept = append(want.swept, durable.SnapshotPath(dir, 2)+".tmp")
	}
	return want, c.litter(want.swept)
}

// cutTruncate kills the store after a checkpoint committed (snapshot renamed)
// but before the previous epoch's files were unlinked.
func cutTruncate(c *crashRun, dir string, j *oracle.Journal, _ int) (recovery, error) {
	old := epochFiles(dir, len(j.Lens()))
	return recovery{
		detail: "epoch-1 snapshot and segments resurrected beside committed epoch 2",
		keep:   j.Lens(), seq: 2, swept: old,
	}, c.checkpointThenResurrect(dir, old, nil)
}

// cutDelta kills the store mid-delta-checkpoint: a next-epoch delta temp file
// (partial on even points, empty on odd) sits beside the committed chain.
func cutDelta(c *crashRun, dir string, j *oracle.Journal, i int) (recovery, error) {
	tmp := ckpt.DeltaPath(dir, 3, 2) + ".tmp"
	want := recovery{
		detail: "empty next-delta temp beside committed chain",
		keep:   j.Lens(), seq: 1, deltas: 1, replayed: deltaTail, swept: []string{tmp},
	}
	if i%2 == 0 {
		want.detail = "partial next-delta temp beside committed chain"
		return want, c.litter(want.swept)
	}
	return want, os.WriteFile(tmp, nil, 0o644)
}

// cutCompact kills the store mid-compaction. Even points crash before the
// full snapshot renamed: recovery must stay on the chain and keep every link.
// Odd points crash after the rename but before the old chain's files were
// unlinked: recovery must prefer the committed epoch and re-sweep.
func cutCompact(c *crashRun, dir string, j *oracle.Journal, i int) (recovery, error) {
	if i%2 == 0 {
		want := recovery{
			detail: "stale epoch-3 segments + partial snapshot temp beside delta chain",
			keep:   j.Lens(), seq: 1, deltas: 1, replayed: deltaTail,
			kept: []string{ckpt.DeltaPath(dir, 2, 1)},
		}
		for s := range want.keep {
			want.swept = append(want.swept, durable.SegmentPath(dir, 3, s))
		}
		want.swept = append(want.swept, durable.SnapshotPath(dir, 3)+".tmp")
		return want, c.litter(want.swept)
	}
	old := append(epochFiles(dir, len(j.Lens())), ckpt.DeltaPath(dir, 2, 1))
	return recovery{
		detail: "epoch-1 snapshot, delta 2←1 and segments resurrected beside committed epoch 3",
		keep:   j.Lens(), seq: 3, swept: old,
	}, c.checkpointThenResurrect(dir, old, nil)
}

// cutRotate kills the store in the window the full checkpoint's freeze once
// made impossible: every shard has rotated to an epoch-2 segment and
// journaled writes there, and the snapshot is a partial temp (rotatedStore
// leaves all that). Recovery must stay on epoch 1, replay both segments of
// every shard, keep the epoch-2 ones, and checkpoint and reopen after.
func cutRotate(_ *crashRun, dir string, j *oracle.Journal, _ int) (recovery, error) {
	want := recovery{
		detail: "epoch-2 segments journaled past the rotation beside a partial snapshot temp",
		keep:   j.Lens(), seq: 1, replayed: sum(j.Lens()), then: 3,
		swept: []string{durable.SnapshotPath(dir, 2) + ".tmp"},
	}
	for s := range want.keep {
		want.kept = append(want.kept, durable.SegmentPath(dir, 2, s))
	}
	return want, nil
}

// rotatedStore clones the master into dir and runs a real full checkpoint
// (epoch 2) with writes journaled after it, then resurrects epoch 1's files
// and turns snapshot 2 back into a partial temp: what a crash after every
// shard's rotation, before the rename, leaves. It returns the journal.
func rotatedStore(c *crashRun, dir string) (*oracle.Journal, error) {
	j := c.journal.Clone()
	err := cloneDir(c.master, dir)
	if err == nil {
		err = c.checkpointThenResurrect(dir, epochFiles(dir, c.shcfg.Shards), j)
	}
	snap := durable.SnapshotPath(dir, 2)
	var data []byte
	if err == nil {
		data, err = os.ReadFile(snap)
	}
	if err == nil {
		err = os.WriteFile(snap+".tmp", data[:c.rng.Intn(len(data))], 0o644)
	}
	if err == nil {
		err = os.Remove(snap)
	}
	return j, err
}

// epochFiles names epoch 1's snapshot and WAL segments in dir.
func epochFiles(dir string, shards int) []string {
	files := []string{durable.SnapshotPath(dir, 1)}
	for s := 0; s < shards; s++ {
		files = append(files, durable.SegmentPath(dir, 1, s))
	}
	return files
}

// litter leaves what an interrupted checkpoint does: empty segment files, and
// 1..4096 random bytes in anything named *.tmp.
func (c *crashRun) litter(paths []string) error {
	for _, path := range paths {
		var junk []byte
		if filepath.Ext(path) == ".tmp" {
			junk = make([]byte, 1+c.rng.Intn(4096))
			c.rng.Read(junk)
		}
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkpointThenResurrect runs a real checkpoint (which unlinks the files of
// the epoch it retires; see checkpoint for j), then writes those files back —
// exactly what a crash between the rename and the unlinks leaves on disk.
func (c *crashRun) checkpointThenResurrect(dir string, files []string, j *oracle.Journal) error {
	saved := make([][]byte, len(files))
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		saved[i] = data
	}
	if err := c.checkpoint(dir, j); err != nil {
		return err
	}
	for i, path := range files {
		if err := os.WriteFile(path, saved[i], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint opens dir, cuts a full checkpoint and closes. With a journal it
// journals a write on every shard and deltaTail more into the new epoch's
// segments first.
func (c *crashRun) checkpoint(dir string, j *oracle.Journal) error {
	m, _, err := durable.Open(c.shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		return err
	}
	err = m.Checkpoint()
	for s := 0; j != nil && s < c.shcfg.Shards && err == nil; s++ {
		addr := uint64(s) * lineBytes // lines interleave: line s is shard s's
		err = m.Write(addr, j.Append(s, addr))
	}
	if j != nil && err == nil {
		err = c.write(m, j, deltaTail)
	}
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return err
}

// deltaStore is the delta and compact windows' store: buildDeltaStore with
// deltaExtra writes before its delta and deltaTail after.
func deltaStore(c *crashRun, dir string) (*oracle.Journal, error) {
	return c.buildDeltaStore(dir, deltaExtra, deltaTail)
}

// buildDeltaStore clones the master into dir, reopens it, extends the
// workload by extra writes, cuts a delta checkpoint (epoch 2 chained to base
// snapshot 1), writes a dirty tail, and closes. It returns the extended
// journal. On disk: snapshot.1, delta 2←1 covering everything up to its cut,
// and WAL segments whose tail holds exactly the tail writes past the delta's
// covered LSN.
func (c *crashRun) buildDeltaStore(dir string, extra, tail int) (*oracle.Journal, error) {
	if err := cloneDir(c.master, dir); err != nil {
		return nil, err
	}
	m, _, err := durable.Open(c.shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		return nil, err
	}
	j := c.journal.Clone()
	err = c.write(m, j, extra)
	if err == nil {
		err = m.CheckpointDelta()
	}
	if err == nil {
		err = c.write(m, j, tail)
	}
	if err != nil {
		_ = m.Close() //morphlint:allow errdiscard the build error is the one to report
		return nil, err
	}
	return j, m.Close()
}

// tamperProbe is one adversarial edit: stage a store in dir, name the file to
// damage, and return its bytes damaged.
type tamperProbe struct {
	target string
	stage  func(c *crashRun, dir string) (path string, err error)
	flip   func(c *crashRun, data []byte) ([]byte, error)
}

// flipWALPayload flips a payload bit of a random frame and recomputes its
// CRC: indistinguishable from a crash to a checksum, so only the keyed record
// MAC can catch it.
func flipWALPayload(c *crashRun, data []byte) ([]byte, error) {
	frames := len(data) / wal.WriteFrameBytes
	if frames == 0 {
		return nil, errors.New("shard 0 WAL empty")
	}
	off := c.rng.Intn(frames) * wal.WriteFrameBytes
	body := data[off+8 : off+wal.WriteFrameBytes]
	body[30] ^= 0x40
	binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return data, nil
}

// rotatedSegment stages the rotate window's store and names shard 0's
// segment of epoch seq.
func rotatedSegment(seq uint64) func(c *crashRun, dir string) (string, error) {
	return func(c *crashRun, dir string) (string, error) {
		_, err := rotatedStore(c, dir)
		return durable.SegmentPath(dir, seq, 0), err
	}
}

var probes = []tamperProbe{
	{
		target: "wal payload byte flip + CRC recompute",
		stage: func(c *crashRun, dir string) (string, error) {
			return durable.SegmentPath(dir, 1, 0), cloneDir(c.master, dir)
		},
		flip: flipWALPayload,
	},
	{
		target: "snapshot byte flip",
		stage: func(c *crashRun, dir string) (string, error) {
			// Checkpoint the clone so the state lives in the snapshot.
			if err := cloneDir(c.master, dir); err != nil {
				return "", err
			}
			return durable.SnapshotPath(dir, 2), c.checkpoint(dir, nil)
		},
		flip: func(_ *crashRun, data []byte) ([]byte, error) { data[len(data)/3] ^= 0x02; return data, nil },
	},
	{
		target: "delta segment byte flip",
		stage: func(c *crashRun, dir string) (string, error) {
			_, err := c.buildDeltaStore(dir, deltaExtra, 0)
			return ckpt.DeltaPath(dir, 2, 1), err
		},
		flip: func(_ *crashRun, data []byte) ([]byte, error) { data[len(data)/2] ^= 0x10; return data, nil },
	},
	{
		target: "next-epoch wal payload byte flip + CRC recompute",
		stage:  rotatedSegment(2),
		flip:   flipWALPayload,
	},
	{
		// A crash tears only a journal's end: a shard flushes its old
		// segment before its first frame of the next.
		target: "old segment cut mid-frame before a next-epoch segment's records",
		stage:  rotatedSegment(1),
		flip: func(c *crashRun, data []byte) ([]byte, error) {
			frames := len(data) / wal.WriteFrameBytes
			if frames == 0 {
				return nil, errors.New("shard 0 WAL empty")
			}
			return data[:c.rng.Intn(frames)*wal.WriteFrameBytes+1+c.rng.Intn(wal.WriteFrameBytes-1)], nil
		},
	},
}

// probe stages p in dir, applies its edit, and requires recovery to refuse
// the store with an integrity error.
func (c *crashRun) probe(p tamperProbe, dir string) (text string, fail error) {
	path, err := p.stage(c, dir)
	if err != nil {
		return p.target, err
	}
	data, err := os.ReadFile(path)
	if err == nil {
		data, err = p.flip(c, data)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return p.target, err
	}
	m, _, err := durable.Open(c.shcfg, durable.Config{Dir: dir})
	if err == nil {
		_ = m.Close() //morphlint:allow errdiscard the probe has already failed
		return p.target, errors.New("tampered store recovered without error")
	}
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		return p.target, fmt.Errorf("recovery failed, but not with an integrity error: %w", err)
	}
	return p.target + ": refused with an integrity error", nil
}

// recoveryCurve recovers the same workload at two state sizes, each twice:
// bulk writes covering every line plus a small dirty tail, recovered once by
// full WAL replay (no checkpoint) and once from a delta chain cut before the
// tail. The gate is on counts: the full path replays and authenticates every
// frame, and the delta path replays, authenticates and reads exactly the
// tail's frames — the same at both sizes, independent of the bulk history.
// The two recoveries' timings are printed, not gated.
func (c *crashRun) recoveryCurve(rows *rows, seed int64) error {
	const tail = 800
	for pi, mem := range []uint64{128 << 10, 512 << 10} {
		shcfg := c.shcfg
		shcfg.Mem.MemoryBytes = mem
		nlines := mem / lineBytes
		bulk := int(nlines) * 8
		run := func(name string, delta bool) (*durable.RecoveryInfo, error) {
			dir := filepath.Join(c.work, fmt.Sprintf("curve-%d-%s", mem, name))
			m, _, err := durable.Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncNone})
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed + int64(pi)))
			for i := 0; i < bulk+tail && err == nil; i++ {
				if delta && i == bulk {
					err = m.CheckpointDelta()
				}
				if err == nil {
					addr := (rng.Uint64() % nlines) * lineBytes
					err = m.Write(addr, oracle.Fill(addr, uint64(i)))
				}
			}
			if err != nil {
				_ = m.Close() //morphlint:allow errdiscard the build error is the one to report
				return nil, err
			}
			if err := m.Close(); err != nil {
				return nil, err
			}
			m2, info, err := durable.Open(shcfg, durable.Config{Dir: dir})
			if err != nil {
				return nil, fmt.Errorf("curve recovery (%s, %d bytes): %w", name, mem, err)
			}
			return info, m2.Close()
		}
		full, err := run("full", false)
		if err != nil {
			return err
		}
		dlt, err := run("delta", true)
		if err != nil {
			return err
		}
		var fail error
		switch {
		case full.ReplayedRecords != bulk+tail || full.FramesAuthenticated != bulk+tail:
			fail = fmt.Errorf("full replay recovered %d writes from %d authenticated frames, want %d of each", full.ReplayedRecords, full.FramesAuthenticated, bulk+tail)
		case dlt.ReplayedRecords != tail || dlt.FramesAuthenticated != tail || dlt.BytesRead != tail*wal.WriteFrameBytes:
			fail = fmt.Errorf("delta recovery replayed %d writes from %d authenticated frames in %d bytes read, want the %d-write dirty tail's %d frames in %d bytes — recovery is scaling with history, not dirt",
				dlt.ReplayedRecords, dlt.FramesAuthenticated, dlt.BytesRead, tail, tail, tail*wal.WriteFrameBytes)
		}
		rows.add("curve", fmt.Sprintf("%d KiB: full replay %d writes (%d frames authenticated) in %v, delta chain %d writes (%d frames, %d bytes read) in %v",
			mem>>10, full.ReplayedRecords, full.FramesAuthenticated, full.Elapsed.Round(time.Microsecond),
			dlt.ReplayedRecords, dlt.FramesAuthenticated, dlt.BytesRead, dlt.Elapsed.Round(time.Microsecond)), fail)
	}
	return nil
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
