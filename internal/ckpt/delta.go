package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// State stream: the one shape engine state crosses a disk or a network in
// (DESIGN.md, "State stream"). A delta segment — one incremental checkpoint,
// chained to the epoch it was cut against — a full snapshot (a delta against
// nothing: base 0) and a replica's bootstrap blob (snapshot 1, its coverage
// the marks it resumes at) are all this payload inside the authenticated
// stream codec (CRC-framed, whole-stream HMAC'd) under a context string that
// embeds both its own epoch and its base — a file renamed to a different
// position in the chain fails authentication, exactly like a WAL segment
// moved across epochs.
//
// Payload layout (inside the stream, integers little-endian):
//
//	u64 seq | u64 base | u64 nshards |
//	nshards × (u64 coveredLSN, u64 coveredWrites) |
//	nshards × ( u64 nlines |
//	            nlines × (i32 level | u64 index | u32 len | line | u64 mac) )
//
// A shard's share — count and records — is written by a DeltaShard and read by
// secmem.ReadRecords; its records are in no particular order (applying them
// commutes: a line is in a stream once).

// DeltaShard is one shard's share of a state stream being written: the count
// of its line records, then the records. *secmem.Cut is one (the lines stamped
// since the last checkpoint), *secmem.Memory another (every stored line).
type DeltaShard interface {
	WriteRecords(w io.Writer) error
}

// DeltaHeader describes a state stream's position and coverage.
type DeltaHeader struct {
	// Seq is this stream's epoch; Base is the epoch it was cut against (the
	// previous full snapshot or delta in the chain), 0 for a full image.
	Seq, Base uint64
	// CoveredLSN / CoveredWrites are the per-shard journal positions the
	// chain up to and including this stream covers; recovery replays the
	// WAL tail from CoveredLSN+1.
	CoveredLSN, CoveredWrites []uint64
}

func deltaContext(seq, base uint64) string {
	return fmt.Sprintf("morphtree/ckpt/delta/%d/%d", seq, base)
}

// WriteState writes a state stream to w through sw, which it resets (pass
// new(StreamWriter), or the one kept from the last stream): the header, then
// each shard's share in turn, streamed from its WriteRecords so the state is
// never in memory twice; key should be a role-derived key.
func WriteState[S DeltaShard](sw *StreamWriter, w io.Writer, key []byte, hdr DeltaHeader, shards []S) error {
	if len(hdr.CoveredLSN) != len(shards) || len(hdr.CoveredWrites) != len(shards) {
		return fmt.Errorf("ckpt: state header covers %d shards, have %d", len(hdr.CoveredLSN), len(shards))
	}
	if err := sw.Reset(w, key, deltaContext(hdr.Seq, hdr.Base)); err != nil {
		return err
	}
	head := binary.LittleEndian.AppendUint64(nil, hdr.Seq)
	head = binary.LittleEndian.AppendUint64(head, hdr.Base)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(shards)))
	for i := range shards {
		head = binary.LittleEndian.AppendUint64(head, hdr.CoveredLSN[i])
		head = binary.LittleEndian.AppendUint64(head, hdr.CoveredWrites[i])
	}
	if _, err := sw.Write(head); err != nil {
		return err
	}
	for _, sh := range shards {
		if err := sh.WriteRecords(sw); err != nil {
			return err
		}
	}
	return sw.Close()
}

// WriteFile lands what write writes at path via temp file, fsync, and atomic
// rename (the caller fsyncs the directory): a crash leaves the whole file
// under its name, or a .tmp recovery sweeps.
func WriteFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: write %s: %w", tmp, err)
	}
	return nil
}

// WriteDelta persists a state stream at path: WriteState through WriteFile.
func WriteDelta[S DeltaShard](sw *StreamWriter, path string, key []byte, hdr DeltaHeader, shards []S) error {
	return WriteFile(path, func(w io.Writer) error { return WriteState(sw, w, key, hdr, shards) })
}

// ReadState authenticates the state stream in r, size bytes long, and hands
// apply each shard's share in turn: a reader placed at the shard's count,
// which apply must read to the end of the shard's records
// (secmem.ReadRecords). seq and base are where the caller found the stream —
// a file's name, a bootstrap's fixed position; the stream context binds them
// into the MAC, and the payload must embed the same values. The MAC trailer
// comes last, so apply sees bytes nothing has authenticated yet: what it
// builds may be served only once ReadState has returned nil. A payload that
// does not decode, or an error of apply's, is reported as it is if the stream
// then authenticates — it is sound and does not fit — and as the stream's
// *secmem.IntegrityError if not: damage explains it.
func ReadState(r io.Reader, size int64, key []byte, seq, base uint64, apply func(hdr DeltaHeader, shard int, records io.Reader) error) (DeltaHeader, error) {
	var hdr DeltaHeader
	sr, err := NewStreamReader(r, key, deltaContext(seq, base))
	if err != nil {
		return hdr, err
	}
	br := bufio.NewReader(sr)
	err = func() error {
		var head [24]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return fmt.Errorf("ckpt: state stream %d←%d: header: %w", seq, base, err)
		}
		hdr.Seq, hdr.Base = binary.LittleEndian.Uint64(head[0:]), binary.LittleEndian.Uint64(head[8:])
		if hdr.Seq != seq || hdr.Base != base {
			return fmt.Errorf("ckpt: state stream %d←%d embeds chain position %d←%d", seq, base, hdr.Seq, hdr.Base)
		}
		// Counts are not authenticated yet, so each is believed only as far
		// as the input has room for what it announces.
		nsh := binary.LittleEndian.Uint64(head[16:])
		if nsh == 0 || nsh > 1<<16 || nsh > uint64(size)/16 {
			return fmt.Errorf("ckpt: state stream %d←%d: unreasonable shard count %d", seq, base, nsh)
		}
		hdr.CoveredLSN = make([]uint64, nsh)
		hdr.CoveredWrites = make([]uint64, nsh)
		for i := range hdr.CoveredLSN {
			if _, err := io.ReadFull(br, head[:16]); err != nil {
				return fmt.Errorf("ckpt: state stream %d←%d: coverage: %w", seq, base, err)
			}
			hdr.CoveredLSN[i], hdr.CoveredWrites[i] = binary.LittleEndian.Uint64(head[0:]), binary.LittleEndian.Uint64(head[8:])
		}
		for i := 0; i < int(nsh); i++ {
			if err := apply(hdr, i, br); err != nil {
				return err
			}
		}
		return nil
	}()
	// The MAC trailer sits after the payload: verify it before the caller
	// trusts anything decoded or applied above.
	if derr := sr.Drain(); derr != nil {
		return hdr, derr
	}
	return hdr, err
}

// ReadDelta is ReadState over the file at path.
func ReadDelta(path string, key []byte, seq, base uint64, apply func(hdr DeltaHeader, shard int, records io.Reader) error) (DeltaHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return DeltaHeader{}, fmt.Errorf("ckpt: read state: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return DeltaHeader{}, fmt.Errorf("ckpt: read state: %w", err)
	}
	hdr, err := ReadState(f, st.Size(), key, seq, base, apply)
	if err != nil {
		return hdr, fmt.Errorf("%s: %w", path, err)
	}
	return hdr, nil
}
