package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"github.com/securemem/morphtree/internal/secmem"
)

// Delta segment: one incremental checkpoint, chained to the epoch it was
// cut against. The payload travels inside the authenticated stream codec
// (CRC-framed, whole-file HMAC'd) under a context string that embeds both
// its own epoch and its base — a delta renamed to a different position in
// the chain fails authentication, exactly like a WAL segment moved across
// epochs.
//
// Payload layout (inside the stream, integers little-endian):
//
//	u64 seq | u64 base | u64 nshards |
//	nshards × (u64 coveredLSN, u64 coveredWrites) |
//	nshards × ( u64 nlines |
//	            nlines × (i32 level | u64 index | u32 len | line | u64 mac) )
//
// A line's record is secmem.DirtyLine.AppendRecord's; a shard's records are in
// no particular order (applying them commutes: a line is in a delta once).
const (
	deltaLineMax   = 4096          // sanity cap on a single line's length field
	deltaRecordMin = 4 + 8 + 4 + 8 // a record of an empty line
)

// DeltaShard is one shard's share of a delta being written: N line records,
// which Drain hands to emit encoded, a few at a time. *secmem.Cut is one.
type DeltaShard interface {
	N() int
	Drain(emit func(records []byte) error) error
}

// DeltaHeader describes a delta segment's position and coverage.
type DeltaHeader struct {
	// Seq is this delta's epoch; Base is the epoch it was cut against
	// (the previous full snapshot or delta in the chain).
	Seq, Base uint64
	// CoveredLSN / CoveredWrites are the per-shard journal positions the
	// chain up to and including this delta covers; recovery replays the
	// WAL tail from CoveredLSN+1.
	CoveredLSN, CoveredWrites []uint64
}

func deltaContext(seq, base uint64) string {
	return fmt.Sprintf("morphtree/ckpt/delta/%d/%d", seq, base)
}

// HibernateContext is the stream context for whole-shard hibernate /
// migration shipping.
const HibernateContext = "morphtree/ckpt/hibernate"

// WriteDelta persists a delta segment at path via temp file, fsync, and
// atomic rename (the caller fsyncs the directory). Each shard's lines are
// streamed from its Drain, in turn, so the delta is never in memory; key
// should be a role-derived delta key.
func WriteDelta[S DeltaShard](path string, key []byte, hdr DeltaHeader, shards []S) error {
	if len(hdr.CoveredLSN) != len(shards) || len(hdr.CoveredWrites) != len(shards) {
		return fmt.Errorf("ckpt: delta header covers %d shards, have %d", len(hdr.CoveredLSN), len(shards))
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: delta: %w", err)
	}
	werr := func() error {
		sw, err := NewStreamWriter(f, key, deltaContext(hdr.Seq, hdr.Base))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(sw)
		writeU64 := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			bw.Write(b[:])
		}
		writeU64(hdr.Seq)
		writeU64(hdr.Base)
		writeU64(uint64(len(shards)))
		for i := range shards {
			writeU64(hdr.CoveredLSN[i])
			writeU64(hdr.CoveredWrites[i])
		}
		for _, sh := range shards {
			writeU64(uint64(sh.N()))
			if err := sh.Drain(func(records []byte) error {
				_, err := bw.Write(records)
				return err
			}); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := sw.Close(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if werr != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: delta %s: %w", tmp, werr)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: delta %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: delta rename: %w", err)
	}
	return nil
}

// ReadDelta authenticates and decodes the delta segment at path. seq and
// base come from the file name; the authenticated payload must embed the
// same values (the stream context already binds them into the MAC, so a
// mismatch here means a bug, but it is checked all the same).
func ReadDelta(path string, key []byte, seq, base uint64) (DeltaHeader, [][]secmem.DirtyLine, error) {
	var hdr DeltaHeader
	f, err := os.Open(path)
	if err != nil {
		return hdr, nil, fmt.Errorf("ckpt: read delta: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return hdr, nil, fmt.Errorf("ckpt: read delta: %w", err)
	}
	sr, err := NewStreamReader(f, key, deltaContext(seq, base))
	if err != nil {
		return hdr, nil, err
	}
	br := bufio.NewReader(sr)
	bad := func(reason string) error {
		return &secmem.IntegrityError{Level: -1, Index: seq, Reason: "delta " + path + ": " + reason}
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, bad("payload truncated")
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, bad("payload truncated")
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	if hdr.Seq, err = readU64(); err != nil {
		return hdr, nil, err
	}
	if hdr.Base, err = readU64(); err != nil {
		return hdr, nil, err
	}
	if hdr.Seq != seq || hdr.Base != base {
		return hdr, nil, bad(fmt.Sprintf("embedded chain position %d←%d does not match name %d←%d", hdr.Seq, hdr.Base, seq, base))
	}
	nsh, err := readU64()
	if err != nil {
		return hdr, nil, err
	}
	// Counts are not authenticated yet — the MAC trailer comes last — so each
	// is believed only as far as the file has room for what it announces.
	if nsh == 0 || nsh > 1<<16 || nsh > uint64(st.Size())/16 {
		return hdr, nil, bad(fmt.Sprintf("unreasonable shard count %d", nsh))
	}
	hdr.CoveredLSN = make([]uint64, nsh)
	hdr.CoveredWrites = make([]uint64, nsh)
	for i := range hdr.CoveredLSN {
		if hdr.CoveredLSN[i], err = readU64(); err != nil {
			return hdr, nil, err
		}
		if hdr.CoveredWrites[i], err = readU64(); err != nil {
			return hdr, nil, err
		}
	}
	lines := make([][]secmem.DirtyLine, nsh)
	for i := range lines {
		n, err := readU64()
		if err != nil {
			return hdr, nil, err
		}
		if n > uint64(st.Size())/deltaRecordMin {
			return hdr, nil, bad(fmt.Sprintf("%d lines in a file of %d bytes", n, st.Size()))
		}
		sh := make([]secmem.DirtyLine, 0, n)
		for j := uint64(0); j < n; j++ {
			lvl, err := readU32()
			if err != nil {
				return hdr, nil, err
			}
			idx, err := readU64()
			if err != nil {
				return hdr, nil, err
			}
			ln, err := readU32()
			if err != nil {
				return hdr, nil, err
			}
			if ln > deltaLineMax {
				return hdr, nil, bad(fmt.Sprintf("line length %d exceeds limit", ln))
			}
			line := make([]byte, ln)
			if _, err := io.ReadFull(br, line); err != nil {
				return hdr, nil, bad("payload truncated")
			}
			mac, err := readU64()
			if err != nil {
				return hdr, nil, err
			}
			sh = append(sh, secmem.DirtyLine{Level: int32(lvl), Index: idx, Line: line, MAC: mac})
		}
		lines[i] = sh
	}
	// The MAC trailer sits after the payload; drain to verify it before
	// trusting anything decoded above.
	if err := sr.Drain(); err != nil {
		return hdr, nil, err
	}
	return hdr, lines, nil
}
