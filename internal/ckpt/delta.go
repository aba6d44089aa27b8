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
// chained to the epoch it was cut against — and a full snapshot (a delta
// against nothing: base 0, which a replica also bootstraps from, resuming at
// the marks its coverage holds) are both this payload inside the authenticated
// stream codec (each frame tagged by one MAC chain) under a context string that
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
// since the last checkpoint or, from floor 0, every stored line), and
// *secmem.Memory another (every stored line, under one hold of its lock).
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

// WriteDelta persists a state stream at path through WriteFile, writing it
// through sw, which it resets (pass new(StreamWriter), or the one kept from
// the last stream): the header, then each shard's share in turn, streamed
// from its WriteRecords so the state is never in memory twice; key should be
// a role-derived key.
func WriteDelta[S DeltaShard](sw *StreamWriter, path string, key []byte, hdr DeltaHeader, shards []S) error {
	if len(hdr.CoveredLSN) != len(shards) || len(hdr.CoveredWrites) != len(shards) {
		return fmt.Errorf("ckpt: state header covers %d shards, have %d", len(hdr.CoveredLSN), len(shards))
	}
	head := binary.LittleEndian.AppendUint64(nil, hdr.Seq)
	head = binary.LittleEndian.AppendUint64(head, hdr.Base)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(shards)))
	for i := range shards {
		head = binary.LittleEndian.AppendUint64(head, hdr.CoveredLSN[i])
		head = binary.LittleEndian.AppendUint64(head, hdr.CoveredWrites[i])
	}
	return WriteFile(path, func(w io.Writer) error {
		if err := sw.Reset(w, key, deltaContext(hdr.Seq, hdr.Base)); err != nil {
			return err
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
	})
}

// ReadState authenticates the state stream in r and hands apply each shard's
// share in turn: a reader placed at the shard's count, which apply must read
// to the end of the shard's records (secmem.ReadRecords). seq and base are
// where the caller found the stream — a file's name, or the base a replica
// asked its primary for; the stream context binds them into the tags, and the
// payload must embed the same values. apply only ever reads bytes whose frame
// tag has checked, but only the end frame says the stream is whole: what it
// builds may be served only once ReadState has returned nil. A stream that
// fails authentication is reported as its *secmem.IntegrityError, whatever
// apply made of it; any other error — a payload that does not decode, or one
// of apply's — is reported as it is.
func ReadState(r io.Reader, key []byte, seq, base uint64, apply func(hdr DeltaHeader, shard int, records io.Reader) error) (DeltaHeader, error) {
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
		nsh := binary.LittleEndian.Uint64(head[16:])
		if nsh == 0 || nsh > 1<<16 {
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
	if err == nil {
		_, err = io.Copy(io.Discard, sr) // on to the end frame
	}
	if sr.err != nil && sr.err != io.EOF {
		return hdr, sr.err // the stream failed under whatever err says
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
	hdr, err := ReadState(f, key, seq, base, apply)
	if err != nil {
		return hdr, fmt.Errorf("%s: %w", path, err)
	}
	return hdr, nil
}

// WriteSealed lands body at path through WriteFile as a stream of its own
// under key and context: one frame, for a body up to ChunkBytes. A data
// directory keeps the small facts a restart must trust this way.
func WriteSealed(path string, key []byte, context string, body []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		var sw StreamWriter
		if err := sw.Reset(w, key, context); err != nil {
			return err
		}
		if _, err := sw.Write(body); err != nil {
			return err
		}
		return sw.Close()
	})
}

// ReadSealed returns the body of the WriteSealed file at path once its end
// tag has checked (NewStreamReader's errors), or nil if there is no file.
func ReadSealed(path string, key []byte, context string) ([]byte, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	defer f.Close()
	sr, err := NewStreamReader(f, key, context)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(sr)
}
