package durable

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/secmem"
)

// mcst2Reader is the state stream's reader as it was before each frame
// carried a tag of the line MAC's chain: "MCST" version 2 (and version 1,
// which differs only in the version word), a CRC-32C after each frame and
// one HMAC-SHA256 over the whole stream after the end frame. It is the
// differential oracle that reads the cw_* and cwwal_* fixtures, and the
// older ones, so their payloads can be held to the current generation's.
type mcst2Reader struct {
	r       *bufio.Reader
	mac     hash.Hash
	context string
	frame   []byte
	off     int
	done    bool
	err     error
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newMCST2Reader(r io.Reader, key []byte, context string, version uint64) (*mcst2Reader, error) {
	sr := &mcst2Reader{r: bufio.NewReader(r), mac: hmac.New(sha256.New, key), context: context}
	hdr := make([]byte, container.HeaderBytes+2)
	if _, err := io.ReadFull(sr.r, hdr); err != nil {
		return nil, fmt.Errorf("%s: header truncated", context)
	}
	sr.mac.Write(hdr)
	if err := container.CheckHeader(hdr, "MCST", version); err != nil {
		return nil, err
	}
	ctx := make([]byte, binary.LittleEndian.Uint16(hdr[container.HeaderBytes:]))
	if _, err := io.ReadFull(sr.r, ctx); err != nil {
		return nil, fmt.Errorf("%s: context truncated", context)
	}
	sr.mac.Write(ctx)
	if string(ctx) != context {
		return nil, fmt.Errorf("stream context %q does not match role %q", ctx, context)
	}
	return sr, nil
}

func (sr *mcst2Reader) Read(p []byte) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	for sr.off == len(sr.frame) {
		if sr.done {
			sr.err = io.EOF
			return 0, io.EOF
		}
		if err := sr.nextFrame(); err != nil {
			sr.err = err
			return 0, err
		}
	}
	n := copy(p, sr.frame[sr.off:])
	sr.off += n
	return n, nil
}

func (sr *mcst2Reader) nextFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return fmt.Errorf("%s: frame header truncated", sr.context)
	}
	sr.mac.Write(hdr[:])
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		trailer := make([]byte, sha256.Size)
		if _, err := io.ReadFull(sr.r, trailer); err != nil {
			return fmt.Errorf("%s: MAC trailer truncated", sr.context)
		}
		if !hmac.Equal(sr.mac.Sum(nil), trailer) {
			return fmt.Errorf("%s: stream MAC mismatch", sr.context)
		}
		sr.done = true
		sr.frame, sr.off = nil, 0
		return nil
	}
	if n > 1<<20 {
		return fmt.Errorf("%s: frame length %d exceeds limit", sr.context, n)
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return fmt.Errorf("%s: frame truncated", sr.context)
	}
	sr.mac.Write(buf)
	if crc32.Checksum(buf[:n], castagnoli) != binary.LittleEndian.Uint32(buf[n:]) {
		return fmt.Errorf("%s: frame CRC mismatch", sr.context)
	}
	sr.frame, sr.off = buf[:n], 0
	return nil
}

// mcst2Payload authenticates the "MCST" stream of the given version at path,
// the state stream of chain position seq←base, and returns its payload.
func mcst2Payload(t *testing.T, path string, version, seq, base uint64) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := newMCST2Reader(bytes.NewReader(raw), deltaKey(testKey), fmt.Sprintf("morphtree/ckpt/delta/%d/%d", seq, base), version)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	payload, err := io.ReadAll(sr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return payload
}

// st3Payload is the payload of the current generation's state stream at path.
func st3Payload(t *testing.T, path string, seq, base uint64) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := ckpt.NewStreamReader(f, deltaKey(testKey), fmt.Sprintf("morphtree/ckpt/delta/%d/%d", seq, base))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	payload, err := io.ReadAll(sr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return payload
}

// payloadShards reads a trusted state-stream payload into each shard's
// lines.
func payloadShards(t *testing.T, payload []byte) [][]secmem.DirtyLine {
	t.Helper()
	nsh := binary.LittleEndian.Uint64(payload[16:])
	r := bytes.NewReader(payload[24+16*nsh:])
	var lines [][]secmem.DirtyLine
	for range nsh {
		shard, err := keepRecords(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, shard)
	}
	return lines
}

// checkSamePayload holds an "MCST" version-2 file to the current
// generation's: the oracle's payload of one is the other's byte for byte.
func checkSamePayload(t *testing.T, v2, st3 string, seq, base uint64) {
	t.Helper()
	if !bytes.Equal(mcst2Payload(t, v2, 2, seq, base), st3Payload(t, st3, seq, base)) {
		t.Fatalf("%s does not carry %s's payload byte for byte", st3, v2)
	}
}
