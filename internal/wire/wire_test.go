package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/secmem"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, OpWrite, payload); err != nil {
		t.Fatal(err)
	}
	tag, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tag != OpWrite || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: tag=%#x payload=%q", tag, got)
	}
	// Empty payload is legal: the body is just the tag byte.
	buf.Reset()
	if err := WriteFrame(&buf, OpVerify, nil); err != nil {
		t.Fatal(err)
	}
	tag, got, err = ReadFrame(&buf)
	if err != nil || tag != OpVerify || len(got) != 0 {
		t.Fatalf("empty payload round trip: tag=%#x payload=%q err=%v", tag, got, err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestReadFrameTruncated covers every way a frame can be cut off: inside
// the length prefix, and inside the body. Both must return ErrTruncated —
// never a clean EOF, never a panic.
func TestReadFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, OpRead, AppendAddr(nil, 0x1000)); err != nil {
		t.Fatal(err)
	}
	whole := full.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d bytes: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestReadFrameOversized sends a hostile length prefix claiming a body far
// over MaxBody; ReadFrame must reject it before allocating.
func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxBody+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("got %v, want ErrOversized", err)
	}
	binary.BigEndian.PutUint32(hdr[:], ^uint32(0))
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrOversized) {
		t.Fatalf("max u32 length: got %v, want ErrOversized", err)
	}
}

func TestReadFrameEmptyBody(t *testing.T) {
	var hdr [4]byte // length 0: no opcode byte at all
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("got %v, want ErrEmptyFrame", err)
	}
}

// TestMidFrameConnectionDrop writes half a frame over a real duplex pipe
// and closes: the reader must surface ErrTruncated promptly, not hang.
func TestMidFrameConnectionDrop(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	errc := make(chan error, 1)
	go func() {
		_, _, err := ReadFrame(srv)
		errc <- err
	}()
	var full bytes.Buffer
	if err := WriteFrame(&full, OpWrite, make([]byte, 72)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(full.Bytes()[:10]); err != nil {
		t.Fatal(err)
	}
	client.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadFrame hung on a mid-frame connection drop")
	}
}

// TestStalledPeerDeadline checks that a reader guarded by a deadline
// returns a timeout instead of hanging when the peer goes silent
// mid-frame.
func TestStalledPeerDeadline(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	if err := srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Send only the length prefix, then stall forever.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		_, _ = client.Write(hdr[:])
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := ReadFrame(srv)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated (deadline-driven)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadFrame ignored the read deadline")
	}
}

func TestAddrAndWriteCodecs(t *testing.T) {
	addr, err := DecodeAddr(AppendAddr(nil, 0xdeadbeef40))
	if err != nil || addr != 0xdeadbeef40 {
		t.Fatalf("addr round trip: %#x, %v", addr, err)
	}
	if _, err := DecodeAddr([]byte{1, 2, 3}); err == nil {
		t.Fatal("short address payload accepted")
	}
	line := bytes.Repeat([]byte{0xab}, secmem.LineBytes)
	p, err := AppendWrite(nil, 0x80, line)
	if err != nil {
		t.Fatal(err)
	}
	gotAddr, gotLine, err := DecodeWrite(p)
	if err != nil || gotAddr != 0x80 || !bytes.Equal(gotLine, line) {
		t.Fatalf("write round trip: %#x, %v", gotAddr, err)
	}
	if _, _, err := DecodeWrite(p[:20]); err == nil {
		t.Fatal("short write payload accepted")
	}
	if _, err := AppendWrite(nil, 0, []byte("short")); err == nil {
		t.Fatal("short line accepted")
	}
}

func TestIntegrityErrorCrossesTheWire(t *testing.T) {
	orig := &secmem.IntegrityError{Level: 2, Index: 77, Reason: "MAC mismatch"}
	status, payload := EncodeError(orig)
	if status != StatusIntegrity {
		t.Fatalf("status %#x, want StatusIntegrity", status)
	}
	err := DecodeError(status, payload)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("decoded %T, want *secmem.IntegrityError", err)
	}
	if ie.Level != orig.Level || ie.Index != orig.Index || ie.Reason != orig.Reason {
		t.Fatalf("fields lost in transit: %+v != %+v", ie, orig)
	}
	// A data-line violation (Level -1) must survive the signed encoding.
	neg := &secmem.IntegrityError{Level: -1, Index: 3, Reason: "data"}
	st, p := EncodeError(neg)
	var ie2 *secmem.IntegrityError
	if !errors.As(DecodeError(st, p), &ie2) || ie2.Level != -1 {
		t.Fatalf("negative level mangled: %+v", ie2)
	}
	// Wrapped integrity errors are still recognized.
	st, _ = EncodeError(fmt.Errorf("shard 3: %w", orig))
	if st != StatusIntegrity {
		t.Fatalf("wrapped integrity error encoded as %#x", st)
	}
	// Plain errors come back as *RemoteError.
	st, p = EncodeError(errors.New("nope"))
	var re *RemoteError
	if st != StatusError || !errors.As(DecodeError(st, p), &re) || re.Msg != "nope" {
		t.Fatalf("plain error round trip failed: %#x %v", st, DecodeError(st, p))
	}
	// Busy sheds round-trip as *BusyError.
	st, p = EncodeError(&BusyError{Msg: "at capacity"})
	var be *BusyError
	if st != StatusBusy || !errors.As(DecodeError(st, p), &be) || be.Msg != "at capacity" {
		t.Fatalf("busy round trip failed: %#x %v", st, DecodeError(st, p))
	}
	// Truncated integrity payloads must error, not panic.
	if err := DecodeError(StatusIntegrity, []byte{1, 2}); err == nil {
		t.Fatal("short integrity payload accepted")
	}
	if err := DecodeError(0x7f, nil); err == nil {
		t.Fatal("unknown status accepted")
	}
}

func TestStatsCodec(t *testing.T) {
	in := secmem.Stats{Reads: 5, Writes: 7, Increments: []uint64{7, 1}, Overflows: []uint64{1, 0}, Rebases: []uint64{2, 0}, Reencryptions: 3, VerifiedFetches: 9}
	p, err := EncodeStats(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Writes != in.Writes || out.Reencryptions != in.Reencryptions || len(out.Increments) != 2 || out.Increments[0] != 7 {
		t.Fatalf("stats round trip: %+v", out)
	}
	if _, err := DecodeStats([]byte("{not json")); err == nil {
		t.Fatal("bad stats payload accepted")
	}
}
