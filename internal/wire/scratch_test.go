package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"testing/iotest"

	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// A length prefix is four bytes anyone can send: until the body behind it has
// arrived it must cost the reader nothing. The frame here claims MaxBody,
// delivers ten bytes and hangs up.
func TestLengthPrefixSizesNoAllocation(t *testing.T) {
	stream := binary.BigEndian.AppendUint32(nil, MaxBody)
	stream = append(stream, "ten bytes!"...)
	fr := NewFrameReader(bytes.NewReader(stream))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fr.ReadFrame()
	runtime.ReadMemStats(&after)

	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= scratchKeep {
		t.Fatalf("a %d-byte claim backed by ten bytes made the reader allocate %d bytes", MaxBody, got)
	}
}

// A large frame still round-trips byte for byte, through a reader that hands
// the body over in pieces, and neither side's scratch outlives it: after the
// next small frame both are small again.
func TestLargeFrameRoundTripsAndReleasesScratch(t *testing.T) {
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	small := []byte("sixteen bytes ok")

	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	fr := NewFrameReader(iotest.HalfReader(&stream))
	if err := fw.WriteFrame(OpReplicate, big); err != nil {
		t.Fatal(err)
	}
	tag, got, err := fr.ReadFrame()
	if err != nil || tag != OpReplicate || !bytes.Equal(got, big) {
		t.Fatalf("1 MiB frame: tag %#x, %d bytes, err %v; payload intact: %v", tag, len(got), err, bytes.Equal(got, big))
	}
	if err := fw.WriteFrame(OpWrite, small); err != nil {
		t.Fatal(err)
	}
	tag, got, err = fr.ReadFrame()
	if err != nil || tag != OpWrite || !bytes.Equal(got, small) {
		t.Fatalf("frame after the large one: tag %#x payload %q err %v", tag, got, err)
	}
	if cap(fw.buf) > scratchKeep || cap(fr.buf) > scratchKeep {
		t.Fatalf("after a 16-byte frame the scratches hold %d (writer) and %d (reader) bytes, want at most %d",
			cap(fw.buf), cap(fr.buf), scratchKeep)
	}
}

// FuzzReadFrame holds the reader to the decoders' invariant on bytes from
// anyone: a typed error, or a frame that is exactly what the stream said —
// and never more memory than the stream's own length accounts for.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = WriteFrame(&good, OpRead, AppendAddr(nil, 0x40))
	f.Add(good.Bytes())
	f.Add(append(good.Bytes(), good.Bytes()...))
	f.Add(good.Bytes()[:7])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, OpRead})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBody+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 3*growFloor), make([]byte, 3*growFloor)...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(stream)))
		for rest := stream; ; {
			tag, payload, err := fr.ReadFrame()
			if cap(fr.buf) > max(growFloor, 2*len(stream)) {
				t.Fatalf("%d bytes of input grew the scratch to %d", len(stream), cap(fr.buf))
			}
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) && !errors.Is(err, ErrEmptyFrame) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			n := int(binary.BigEndian.Uint32(rest))
			if tag != rest[lenBytes] || !bytes.Equal(payload, rest[lenBytes+1:lenBytes+n]) {
				t.Fatalf("frame of %d bytes decoded as tag %#x payload %x", n, tag, payload)
			}
			rest = rest[lenBytes+n:]
		}
	})
}

// TestCodecRoundTripDoesNotAllocate is the trip the benchmark's wire rungs
// make — Append*, FrameWriter, FrameReader, Decode* over a bytes.Buffer, a
// request and its response — which wire.codec_allocs counts.
func TestCodecRoundTripDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	fw, fr := NewFrameWriter(&buf), NewFrameReader(&buf)
	var line [secmem.LineBytes]byte
	var payload []byte
	trip := func(write bool) {
		var err error
		if write {
			if payload, err = AppendWrite(payload[:0], 0x1000, line[:]); err != nil {
				t.Fatal(err)
			}
			err = fw.WriteFrame(OpWrite, payload)
		} else {
			payload = AppendAddr(payload[:0], 0x1000)
			err = fw.WriteFrame(OpRead, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if write {
			_, _, err = DecodeWrite(body)
		} else {
			_, err = DecodeAddr(body)
		}
		if err != nil {
			t.Fatal(err)
		}
		// The response: a line for a read, nothing for a write.
		var resp []byte
		if !write {
			resp = line[:]
		}
		if err := fw.WriteFrame(StatusOK, resp); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	for _, write := range []bool{false, true} {
		if n := testing.AllocsPerRun(200, func() { trip(write) }); n != 0 {
			t.Errorf("codec round trip (write=%v) allocates %v times, want 0", write, n)
		}
	}
}

// TestClientAllocations pins the client's side of a round trip against a peer
// that allocates nothing itself: a Write costs nothing, a Read the fresh copy
// its contract promises and nothing else.
func TestClientAllocations(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	near, far := net.Pipe()
	defer near.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer far.Close()
		serveLines(far)
	}()
	cl := NewClient(near, 0)
	line := make([]byte, secmem.LineBytes)
	if n := testing.AllocsPerRun(200, func() {
		if err := cl.Write(0x40, line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Client.Write allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cl.Read(0x40); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Client.Read allocates %v times, want exactly 1 (the returned line)", n)
	}
	cl.Close()
	<-served

	// The same two ops through NewResilient over a loopback listener: the
	// retry policy costs nothing on an op that succeeds.
	addr, stop := flakyServer(t, func(_ int, conn net.Conn) { serveLines(conn) })
	defer stop()
	rc := NewResilient(ResilientConfig{Addrs: []string{addr}})
	defer rc.Close()
	if err := rc.Ping(); err != nil { // the dial, outside the counted runs
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := rc.Write(0x40, line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resilient Client.Write allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := rc.Read(0x40); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("resilient Client.Read allocates %v times, want exactly 1 (the returned line)", n)
	}
}

// serveLines answers every request on conn with OK, a zero line for a
// read, allocating nothing itself.
func serveLines(conn net.Conn) {
	fr, fw := NewFrameReader(conn), NewFrameWriter(conn)
	var line [secmem.LineBytes]byte
	for {
		op, _, err := fr.ReadFrame()
		if err != nil {
			return
		}
		var body []byte
		if op == OpRead {
			body = line[:]
		}
		if fw.WriteFrame(StatusOK, body) != nil {
			return
		}
	}
}
