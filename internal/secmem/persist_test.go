package secmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/securemem/morphtree/internal/counters"
)

func saveLoad(t *testing.T, cfgName string) (*Memory, *Memory, Config) {
	t.Helper()
	cfg := configs(1 << 20)[cfgName]
	m := mustNew(t, cfg)
	for i := uint64(0); i < 200; i++ {
		if err := m.Write(i*64*7%(1<<20)&^63, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return m, loaded, cfg
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, name := range []string{"SC-64", "VAULT", "MorphCtr-128", "MorphCtr-128-ZCC"} {
		t.Run(name, func(t *testing.T) {
			orig, loaded, _ := saveLoad(t, name)
			// Every line written to the original must verify and
			// match after loading.
			for i := uint64(0); i < 200; i++ {
				addr := i * 64 * 7 % (1 << 20) &^ 63
				want, err := orig.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Read(addr)
				if err != nil {
					t.Fatalf("read after load: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("line %#x mismatch after load", addr)
				}
			}
		})
	}
}

func TestLoadedMemoryRemainsWritable(t *testing.T) {
	_, loaded, _ := saveLoad(t, "MorphCtr-128")
	if err := loaded.Write(0, line(99)); err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(99)) {
		t.Fatal("write after load failed")
	}
	if err := loaded.VerifyAll(); err != nil {
		t.Fatalf("loaded memory fails verification: %v", err)
	}
}

func TestLoadRejectsWrongConfig(t *testing.T) {
	cfg := configs(1 << 20)["SC-64"]
	m := mustNew(t, cfg)
	m.Write(0, line(1))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	wrongOrg := configs(1 << 20)["MorphCtr-128"]
	if _, err := Load(wrongOrg, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong organization must fail")
	}
	wrongSize := cfg
	wrongSize.MemoryBytes = 2 << 20
	if _, err := Load(wrongSize, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong capacity must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cfg := configs(1 << 20)["SC-64"]
	if _, err := Load(cfg, bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := Load(cfg, bytes.NewReader([]byte("not a save file at all"))); err == nil {
		t.Error("garbage input must fail")
	}
	// Truncated valid prefix.
	m := mustNew(t, cfg)
	m.Write(0, line(1))
	var buf bytes.Buffer
	m.Save(&buf)
	if _, err := Load(cfg, bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated input must fail")
	}
}

func TestTamperedSaveFileDetectedOnRead(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	m.Write(0, line(1))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit somewhere in the stored state (past the header and
	// the trusted root). The untrusted contents are self-protecting.
	raw := buf.Bytes()
	raw[len(raw)-10] ^= 0x04
	loaded, err := Load(cfg, bytes.NewReader(raw))
	if err != nil {
		// Structural corruption is also an acceptable detection.
		return
	}
	if _, err := loaded.Read(0); err == nil {
		t.Fatal("tampered save file read back cleanly")
	} else {
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("got %v, want IntegrityError", err)
		}
	}
}

func TestSaveDeterministic(t *testing.T) {
	cfg := Config{
		MemoryBytes: 1 << 20,
		Enc:         counters.MorphSpec(true),
		Tree:        []counters.Spec{counters.MorphSpec(true)},
		Key:         testKey,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		m.Write(i*64, line(byte(i)))
	}
	var a, b bytes.Buffer
	if err := m.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save is not deterministic")
	}
}

// FuzzLoad feeds Load raw bytes (mode 0) and a valid Save stream with the
// bytes spliced over it at an offset (mode 1): a Save stream is not
// authenticated, so every count and length in it is the input's word. Whatever
// comes back is an error or a state — its Save is a fixed point of Load then
// Save, and it verifies or fails verification as tampering, nothing else — and
// nothing is allocated on a number's say-so: an engine of this geometry with
// every chunk it can hold, and a small multiple of the input.
func FuzzLoad(f *testing.F) {
	cfg := morphConfig(64 << 10)
	m := mustNew(f, cfg)
	for i := uint64(0); i < 48; i++ {
		if err := m.Write(i*21%1024*LineBytes, line(byte(i))); err != nil {
			f.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		f.Fatal(err)
	}
	bomb := binary.LittleEndian.AppendUint64(AppendHeader(nil, persistMagic, persistVersion), 1<<62)
	f.Add(append(bomb, make([]byte, 24)...), uint8(0), uint32(0)) // 44 bytes: a count of 2^62 and room for no record
	f.Add(append(AppendHeader(nil, persistMagic, 1), make([]byte, 32)...), uint8(0), uint32(0))
	f.Add(valid.Bytes(), uint8(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, uint8(1), uint32(HeaderBytes+8+12)) // the first record's length
	f.Add([]byte{0x40}, uint8(1), uint32(1000))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint32) {
		input := data
		if mode%2 == 1 {
			input = bytes.Clone(valid.Bytes())
			copy(input[int(at)%len(input):], data)
		}
		var loaded *Memory
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, err = Load(cfg, bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+16*uint64(len(input)) {
			t.Fatalf("loading %d bytes allocated %d", len(input), got)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := loaded.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := Load(cfg, bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("what Load accepted does not load once saved: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save of a loaded state is not a fixed point of Load then Save")
		}
		var ie *IntegrityError
		if err := loaded.VerifyAll(); err != nil && !errors.As(err, &ie) {
			t.Fatalf("a loaded state fails verification with something other than tampering: %v", err)
		}
	})
}
