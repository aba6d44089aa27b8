package secmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Read is AppendRead(nil, ·), so the differential is between the two ways a
// caller can hold the result: a fresh slice, and its own buffer with bytes of
// its own already in it.

// TestAppendReadMatchesRead drives a seeded op stream hot enough to overflow
// and re-encrypt, half of it in a tenant's range, and reads every line both
// ways.
func TestAppendReadMatchesRead(t *testing.T) {
	for name, cfg := range configs(1 << 20) {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, cfg)
			arity := uint64(m.Geometry().EncArity)
			if err := m.SetTenants([]TenantRange{{ID: "alpha", Lo: arity, Hi: 2 * arity}}); err != nil {
				t.Fatal(err)
			}
			const lines = 48 // of each counter block, so minors overflow soon
			rng := rand.New(rand.NewSource(23))
			prefix := []byte("caller's")
			buf := make([]byte, 0, len(prefix)+LineBytes)
			content := make([]byte, LineBytes)
			for op := 0; op < 10000; op++ {
				// Zipf-ish: a quarter of the ops hammer four lines.
				d := uint64(rng.Intn(lines))
				if rng.Intn(4) == 0 {
					d = uint64(rng.Intn(4))
				}
				if rng.Intn(2) == 0 {
					d += arity // alpha's
				}
				addr := d * LineBytes
				if rng.Intn(3) != 0 {
					rng.Read(content)
					if err := m.Write(addr, content); err != nil {
						t.Fatalf("op %d: write line %d: %v", op, d, err)
					}
					continue
				}
				want, err := m.Read(addr)
				if err != nil {
					t.Fatalf("op %d: Read line %d: %v", op, d, err)
				}
				got, err := m.AppendRead(append(buf[:0], prefix...), addr)
				if err != nil {
					t.Fatalf("op %d: AppendRead line %d: %v", op, d, err)
				}
				if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("op %d: line %d appended as %x, Read returned %x", op, d, got, want)
				}
				if &got[0] != &buf[:1][0] {
					t.Fatalf("op %d: AppendRead left a buffer with room for the line", op)
				}
			}
			if st := m.Stats(); st.Reencryptions == 0 || st.Tenants["alpha"].Writes == 0 {
				t.Fatalf("the stream re-encrypted %d lines in %d overflows and wrote %d of alpha's: it did not reach the paths it is for",
					st.Reencryptions, st.Overflows[0], st.Tenants["alpha"].Writes)
			}
		})
	}
}

// TestAppendReadUnwrittenAndFailed pins the two edges of the contract: a
// never-written line appends zeros, and a line that does not verify — a
// flipped data bit, MAC bit or counter bit — returns nil with the error Read
// returns and has written nothing, not even into dst's spare capacity.
func TestAppendReadUnwrittenAndFailed(t *testing.T) {
	m := mustNew(t, morphConfig(1<<20))
	got, err := m.AppendRead([]byte{1, 2}, 5*LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{1, 2}, make([]byte, LineBytes)...); !bytes.Equal(got, want) {
		t.Fatalf("a never-written line appended as %x", got)
	}

	tampers := map[string]func(*Memory){
		"data bit": func(m *Memory) { m.Store().FlipBit(1, 5, 3) },
		"MAC bit": func(m *Memory) {
			mc, _ := m.Store().DataMAC(1)
			m.Store().SetDataMAC(1, mc^1)
		},
		"counter bit": func(m *Memory) {
			m.Store().FlipCounterBit(0, 0, 9, 2)
			m.FlushMetadataCache()
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			m := mustNew(t, morphConfig(1<<20))
			if err := m.Write(LineBytes, line(7)); err != nil {
				t.Fatal(err)
			}
			tamper(m)
			_, readErr := m.Read(LineBytes)
			want := wantIntegrityError(t, readErr, name)

			backing := bytes.Repeat([]byte{0xAA}, 2*LineBytes)
			got, err := m.AppendRead(backing[:8], LineBytes)
			if got != nil {
				t.Fatalf("a failed AppendRead returned %d bytes", len(got))
			}
			if ie := wantIntegrityError(t, err, name); !reflect.DeepEqual(ie, want) {
				t.Fatalf("AppendRead failed with %v, Read with %v", ie, want)
			}
			if !bytes.Equal(backing, bytes.Repeat([]byte{0xAA}, 2*LineBytes)) {
				t.Fatalf("a failed AppendRead wrote into dst: %x", backing)
			}
		})
	}
}
