package mac

import (
	"bufio"
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"
)

// The line MAC's reference: SP 800-38D written out the long way, with
// GF(2^128) multiplication one bit at a time (Algorithm 1) and crypto/aes as
// the block cipher. It shares no code with Keyer's evaluation, which runs
// GHASH through crypto/cipher's GCM.

// gfMul is X·Y in GCM's GF(2^128): bit 0 is the leftmost bit of byte 0, and
// R = 11100001 || 0^120.
func gfMul(x, y [16]byte) [16]byte {
	var z [16]byte
	v := y
	for i := 0; i < 128; i++ {
		if x[i/8]>>(7-uint(i%8))&1 == 1 {
			for j := range z {
				z[j] ^= v[j]
			}
		}
		lsb := v[15] & 1
		for j := 15; j > 0; j-- {
			v[j] = v[j]>>1 | v[j-1]<<7
		}
		v[0] >>= 1
		if lsb == 1 {
			v[0] ^= 0xe1
		}
	}
	return z
}

// refGHASH is GHASH_H(A || 0^u || C || 0^v || [len(A)]64 || [len(C)]64).
func refGHASH(h [16]byte, a, c []byte) [16]byte {
	var y [16]byte
	absorb := func(data []byte) {
		for len(data) > 0 {
			var blk [16]byte
			n := copy(blk[:], data)
			data = data[n:]
			for j := range y {
				y[j] ^= blk[j]
			}
			y = gfMul(y, h)
		}
	}
	absorb(a)
	absorb(c)
	var lens [16]byte
	binary.BigEndian.PutUint64(lens[0:], uint64(len(a))*8)
	binary.BigEndian.PutUint64(lens[8:], uint64(len(c))*8)
	absorb(lens[:])
	return y
}

// refGCMTag is GCM's full tag for a 96-bit IV over additional data a and
// ciphertext c: GHASH_H(a, c) XOR E_K(IV || 0^31 || 1), H = E_K(0^128).
func refGCMTag(block cipher.Block, iv, a, c []byte) [16]byte {
	var h, j0 [16]byte
	block.Encrypt(h[:], h[:])
	copy(j0[:], iv)
	j0[15] = 1
	block.Encrypt(j0[:], j0[:])
	s := refGHASH(h, a, c)
	for i := range s {
		s[i] ^= j0[i]
	}
	return s
}

// referenceMAC is the line MAC from its definition: K1 and K2 are
// HMAC-SHA256(key, label) truncated to 16 bytes, the tag is
// AES_K2(GHASH_H(msg) XOR E_K1(J0)) under the zero IV, and the MAC is its
// first eight bytes, little-endian, truncated to width.
func referenceMAC(key []byte, width Width, domain, addr, counter uint64, content []byte) uint64 {
	sub := func(label string) cipher.Block {
		h := hmac.New(sha256.New, key)
		h.Write([]byte(label))
		b, err := aes.NewCipher(h.Sum(nil)[:16])
		if err != nil {
			panic(err)
		}
		return b
	}
	msg := make([]byte, 24, 24+len(content))
	binary.LittleEndian.PutUint64(msg[0:], domain)
	binary.LittleEndian.PutUint64(msg[8:], addr)
	binary.LittleEndian.PutUint64(msg[16:], counter)
	msg = append(msg, content...)
	tag := refGCMTag(sub("morphtree/mac/ghash"), make([]byte, 12), msg, nil)
	sub("morphtree/mac/fin").Encrypt(tag[:], tag[:])
	v := binary.LittleEndian.Uint64(tag[:8])
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The reference against the published GCM test vectors (McGrew and Viega,
// test cases 1, 2 and 4): a tag over nothing, over one block of ciphertext,
// and over additional data and ciphertext that both end mid-block.
func TestReferenceMatchesGCMVectors(t *testing.T) {
	for _, tc := range []struct {
		name, key, iv, aad, ct, tag string
	}{
		{"case 1", "00000000000000000000000000000000", "000000000000000000000000", "", "",
			"58e2fccefa7e3061367f1d57a4e7455a"},
		{"case 2", "00000000000000000000000000000000", "000000000000000000000000", "",
			"0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
		{"case 4", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
			"feedfacedeadbeeffeedfacedeadbeefabaddad2",
			"42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
			"5bc94fbc3221a5db94fae95ae7121a47"},
	} {
		block, err := aes.NewCipher(unhex(t, tc.key))
		if err != nil {
			t.Fatal(err)
		}
		got := refGCMTag(block, unhex(t, tc.iv), unhex(t, tc.aad), unhex(t, tc.ct))
		if want := unhex(t, tc.tag); !bytes.Equal(got[:], want) {
			t.Errorf("%s: reference tag %x, published %x", tc.name, got, want)
		}
	}
}

// testdata/golden_cw_macs.jsonl holds line MACs written by referenceMAC —
// the textbook above, never Keyer — for 16-, 24- and 32-byte keys at widths
// 54, 56 and 64 over 0-, 64- and 200-byte content. Every MAC in a version-3
// save, a version-2 checkpoint stream and a proof is one of these, so
// Keyer must agree with them on every bit. The file is written by
//
//	go test ./internal/mac -run TestGoldenLineMACs -args -write-golden-line-macs
//
// which only a change of the format may do, with a new file name.
var writeGoldenLineMACs = flag.Bool("write-golden-line-macs", false, "rewrite testdata/golden_cw_macs.jsonl from referenceMAC")

const goldenLineMACs = "testdata/golden_cw_macs.jsonl"

func TestGoldenLineMACs(t *testing.T) {
	if *writeGoldenLineMACs {
		writeGoldenLineMACFile(t)
	}
	rows := readGolden(t, goldenLineMACs)
	type cell struct{ keyLen, width int }
	seen := map[cell]bool{}
	for _, g := range rows {
		key, content := unhex(t, g.Key), unhex(t, g.Content)
		k, err := New(key, Width(g.Width))
		if err != nil {
			t.Fatal(err)
		}
		var got, ref uint64
		switch g.Kind {
		case "data":
			got = k.Data(content, g.Counter, g.Addr)
			ref = referenceMAC(key, Width(g.Width), 0xFFFF, g.Addr, g.Counter, content)
		case "counter":
			got = k.Counter(content, g.Counter, g.Level, g.Addr)
			ref = referenceMAC(key, Width(g.Width), uint64(g.Level), g.Addr, g.Counter, content)
		default:
			t.Fatalf("golden kind %q", g.Kind)
		}
		if got != g.MAC || ref != g.MAC {
			t.Errorf("%s MAC, %d-byte key, width %d, %d-byte content: Keyer %#x, reference %#x, golden %#x",
				g.Kind, len(key), g.Width, len(content), got, ref, g.MAC)
		}
		seen[cell{len(key), g.Width}] = true
	}
	for _, keyLen := range []int{16, 24, 32} {
		for _, width := range []int{54, 56, 64} {
			if !seen[cell{keyLen, width}] {
				t.Errorf("no golden line MAC for a %d-byte key at width %d", keyLen, width)
			}
		}
	}
}

func writeGoldenLineMACFile(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, keyLen := range []int{16, 24, 32} {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, width := range []Width{Width54, Width56, Width64} {
			for _, n := range []int{0, 64, 200} {
				content := make([]byte, n)
				rng.Read(content)
				counter, addr, index := rng.Uint64(), rng.Uint64(), rng.Uint64()
				level := 1 + rng.Intn(8)
				for _, g := range []goldenMAC{
					{Kind: "data", Addr: addr, MAC: referenceMAC(key, width, 0xFFFF, addr, counter, content)},
					{Kind: "counter", Addr: index, Level: level, MAC: referenceMAC(key, width, uint64(level), index, counter, content)},
				} {
					g.Key, g.Width, g.Content, g.Counter = hex.EncodeToString(key), int(width), hex.EncodeToString(content), counter
					if err := enc.Encode(g); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := os.WriteFile(goldenLineMACs, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string) []goldenMAC {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []goldenMAC
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var g goldenMAC
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, g)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// FuzzKeyerMatchesReference holds Data, Counter, Record and Frame to the textbook
// for any key New accepts, any content up to 4 KiB and the three widths in
// use.
func FuzzKeyerMatchesReference(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), make([]byte, 64), uint64(0xFFFF), uint64(0x40), uint64(7))
	f.Add([]byte("k"), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(make([]byte, sha256.BlockSize), make([]byte, 4096), uint64(1), ^uint64(0), uint64(1)<<56)
	f.Fuzz(func(t *testing.T, key, content []byte, domain, addr, counter uint64) {
		if len(key) == 0 || len(key) > sha256.BlockSize || len(content) > 4096 {
			t.Skip()
		}
		for _, width := range []Width{Width54, Width56, Width64} {
			k, err := New(key, width)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceMAC(key, width, domain, addr, counter, content)
			// Twice, through both entry points where the domain allows: the
			// second evaluation runs on the scratch the first left behind.
			if got := k.compute(domain, addr, counter, content); got != want {
				t.Fatalf("%d-byte key, width %d, line MAC over %d bytes: got %#x, reference %#x", len(key), width, len(content), got, want)
			}
			if domain == 0xFFFF {
				if got := k.Data(content, counter, addr); got != want {
					t.Fatalf("%d-byte key, width %d, Data over %d bytes: got %#x, reference %#x", len(key), width, len(content), got, want)
				}
			} else if got := k.Counter(content, counter, int(domain), addr); got != want {
				t.Fatalf("%d-byte key, width %d, Counter over %d bytes: got %#x, reference %#x", len(key), width, len(content), got, want)
			}
			if got, want := k.Record(content), referenceMAC(key, width, recordDomain, 0, 0, content); got != want {
				t.Fatalf("%d-byte key, width %d, Record over %d bytes: got %#x, reference %#x", len(key), width, len(content), got, want)
			}
			if got, want := k.Frame(addr, counter, content), referenceMAC(key, width, frameDomain, addr, counter, content); got != want {
				t.Fatalf("%d-byte key, width %d, Frame over %d bytes: got %#x, reference %#x", len(key), width, len(content), got, want)
			}
		}
	})
}
