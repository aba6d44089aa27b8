package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/racedetect"
	"github.com/securemem/morphtree/internal/secmem"
)

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// copyFixture copies the files of the fixture directory src into a fresh
// directory, so a test may open it read-write.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range dirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// reopen closes n and opens its directory again under cfg's flags.
func reopen(t *testing.T, n *Node, mutate func(*Config)) *Node {
	t.Helper()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return openBare(t, n.shcfg, n.dcfg.Dir, mutate)
}

// TestMetaRoundTrips: the epoch and role a node persists are the ones it comes
// back with, whatever its startup flags say — a promoted replica restarts
// leading at its epoch, a deposed primary restarts following at the epoch that
// deposed it (TestMetaPersistsDeposedEpoch has the fenced role).
func TestMetaRoundTrips(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	n := openBare(t, shcfg, t.TempDir(), func(c *Config) {
		c.Leader = "127.0.0.1:1"
		c.Lease = time.Nanosecond
	})
	time.Sleep(time.Millisecond)
	if _, err := n.Promote(3, []uint64{0, 0}); err != nil {
		t.Fatal(err)
	}
	n = reopen(t, n, func(c *Config) { c.Leader = "127.0.0.1:1" })
	if ri := n.Route(); ri.Role != RolePrimary || ri.Epoch != 3 {
		t.Fatalf("a promoted node restarted as %s at epoch %d, want %s at 3", ri.Role, ri.Epoch, RolePrimary)
	}
	if err := n.Follow(5, "127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	n = reopen(t, n, func(c *Config) { c.Primary = true })
	if ri := n.Route(); ri.Role != RoleReplica || ri.Epoch != 5 {
		t.Fatalf("a deposed node restarted as %s at epoch %d, want %s at 5", ri.Role, ri.Epoch, RoleReplica)
	}
}

// TestMetaIsSealed: cluster.META is a one-frame state stream under the key and
// context of its role. A byte flipped anywhere past the stream's 12-byte
// container header — the context, the frame's length, the epoch, the role, a
// tag, the end frame — is an *secmem.IntegrityError at Open, a byte of the
// header a *secmem.VersionError; either way the node does not open and the
// store is not touched.
func TestMetaIsSealed(t *testing.T) {
	shcfg := testShardCfg(t, 2, 1<<13)
	dir := t.TempDir()
	n := openBare(t, shcfg, dir, func(c *Config) { c.Primary = true })
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, metaFile)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range file {
		flipped := bytes.Clone(file)
		flipped[i] ^= 0x10
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		cfg := tuned("127.0.0.1:9")
		cfg.Primary = true
		_, err := Open(shcfg, durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
		var ve *secmem.VersionError
		var ie *secmem.IntegrityError
		if i < container.HeaderBytes && (!errors.As(err, &ve) || errors.As(err, &ie)) {
			t.Fatalf("header byte %d flipped: %v, want a *secmem.VersionError", i, err)
		} else if i >= container.HeaderBytes && !errors.As(err, &ie) {
			t.Fatalf("byte %d of %d flipped: %v, want a *secmem.IntegrityError", i, len(file), err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("byte %d flipped: a refused open changed the data directory", i)
		}
	}
}

// TestMetaOfAnEarlierFormatIsAVersionError: json_meta_dir is a node's
// directory as the generation before the sealed stream wrote it, its
// cluster.META the JSON {"epoch":7,"role":"fenced"}
// (internal/durable/testdata/mttlgen.go.txt). Open refuses it with a
// *secmem.VersionError, whatever the flags, and leaves every file of the
// directory as it was: a deposed primary is not trusted back at epoch 1.
func TestMetaOfAnEarlierFormatIsAVersionError(t *testing.T) {
	dir := copyFixture(t, "testdata/json_meta_dir")
	before := dirFiles(t, dir)
	for _, primary := range []bool{true, false} {
		cfg := tuned("127.0.0.1:9")
		cfg.Primary, cfg.Leader = primary, "127.0.0.1:1"
		_, err := Open(testShardCfg(t, 2, 1<<13), durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
		var ve *secmem.VersionError
		var ie *secmem.IntegrityError
		if !errors.As(err, &ve) || ve.Magic != `{"ep` || errors.As(err, &ie) {
			t.Fatalf("primary=%v: %v, want a *secmem.VersionError naming the JSON", primary, err)
		}
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused open changed the data directory: %d files, was %d", len(after), len(before))
	}
}

// TestForeignFormatNamesNoVersion: a file of another format is refused
// naming its magic and what this build reads, never a version read off bytes
// that hold none: the JSON cluster.META's bytes 4-11 read as a version are
// 2462403819089716079. A sealed file of an older version of this format still
// names both versions.
func TestForeignFormatNamesNoVersion(t *testing.T) {
	cfg := tuned("127.0.0.1:9")
	cfg.Primary = true
	_, err := Open(testShardCfg(t, 2, 1<<13), durable.Config{Dir: copyFixture(t, "testdata/json_meta_dir"), Sync: durable.SyncAlways}, cfg)
	var ve *secmem.VersionError
	if !errors.As(err, &ve) || ve.Magic == ve.Want {
		t.Fatalf("%v, want a *secmem.VersionError naming another format", err)
	}
	if strings.Contains(err.Error(), "2462403819089716079") {
		t.Fatalf("%q prints a foreign format's bytes as a version", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, metaFile)
	if err := ckpt.WriteSealed(path, metaKey(testKey), metaContext, appendMeta(nil, 5, RolePrimary)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version := binary.LittleEndian.Uint64(raw[4:container.HeaderBytes])
	binary.LittleEndian.PutUint64(raw[4:container.HeaderBytes], version-1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(testShardCfg(t, 2, 1<<13), durable.Config{Dir: dir, Sync: durable.SyncAlways}, cfg)
	if !errors.As(err, &ve) || ve.Magic != ve.Want {
		t.Fatalf("%v, want a *secmem.VersionError of this format", err)
	}
	for _, v := range []uint64{version - 1, version} {
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("%q does not name version %d", err, v)
		}
	}
}

// FuzzMetaBody feeds parseMeta whatever a cluster.META body could hold. An
// input decodes to an epoch and role that appendMeta encodes back to the same
// bytes, or is refused as an *secmem.IntegrityError; it never panics, and a
// decode allocates no more than its error. The allocation is read off the
// process-wide counter, which the fuzz worker's own allocations also move, so
// the least of three decodes of the same input is held to the bound.
func FuzzMetaBody(f *testing.F) {
	for _, role := range roles {
		f.Add(appendMeta(nil, 7, role))
	}
	f.Add([]byte{})
	f.Add(appendMeta(nil, 1<<63, RoleFenced)[:8])
	f.Add(append(appendMeta(nil, 1, RolePrimary), 0))
	f.Add([]byte(`{"epoch":7,"role":"fenced"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			epoch uint64
			role  string
			err   error
			grew  uint64
		)
		const bound = 1024
		for try := 0; try < 3 && (try == 0 || grew > bound); try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			epoch, role, err = parseMeta(body)
			runtime.ReadMemStats(&after)
			if try == 0 || after.TotalAlloc-before.TotalAlloc < grew {
				grew = after.TotalAlloc - before.TotalAlloc
			}
		}
		if !racedetect.Enabled && grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			var ie *secmem.IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("refused with %T (%v), want a *secmem.IntegrityError", err, err)
			}
			return
		}
		if re := appendMeta(nil, epoch, role); !bytes.Equal(re, body) {
			t.Fatalf("%x decodes to epoch %d, role %q, which encodes to %x", body, epoch, role, re)
		}
	})
}
