package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/container"
	"github.com/securemem/morphtree/internal/oracle"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
)

// tenantShardConfig is testShardConfig with tenants: 2 MorphCtr-128 shards of
// 512 lines, so each of up to four tenants gets 256 lines.
func tenantShardConfig(t testing.TB, ids ...string) shard.Config {
	shcfg := testShardConfig(t, 2, 1<<16)
	shcfg.Tenants = ids
	return shcfg
}

// writeTenantLines writes lines 0..7 of each tenant's range, as write seq.
func writeTenantLines(t *testing.T, m *Memory, seq uint64) {
	t.Helper()
	for _, id := range []string{"alpha", "beta", "gamma"} {
		base, _, ok := m.TenantRange(id)
		if !ok {
			t.Fatalf("no range for %s", id)
		}
		for k := uint64(0); k < 8; k++ {
			a := base + k*LineBytes
			if err := m.Write(a, oracle.Fill(a, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// wantTenantMismatch fails unless err is a *shard.MismatchError on the
// tenant list and no integrity error.
func wantTenantMismatch(t *testing.T, what string, err error) {
	t.Helper()
	var me *shard.MismatchError
	var ie *secmem.IntegrityError
	if !errors.As(err, &me) || me.Field != "tenants" || errors.As(err, &ie) {
		t.Fatalf("%s: %v, want a *shard.MismatchError on tenants", what, err)
	}
}

// TestTenantListIsFixedAtCreation: a tenant store recovers — snapshot and WAL
// tail alike — under the same ids in any order, with every tenant line
// verifying. Another list, a tenant dropped or added or none at all, is a
// tenants MismatchError before any stream is read: a tampered snapshot does
// not change the answer. A tampered TENANTS file is an integrity error.
func TestTenantListIsFixedAtCreation(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, tenantShardConfig(t, "alpha", "beta", "gamma"), Config{Dir: dir})
	writeTenantLines(t, m, 1)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeTenantLines(t, m, 2) // the WAL tail
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	reordered := tenantShardConfig(t, "gamma", "alpha", "beta")
	m, info := mustOpen(t, reordered, Config{Dir: dir})
	if info.ReplayedWrites != 24 {
		t.Fatalf("replayed %d writes, want the 24 of the WAL tail", info.ReplayedWrites)
	}
	for _, id := range []string{"alpha", "beta", "gamma"} {
		base, _, _ := m.TenantRange(id)
		for k := uint64(0); k < 8; k++ {
			a := base + k*LineBytes
			if got, err := m.Read(a); err != nil || !bytes.Equal(got, oracle.Fill(a, 2)) {
				t.Fatalf("%s line %d after a reordered restart: %v", id, k, err)
			}
		}
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.ReadFile(SnapshotPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapshotPath(dir, 2), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]string{{"alpha", "beta"}, {"alpha", "beta", "delta"}, {"alpha", "beta", "gamma", "delta"}, nil} {
		_, _, err := Open(tenantShardConfig(t, ids...), Config{Dir: dir})
		wantTenantMismatch(t, strings.Join(ids, ","), err)
	}
	if err := os.WriteFile(SnapshotPath(dir, 2), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, tenantsFile)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file[len(file)-1] ^= 1 // the end frame's tag
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var ie *secmem.IntegrityError
	if _, _, err := Open(reordered, Config{Dir: dir}); !errors.As(err, &ie) {
		t.Fatalf("open with a tampered %s: %v, want *secmem.IntegrityError", tenantsFile, err)
	}
}

// TestNonTenantStoreHasNoTenantFile: a store created without tenants gains no
// file for them, and refuses to open with tenants added.
func TestNonTenantStoreHasNoTenantFile(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, testShardConfig(t, 2, 1<<16), Config{Dir: dir})
	if err := m.Write(0, oracle.Fill(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tenantsFile)); !os.IsNotExist(err) {
		t.Fatalf("a store without tenants has %s: %v", tenantsFile, err)
	}
	_, _, err := Open(tenantShardConfig(t, "alpha", "beta"), Config{Dir: dir})
	wantTenantMismatch(t, "tenants added", err)
}

// TestTenantDigestIgnoresOrder: the digest a replication poll carries names
// the set of ids, not their order, and is nil without tenants.
func TestTenantDigestIgnoresOrder(t *testing.T) {
	a := TenantDigest(tenantShardConfig(t, "alpha", "beta"))
	if len(a) != 32 || !bytes.Equal(a, TenantDigest(tenantShardConfig(t, "beta", "alpha"))) {
		t.Fatalf("digest %x depends on the ids' order", a)
	}
	if bytes.Equal(a, TenantDigest(tenantShardConfig(t, "alpha", "gamma"))) {
		t.Fatal("two lists share a digest")
	}
	if d := TenantDigest(tenantShardConfig(t)); d != nil {
		t.Fatalf("no tenants: digest %x, want nil", d)
	}
}

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

// TestTenantsFileIsSealed: TENANTS is a one-frame state stream under the key
// and context of its role, and its list survives Close and Open. A byte
// flipped anywhere past the stream's 12-byte container header — the context,
// the frame's length, the list, a tag, the end frame — is an
// *secmem.IntegrityError at Open, a byte of the header a *secmem.VersionError,
// and the list sealed under another key an *secmem.IntegrityError too.
func TestTenantsFileIsSealed(t *testing.T) {
	dir := t.TempDir()
	shcfg := tenantShardConfig(t, "beta", "alpha")
	m, _ := mustOpen(t, shcfg, Config{Dir: dir})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tenantsFile)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ckpt.ReadSealed(path, tenantsKey(testKey), tenantsContext)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := parseTenants(body); err != nil || !slices.Equal(ids, []string{"alpha", "beta"}) {
		t.Fatalf("TENANTS holds %q (%v), want the sorted list", ids, err)
	}
	for i := range file {
		flipped := bytes.Clone(file)
		flipped[i] ^= 0x10
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(shcfg, Config{Dir: dir})
		var ve *secmem.VersionError
		if i < container.HeaderBytes && (!errors.As(err, &ve) || isIntegrityError(err)) {
			t.Fatalf("header byte %d flipped: %v, want a *secmem.VersionError", i, err)
		} else if i >= container.HeaderBytes && !isIntegrityError(err) {
			t.Fatalf("byte %d of %d flipped: %v, want a *secmem.IntegrityError", i, len(file), err)
		}
	}
	if err := ckpt.WriteSealed(path, deltaKey(testKey), tenantsContext, body); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(shcfg, Config{Dir: dir}); !isIntegrityError(err) {
		t.Fatalf("the list sealed under another key: %v, want a *secmem.IntegrityError", err)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	m, _ = mustOpen(t, shcfg, Config{Dir: dir})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantsFileOfAnEarlierFormatIsAVersionError: mttl_dir's TENANTS is the
// "MTTL" version 1 layout under its HMAC-SHA256 tag, as the generation before
// the sealed stream wrote it (testdata/mttlgen.go.txt). Open refuses it with
// a *secmem.VersionError naming that header — under the list it was made
// with and under any other, and no version read off the bytes after it
// (7018983630043415041, which hold none) — and leaves every file of the
// directory as it was.
func TestTenantsFileOfAnEarlierFormatIsAVersionError(t *testing.T) {
	dir := copyDir(t, "testdata/mttl_dir")
	before := dirFiles(t, dir)
	for _, ids := range [][]string{{"alpha", "beta"}, {"beta", "alpha"}, {"alpha"}, nil} {
		_, _, err := Open(tenantShardConfig(t, ids...), Config{Dir: dir, Sync: SyncNone})
		var ve *secmem.VersionError
		if !errors.As(err, &ve) || ve.Magic != "MTTL" || isIntegrityError(err) {
			t.Fatalf("tenants %q: %v, want a *secmem.VersionError naming MTTL", ids, err)
		}
		if strings.Contains(err.Error(), "7018983630043415041") {
			t.Fatalf("tenants %q: %q prints MTTL's bytes as a version", ids, err)
		}
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused open changed the data directory: %d files, was %d", len(after), len(before))
	}
}
