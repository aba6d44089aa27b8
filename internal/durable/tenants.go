package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/shard"
)

// A line's key domain is a function of its address through the tenant ranges
// shard.RegisterTenants derives from the sorted tenant list, so a store is
// readable only under the list it was written under: another list moves the
// ranges and re-keys lines into false integrity errors. A store created with
// tenants records its list once, in the file TENANTS, a state stream of one
// frame (ckpt.WriteSealed) under a key derived for it, whose body is
//
//	uvarint count | count x (uvarint len | id)
//
// with the ids sorted. A store without tenants has no such file.
const (
	tenantsFile    = "TENANTS"
	tenantsContext = "morphtree/ckpt/TENANTS"
)

func tenantsKey(master []byte) []byte { return mac.Derive(master, "morphtree/tenants/stream") }

// tenantsBody encodes ids, sorted, as a TENANTS body; nil for no tenants.
func tenantsBody(ids []string) []byte {
	if len(ids) == 0 {
		return nil
	}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	b := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(len(id)))
		b = append(b, id...)
	}
	return b
}

// parseTenants decodes a TENANTS body. One that tenantsBody would not write —
// cut short, trailing bytes, disorder, a padded varint — is an
// *secmem.IntegrityError: it authenticated, so no build wrote it.
func parseTenants(body []byte) ([]string, error) {
	count, n := binary.Uvarint(body)
	var ids []string
	for rest := body[max(n, 0):]; n > 0 && len(rest) > 0 && uint64(len(ids)) < count; {
		size, m := binary.Uvarint(rest)
		if m <= 0 || size > uint64(len(rest)-m) {
			break
		}
		ids = append(ids, string(rest[m:m+int(size)]))
		rest = rest[m+int(size):]
	}
	if !bytes.Equal(tenantsBody(ids), body) {
		return nil, &secmem.IntegrityError{Level: -1, Reason: tenantsFile + " holds a malformed tenant list"}
	}
	return ids, nil
}

// TenantDigest returns the digest of shcfg's tenant list, the order of the
// ids aside, or nil when the list is empty: the SHA-256 of its TENANTS body,
// which a replication poll carries. It needs no key; a poll is read only on a
// connection bound as a cluster peer.
func TenantDigest(shcfg shard.Config) []byte {
	return digest(tenantsBody(shcfg.Tenants))
}

// digest is a TENANTS body's digest; nil for none.
func digest(body []byte) []byte {
	if body == nil {
		return nil
	}
	d := sha256.Sum256(body)
	return d[:]
}

// TenantMismatch is the *shard.MismatchError{Field: "tenants"} for state
// made under the list of digest theirs, met by a store whose list has digest
// ours (nil for no list): each is reported by its first eight bytes, 0 for
// none.
func TenantMismatch(theirs, ours []byte) error {
	value := func(d []byte) uint64 {
		if d == nil {
			return 0
		}
		return binary.BigEndian.Uint64(d)
	}
	return &shard.MismatchError{Field: "tenants", Stream: value(theirs), Config: value(ours)}
}

// checkTenants holds dir's TENANTS file to shcfg's list before any stream or
// WAL is read. A fresh store records the list (and drops one a crash left
// from a creation it cut short). An existing one must have been created with
// the same set, in any order: a tampered file is an *secmem.IntegrityError,
// one of an earlier format a *secmem.VersionError, another list — tenants
// added, dropped or changed — a *shard.MismatchError{Field: "tenants"}.
func checkTenants(dir string, shcfg shard.Config, fresh bool) error {
	path := filepath.Join(dir, tenantsFile)
	key := tenantsKey(shcfg.Mem.Key)
	want := tenantsBody(shcfg.Tenants)
	if fresh {
		if want == nil {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
			return nil
		}
		return ckpt.WriteSealed(path, key, tenantsContext, want)
	}
	got, err := ckpt.ReadSealed(path, key, tenantsContext)
	if err == nil && got != nil {
		_, err = parseTenants(got)
	}
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if !bytes.Equal(got, want) {
		return TenantMismatch(digest(got), digest(want))
	}
	return nil
}
