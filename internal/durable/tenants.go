package durable

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
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
// tenants records its list once, in the file TENANTS:
//
//	| "MTTL" | u8 version 1 | uvarint count | count x (uvarint len | id) | tag |
//
// with the ids sorted and tag the 32-byte HMAC-SHA256 of everything before
// it under HMAC-SHA256(master, "morphtree/tenants"). The tag doubles as the
// list's digest, which a replication poll carries. A store without tenants
// has no such file.
const tenantsFile = "TENANTS"

// sealTenants encodes ids, sorted, as the TENANTS file; nil for no tenants.
func sealTenants(master []byte, ids []string) []byte {
	if len(ids) == 0 {
		return nil
	}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	b := append([]byte("MTTL"), 1)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(len(id)))
		b = append(b, id...)
	}
	return append(b, tenantsTag(master, b)...)
}

// tenantsTag is the tag of a TENANTS file's body.
func tenantsTag(master, body []byte) []byte {
	h := hmac.New(sha256.New, mac.Derive(master, "morphtree/tenants"))
	h.Write(body)
	return h.Sum(nil)
}

// TenantDigest returns the digest of shcfg's tenant list, the order of the
// ids aside, or nil when the list is empty.
func TenantDigest(shcfg shard.Config) []byte {
	return digest(sealTenants(shcfg.Mem.Key, shcfg.Tenants))
}

// digest is a TENANTS file's tag, its list's digest; nil for no file.
func digest(file []byte) []byte {
	if len(file) < sha256.Size {
		return nil
	}
	return file[len(file)-sha256.Size:]
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
// another list — tenants added, dropped or changed — a
// *shard.MismatchError{Field: "tenants"}.
func checkTenants(dir string, shcfg shard.Config, fresh bool) error {
	path := filepath.Join(dir, tenantsFile)
	want := sealTenants(shcfg.Mem.Key, shcfg.Tenants)
	if fresh {
		if want == nil {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: %w", err)
			}
			return nil
		}
		return ckpt.WriteFile(path, func(w io.Writer) error {
			_, err := w.Write(want)
			return err
		})
	}
	got, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		got = nil
	case err != nil:
		return fmt.Errorf("durable: %w", err)
	case len(got) < sha256.Size || !hmac.Equal(tenantsTag(shcfg.Mem.Key, got[:len(got)-sha256.Size]), digest(got)):
		return &secmem.IntegrityError{Level: -1, Reason: tenantsFile + " fails authentication"}
	}
	if !bytes.Equal(got, want) {
		return TenantMismatch(digest(got), digest(want))
	}
	return nil
}
