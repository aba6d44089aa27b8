package secmem

import (
	"fmt"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/proof"
)

// Domain is a per-tenant key domain over one engine: a cipher and data-MAC
// keyer built from HMAC(engineKey, "morphtree/tenant/<id>"), so every
// tenant's data lines are sealed under a key no other tenant (and not the
// engine's default domain) can reproduce. The counter tree and its MACs
// stay under the engine key — integrity metadata is shared infrastructure,
// the SecDDR/Secure-Scattered-Memory split — so a cross-domain read still
// walks a valid tree but fails closed on the data-line MAC.
//
// A Domain is immutable after NewDomain and safe for concurrent use.
type Domain struct {
	name   string
	cipher *aesctr.Cipher
	keyer  *mac.Keyer
}

// Name returns the tenant id the domain was derived for.
func (d *Domain) Name() string {
	if d == nil {
		return ""
	}
	return d.name
}

// NewDomain derives tenant id's key domain over this engine's key. The
// derivation (proof.DeriveTenantKey) layers on whatever key the engine was
// built with, so sharded deployments — where each engine already holds a
// per-shard derived key — get independent (shard, tenant) domains for free.
func (m *Memory) NewDomain(id string) (*Domain, error) {
	key, err := proof.DeriveTenantKey(m.cfg.Key, id)
	if err != nil {
		return nil, fmt.Errorf("secmem: tenant domain %q: %w", id, err)
	}
	cipher, err := aesctr.New(key)
	if err != nil {
		return nil, fmt.Errorf("secmem: tenant domain %q: %w", id, err)
	}
	width := m.cfg.MACWidth
	if width == 0 {
		width = mac.Width56
	}
	keyer, err := mac.New(key, width)
	if err != nil {
		return nil, fmt.Errorf("secmem: tenant domain %q: %w", id, err)
	}
	return &Domain{name: id, cipher: cipher, keyer: keyer}, nil
}

// dataCipher returns the cipher sealing data lines for dom (nil = the
// engine's default domain).
func (m *Memory) dataCipher(dom *Domain) *aesctr.Cipher {
	if dom == nil {
		return m.cipher
	}
	return dom.cipher
}

// dataKeyer returns the keyer MACing data lines for dom (nil = the
// engine's default domain).
func (m *Memory) dataKeyer(dom *Domain) *mac.Keyer {
	if dom == nil {
		return m.keyer
	}
	return dom.keyer
}

// readTenant and writeTenant are read and write plus the per-tenant traffic
// accounting. The accounting sits out here because its map is created on a
// tenant's first op and the two hot paths allocate nothing they do not hand
// back or store. Called with m.mu held.
func (m *Memory) readTenant(dst []byte, addr uint64, dom *Domain) ([]byte, error) {
	line, err := m.read(dst, addr, dom)
	if err == nil && dom != nil {
		m.countTenant(dom, TenantOps{Reads: 1})
	}
	return line, err
}

func (m *Memory) writeTenant(addr uint64, line []byte, dom *Domain) error {
	err := m.write(addr, line, dom)
	if err == nil && dom != nil {
		m.countTenant(dom, TenantOps{Writes: 1})
	}
	return err
}

func (m *Memory) countTenant(dom *Domain, ops TenantOps) {
	if m.stats.Tenants == nil {
		m.stats.Tenants = make(map[string]TenantOps)
	}
	t := m.stats.Tenants[dom.name]
	t.Reads += ops.Reads
	t.Writes += ops.Writes
	m.stats.Tenants[dom.name] = t
}

// ReadDomain is AppendRead routed through a tenant key domain: the data-line
// MAC is checked and the ciphertext decrypted under dom's keys, so a line last
// written by any other domain — another tenant's, or the engine default —
// fails closed with an *IntegrityError instead of decrypting to garbage.
// A nil dom is the engine's default domain (plain AppendRead); a nil dst
// returns a fresh slice, as Read does.
func (m *Memory) ReadDomain(dst []byte, dom *Domain, addr uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readTenant(dst, addr, dom)
}

// WriteDomain is Write routed through a tenant key domain: the line is
// encrypted and MAC'd under dom's keys and the line is tagged as owned by
// dom, so overflow re-encryption and VerifyAll keep using the right keys.
// A nil dom is the engine's default domain (plain Write).
func (m *Memory) WriteDomain(dom *Domain, addr uint64, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeTenant(addr, line, dom)
}
