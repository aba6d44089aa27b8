package secmem

import (
	"fmt"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/proof"
)

// TenantRange is one row of an engine's tenant table: data lines [Lo, Hi),
// by local index, are tenant ID's, and sealed under a cipher and data-MAC
// keyer built from HMAC(engineKey, "morphtree/tenant/<ID>"), keys no other
// tenant (and not the engine's own domain) can reproduce. The counter tree
// and its MACs stay under the engine key — integrity metadata is shared
// infrastructure, the SecDDR/Secure-Scattered-Memory split.
type TenantRange struct {
	ID     string
	Lo, Hi uint64
}

// domain is a key domain: the keys a range of data lines is sealed under,
// and the traffic on those lines. The engine's own domain (Memory.own) holds
// every line outside the tenant table; its ops are never reported.
type domain struct {
	TenantRange
	cipher *aesctr.Cipher
	keyer  *mac.Keyer
	ops    TenantOps
}

// SetTenants installs the engine's tenant table, replacing any before it.
// The ranges must be sorted, disjoint and aligned to the encryption-counter
// arity, so no counter block covers lines of two domains and an overflow
// re-encrypts only lines of the domain that caused it. Install the table
// before the first write into any of its ranges: a line written earlier was
// sealed under the engine's keys and no longer verifies. Every tenant's row of
// Stats.Tenants exists from here on, so a tenant's first operation allocates
// nothing.
func (m *Memory) SetTenants(table []TenantRange) error {
	arity := uint64(m.geom.EncArity)
	doms := make([]domain, len(table))
	var end uint64
	for i, r := range table {
		if r.Lo < end || r.Hi <= r.Lo || r.Hi > m.geom.DataLines || r.Lo%arity != 0 || r.Hi%arity != 0 {
			return fmt.Errorf("secmem: tenant %q: lines [%d, %d) are not a sorted, disjoint range of whole %d-line counter blocks within %d lines",
				r.ID, r.Lo, r.Hi, arity, m.geom.DataLines)
		}
		end = r.Hi
		key, err := proof.DeriveTenantKey(m.cfg.Key, r.ID)
		if err != nil {
			return fmt.Errorf("secmem: tenant %q: %w", r.ID, err)
		}
		doms[i] = domain{TenantRange: r}
		if doms[i].cipher, err = aesctr.New(key); err != nil {
			return fmt.Errorf("secmem: tenant %q: %w", r.ID, err)
		}
		if doms[i].keyer, err = mac.New(key, m.keyer.Width()); err != nil {
			return fmt.Errorf("secmem: tenant %q: %w", r.ID, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenants = doms
	return nil
}

// domainOf returns the key domain of data line d: the tenant range holding
// it, or the engine's own outside every range.
func (m *Memory) domainOf(d uint64) *domain {
	for i := range m.tenants {
		if r := &m.tenants[i]; d < r.Hi {
			if d >= r.Lo {
				return r
			}
			break
		}
	}
	return &m.own
}
