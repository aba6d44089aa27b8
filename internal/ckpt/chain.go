package ckpt

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

// Delta file names encode ancestry — delta.<seq>.<base> — so the sweep
// can reason about chains without opening files: a chain is resolvable
// when every link down to a full snapshot is present, and a delta whose
// ancestry cannot reach a snapshot is an orphan.

// DeltaName names epoch seq's delta segment, cut against base.
func DeltaName(seq, base uint64) string {
	return fmt.Sprintf("delta.%016x.%016x", seq, base)
}

// DeltaPath is DeltaName joined to dir.
func DeltaPath(dir string, seq, base uint64) string {
	return filepath.Join(dir, DeltaName(seq, base))
}

// ParseDeltaName extracts the chain position from a delta file name.
func ParseDeltaName(name string) (seq, base uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "delta.")
	if !found {
		return 0, 0, false
	}
	s, b, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false
	}
	seq, err1 := strconv.ParseUint(s, 16, 64)
	base, err2 := strconv.ParseUint(b, 16, 64)
	return seq, base, err1 == nil && err2 == nil
}

// Entry is one delta segment's position in the epoch graph.
type Entry struct {
	Seq, Base uint64
}

// ChainError reports a delta chain that cannot reach a full snapshot: the
// recovery head requires an epoch that is absent (its base snapshot was
// removed, or a link delta is missing). It is a typed, fail-closed error —
// recovery never silently falls back to an older epoch, because the
// missing link means acknowledged state existed that can no longer be
// reconstructed from checkpoints alone.
type ChainError struct {
	// Head is the epoch whose chain is broken; Missing is the absent
	// epoch the chain required.
	Head, Missing uint64
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("ckpt: delta chain for epoch %d is broken: required epoch %d is missing", e.Head, e.Missing)
}

// ResolveChain walks from head back to a full snapshot. snaps is the set
// of full-snapshot epochs on disk, deltas the delta entries. It returns
// the base snapshot epoch and the chain in ascending apply order (empty
// when head is itself a snapshot). A broken walk returns *ChainError.
func ResolveChain(head uint64, snaps map[uint64]bool, deltas map[uint64]Entry) (base uint64, chain []Entry, err error) {
	cur := head
	for !snaps[cur] {
		d, ok := deltas[cur]
		if !ok {
			return 0, nil, &ChainError{Head: head, Missing: cur}
		}
		chain = append(chain, d)
		if d.Base >= cur {
			// A cycle or forward reference can only come from a crafted
			// file name; treat it as a broken chain.
			return 0, nil, &ChainError{Head: head, Missing: d.Base}
		}
		cur = d.Base
	}
	// Reverse into ascending apply order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return cur, chain, nil
}
