package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
	"github.com/securemem/morphtree/internal/wire"
)

// AckTimeoutError reports a write that became locally durable but did not
// reach the configured replication cover in time. The outcome is
// ambiguous the same way a died-mid-round-trip transport error is: the
// write survives if this primary lives (or its record was replicated
// after the timeout fired), and re-applying the same content is the
// caller's call — so it crosses the wire as a plain remote error, which
// resilient clients do NOT auto-retry.
type AckTimeoutError struct {
	Shard int
	LSN   uint64
	Need  int
	Have  int
}

// Error implements error.
func (e *AckTimeoutError) Error() string {
	return fmt.Sprintf("cluster: write (shard %d, lsn %d) locally durable but only %d/%d replica acks arrived in time",
		e.Shard, e.LSN, e.Have, e.Need)
}

// waitAck blocks until cfg.AckReplicas followers' durable marks cover
// (shardIdx, lsn), the node stops being the primary it was (fenced or
// deposed mid-wait), or the ack timeout fires.
func (n *Node) waitAck(epoch uint64, shardIdx int, lsn uint64) error {
	if n.cfg.AckReplicas <= 0 {
		return nil
	}
	timer := time.NewTimer(n.ackTimeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.role != RolePrimary || n.epoch != epoch {
			err := n.movedLocked()
			n.mu.Unlock()
			return err
		}
		have := 0
		for _, marks := range n.replicas {
			if shardIdx < len(marks) && marks[shardIdx] >= lsn {
				have++
			}
		}
		if have >= n.cfg.AckReplicas {
			n.mu.Unlock()
			return nil
		}
		if n.ackCh == nil {
			n.ackCh = make(chan struct{})
		}
		ch := n.ackCh
		n.mu.Unlock()
		select {
		case <-ch:
		case <-n.stopc:
			return fmt.Errorf("cluster: node closed while awaiting replication cover")
		case <-timer.C:
			n.cAckTimeout.Inc()
			return &AckTimeoutError{Shard: shardIdx, LSN: lsn, Need: n.cfg.AckReplicas, Have: have}
		}
	}
}

// notifyAckLocked wakes every waitAck waiter to re-check replica marks.
// Called with n.mu held.
func (n *Node) notifyAckLocked() {
	if n.ackCh != nil {
		close(n.ackCh)
		n.ackCh = nil
	}
}

// Replicate answers one poll. A follower's poll (one naming its Node) is
// served only by the primary, which registers the poller for ack tracking;
// any other role answers it with the redirect, so a fenced or replica node
// never refreshes a follower's lease. A donor poll (no Node: a candidate
// catching up during promotion) is served by any role as long as the epochs
// match. A request at a higher epoch fences this node; at a lower epoch it is
// refused with the redirect. Before anything else, a poller that does not
// read the WAL records every batch is made of (no CWRecords: a build of the
// record generation before) is refused with a *secmem.VersionError naming
// that generation's write, kind 0x01, one that does not bootstrap from base
// pages (no PagedBootstrap) with one naming the whole-stream bootstrap, and
// one with another tenant list with a *shard.MismatchError; each moves
// nothing. The first would take its first batch for tampering, the second
// could not decode a bootstrap page, the third would re-seal this node's
// writes into other tenants' ranges and serve them after a failover.
func (n *Node) Replicate(req *wire.ReplicateRequest) (*wire.ReplicateResponse, error) {
	if !req.CWRecords {
		return nil, wal.KindError(0x01) // the HMAC-sealed write
	}
	if !req.PagedBootstrap {
		return nil, &secmem.VersionError{Magic: "bootstrap", Version: 1, Want: "bootstrap", WantVersion: 2}
	}
	if !bytes.Equal(req.Tenants, n.tenants) {
		return nil, durable.TenantMismatch(req.Tenants, n.tenants)
	}
	n.mu.Lock()
	if req.Epoch > n.epoch {
		n.fenceLocked(req.Epoch)
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	if req.Epoch < n.epoch || n.role != RolePrimary && req.Node != "" {
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	mem := n.mem
	epoch := n.epoch
	if req.Node != "" {
		marks := n.replicas[req.Node]
		if !req.Bootstrap {
			marks = append(marks[:0], req.Marks...)
			n.notifyAckLocked()
		}
		n.replicas[req.Node] = marks // a bootstrapping poller joins with no marks
	}
	n.mu.Unlock()

	if len(req.Marks) != mem.NumShards() && !req.Bootstrap {
		return nil, fmt.Errorf("cluster: poll carries %d shard marks, this node has %d shards", len(req.Marks), mem.NumShards())
	}
	if req.Bootstrap {
		return n.pageResponse(mem, epoch, req.Base, req.Offset)
	}
	resp, progress, err := n.gatherBatches(mem, epoch, req.Marks)
	if err != nil || progress || n.cfg.PollWait <= 0 {
		return resp, err
	}
	// Nothing new: hold the poll open until something becomes durable,
	// then gather once more. The signal channel is armed before the
	// re-check inside gatherBatches, so a record landing in between is
	// not missed — it is simply delivered immediately.
	sig := mem.DurableSignal()
	timer := time.NewTimer(n.cfg.PollWait)
	defer timer.Stop()
	select {
	case <-sig:
	case <-timer.C:
	case <-n.stopc:
	}
	resp, _, err = n.gatherBatches(mem, epoch, req.Marks)
	return resp, err
}

// batchBudget bounds the record bytes of one batch answer whatever the
// shard count: each shard ships up to batchRecords, fewer when shards of
// batchRecords would pass the budget, and never none, so no shard starves.
const batchBudget = 4 << 20

// batchLimit is the records per shard an answer over shards carries.
func batchLimit(shards int) int {
	return max(1, min(batchRecords, batchBudget/(shards*wal.WriteFrameBytes)))
}

// gatherBatches collects sealed per-shard record runs past the
// follower's marks. The second result reports whether anything (or a
// bootstrap page) was produced.
func (n *Node) gatherBatches(mem *durable.Memory, epoch uint64, marks []uint64) (*wire.ReplicateResponse, bool, error) {
	resp := &wire.ReplicateResponse{
		Epoch:   epoch,
		Marks:   mem.SyncedLSNs(),
		Batches: make([][]byte, mem.NumShards()),
	}
	limit := batchLimit(mem.NumShards())
	progress := false
	for i := 0; i < mem.NumShards(); i++ {
		recs, ok, err := mem.ReadRecords(i, marks[i], limit)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// The history behind this cursor is gone (checkpoint
			// truncation); only a bootstrap can help.
			page, err := n.pageResponse(mem, epoch, 0, 0)
			return page, true, err
		}
		if len(recs) == 0 {
			continue
		}
		codec, err := n.codec(epoch, i)
		if err != nil {
			return nil, false, err
		}
		batch := make([]byte, 0, len(recs)*wal.WriteFrameBytes)
		for _, rec := range recs {
			if batch, err = codec.AppendRecord(batch, rec); err != nil {
				return nil, false, err
			}
		}
		resp.Batches[i] = batch
		progress = true
	}
	return resp, progress, nil
}

// pageResponse answers a bootstrapping follower with the page of the base
// snapshot it asked for — or offset 0 of the current base, when base is no
// longer it (durable.ReadBasePage). Serving one reads a page of a file that
// never changes: it freezes nothing and keeps nothing between polls.
func (n *Node) pageResponse(mem *durable.Memory, epoch, base, off uint64) (*wire.ReplicateResponse, error) {
	pg, err := mem.ReadBasePage(base, off, make([]byte, wire.PageBytes))
	if err != nil {
		return nil, err
	}
	return &wire.ReplicateResponse{Epoch: epoch, Marks: mem.SyncedLSNs(), Page: (*wire.BasePage)(&pg)}, nil
}

// fenceLocked steps the node down after observing a higher epoch. The
// leader at that epoch is unknown until a Follow arrives; data ops
// answer leaderless redirects in the meantime. An ex-primary's journal
// may carry an unacked suffix the new leader never saw, so its eventual
// rejoin is forced through a snapshot bootstrap. Called with n.mu held.
func (n *Node) fenceLocked(observed uint64) {
	n.cFences.Inc()
	n.cfg.Obs.Tracer().Emit(obs.KindFence, -1, observed, n.epoch, 0)
	n.logf("cluster: %s fenced: observed epoch %d > local %d (was %s)", n.cfg.Self, observed, n.epoch, n.role)
	if n.role == RolePrimary {
		n.bootstrap = true
	}
	n.role = RoleFenced
	n.epoch = observed
	n.leader = ""
	n.notifyAckLocked() // wake write waiters so they fail with the redirect
	if err := n.saveMetaLocked(); err != nil {
		n.logf("cluster: %s persist meta: %v", n.cfg.Self, err)
	}
}

// RouteInfo is a node's view of the cluster: what Route returns, and what
// morphserve's admin plane serves as JSON on /clusterz. Role is "primary",
// "replica" or "fenced"; Leader is "" when unknown; Nodes lists the known
// members (on a primary: itself and every follower that has polled it);
// Marks is the node's own per-shard durable LSN vector; LeaseRemainingMS is
// what a replica has left of its leader lease (-1 on a primary), and a
// replica refuses promotion until it reaches 0.
type RouteInfo struct {
	Epoch            uint64      `json:"epoch"`
	Self             string      `json:"self"`
	Role             string      `json:"role"`
	Leader           string      `json:"leader"`
	Nodes            []RouteNode `json:"nodes"`
	Marks            []uint64    `json:"marks"`
	LeaseRemainingMS int64       `json:"lease_remaining_ms"`
}

// RouteNode is one cluster member in a RouteInfo.
type RouteNode struct {
	Addr string `json:"addr"`
	Role string `json:"role"`
}

// Route reports this node's view of the cluster.
func (n *Node) Route() *RouteInfo {
	marks := n.memory().SyncedLSNs()
	n.mu.Lock()
	defer n.mu.Unlock()
	ri := &RouteInfo{
		Epoch:            n.epoch,
		Self:             n.cfg.Self,
		Role:             n.role,
		Leader:           n.leader,
		Marks:            marks,
		LeaseRemainingMS: -1,
	}
	if n.role == RolePrimary {
		ri.Nodes = append(ri.Nodes, RouteNode{Addr: n.cfg.Self, Role: RolePrimary})
		peers := make([]string, 0, len(n.replicas))
		for addr := range n.replicas {
			peers = append(peers, addr)
		}
		sort.Strings(peers)
		for _, addr := range peers {
			ri.Nodes = append(ri.Nodes, RouteNode{Addr: addr, Role: RoleReplica})
		}
	} else {
		if n.leader != "" {
			ri.Nodes = append(ri.Nodes, RouteNode{Addr: n.leader, Role: RolePrimary})
		}
		ri.Nodes = append(ri.Nodes, RouteNode{Addr: n.cfg.Self, Role: n.role})
		remaining := n.cfg.Lease - time.Since(n.lastContact)
		if remaining < 0 {
			remaining = 0
		}
		ri.LeaseRemainingMS = remaining.Milliseconds()
	}
	return ri
}
