package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
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
	timer := time.NewTimer(n.cfg.AckTimeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.role != RolePrimary || n.epoch != epoch {
			err := n.movedLocked()
			n.mu.Unlock()
			return err
		}
		have := 0
		for _, rs := range n.replicas {
			if shardIdx < len(rs.marks) && rs.marks[shardIdx] >= lsn {
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

// Replicate answers one follower poll. Any role serves it as long as the
// epochs match — a replica answering makes it a catch-up donor during
// promotion — but only a primary registers the poller for ack tracking.
// A request at a higher epoch fences this node; at a lower epoch it is
// refused with the redirect.
func (n *Node) Replicate(req *wire.ReplicateRequest) (*wire.ReplicateResponse, error) {
	n.mu.Lock()
	if req.Epoch > n.epoch {
		n.fenceLocked(req.Epoch)
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	if req.Epoch < n.epoch {
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	mem := n.mem
	epoch := n.epoch
	if n.role == RolePrimary && req.Node != "" {
		rs := n.replicas[req.Node]
		if rs == nil {
			rs = &replicaState{}
			n.replicas[req.Node] = rs
		}
		rs.lastPoll = time.Now()
		if !req.Bootstrap {
			rs.marks = append(rs.marks[:0], req.Marks...)
			n.notifyAckLocked()
		}
	}
	n.mu.Unlock()

	if len(req.Marks) != mem.NumShards() && !req.Bootstrap {
		return nil, fmt.Errorf("cluster: poll carries %d shard marks, this node has %d shards", len(req.Marks), mem.NumShards())
	}
	if req.Bootstrap {
		return n.snapshotResponse(mem, epoch)
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

// gatherBatches collects sealed per-shard record runs past the
// follower's marks. The second result reports whether anything (or a
// snapshot demand) was produced.
func (n *Node) gatherBatches(mem *durable.Memory, epoch uint64, marks []uint64) (*wire.ReplicateResponse, bool, error) {
	resp := &wire.ReplicateResponse{
		Epoch:   epoch,
		Marks:   mem.SyncedLSNs(),
		Batches: make([][]byte, mem.NumShards()),
	}
	progress := false
	for i := 0; i < mem.NumShards(); i++ {
		recs, ok, err := mem.ReadRecords(i, marks[i], n.cfg.BatchRecords)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// The history behind this cursor is gone (checkpoint
			// truncation); only a snapshot can help.
			snap, err := n.snapshotResponse(mem, epoch)
			return snap, true, err
		}
		if len(recs) == 0 {
			continue
		}
		codec, err := n.codec(epoch, i)
		if err != nil {
			return nil, false, err
		}
		var batch []byte
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

// snapshotResponse freezes the memory and ships its full state: the
// authenticated state stream the follower lands as its snapshot 1.
func (n *Node) snapshotResponse(mem *durable.Memory, epoch uint64) (*wire.ReplicateResponse, error) {
	var buf bytes.Buffer
	snapMarks, err := mem.SaveMarks(&buf)
	if err != nil {
		return nil, err
	}
	return &wire.ReplicateResponse{
		Epoch:     epoch,
		Marks:     mem.SyncedLSNs(),
		Snapshot:  buf.Bytes(),
		SnapMarks: snapMarks,
	}, nil
}

// fenceLocked steps the node down after observing a higher epoch. The
// leader at that epoch is unknown until a Follow arrives; data ops
// answer leaderless redirects in the meantime. An ex-primary's journal
// may carry an unacked suffix the new leader never saw, so its eventual
// rejoin is forced through a snapshot bootstrap. Called with n.mu held.
func (n *Node) fenceLocked(observed uint64) {
	n.cFences.Inc()
	n.cfg.Tracer.Emit(obs.KindFence, -1, observed, n.epoch, 0)
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

// Route reports this node's view of the cluster.
func (n *Node) Route() *wire.RouteInfo {
	marks := n.memory().SyncedLSNs()
	n.mu.Lock()
	defer n.mu.Unlock()
	ri := &wire.RouteInfo{
		Epoch:            n.epoch,
		Self:             n.cfg.Self,
		Role:             n.role,
		Leader:           n.leader,
		Marks:            marks,
		LeaseRemainingMS: -1,
	}
	if n.role == RolePrimary {
		ri.Nodes = append(ri.Nodes, wire.RouteNode{Addr: n.cfg.Self, Role: RolePrimary})
		peers := make([]string, 0, len(n.replicas))
		for addr := range n.replicas {
			peers = append(peers, addr)
		}
		sort.Strings(peers)
		for _, addr := range peers {
			ri.Nodes = append(ri.Nodes, wire.RouteNode{Addr: addr, Role: RoleReplica})
		}
	} else {
		if n.leader != "" {
			ri.Nodes = append(ri.Nodes, wire.RouteNode{Addr: n.leader, Role: RolePrimary})
		}
		ri.Nodes = append(ri.Nodes, wire.RouteNode{Addr: n.cfg.Self, Role: n.role})
		remaining := n.cfg.Lease - time.Since(n.lastContact)
		if remaining < 0 {
			remaining = 0
		}
		ri.LeaseRemainingMS = remaining.Milliseconds()
	}
	return ri
}
