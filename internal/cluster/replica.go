package cluster

import (
	"errors"
	"fmt"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/wal"
	"github.com/securemem/morphtree/internal/wire"
)

// LeaseError refuses a promotion while the candidate still trusts its
// leader: the lease from the last successful poll has not expired, so a
// slow-but-alive primary must not be usurped.
type LeaseError struct {
	Remaining time.Duration
}

// Error implements error.
func (e *LeaseError) Error() string {
	return fmt.Sprintf("cluster: leader lease unexpired (%v remaining); refusing promotion", e.Remaining)
}

// puller is the follower's replication loop: long-poll the leader, apply
// what arrives, repeat. Errors back off PollRetry and are logged when they
// change — a leader that refuses this node's tenant list refuses every poll;
// non-replica roles idle until a Follow (or Promote) changes the role.
func (n *Node) puller() {
	defer n.wg.Done()
	var lastErr string
	for {
		select {
		case <-n.stopc:
			return
		default:
		}
		n.mu.Lock()
		role, leader := n.role, n.leader
		n.mu.Unlock()
		if role != RoleReplica || leader == "" {
			n.sleep(n.cfg.PollRetry)
			continue
		}
		// An empty long poll is no error: the leader paced us, loop right away.
		if _, err := n.pollLeader(); err == nil {
			lastErr = ""
		} else {
			if msg := err.Error(); msg != lastErr {
				n.logf("cluster: %s poll %s: %v", n.cfg.Self, leader, err)
				lastErr = msg
			}
			n.sleep(n.cfg.PollRetry)
		}
	}
}

// sleep waits d, returning early on Close.
func (n *Node) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.stopc:
	case <-t.C:
	}
}

// leaderConn returns the cached connection to addr, dialing if needed.
func (n *Node) leaderConn(addr string) (*wire.Client, error) {
	n.mu.Lock()
	if n.pullCl != nil && n.pullAddr == addr {
		cl := n.pullCl
		n.mu.Unlock()
		return cl, nil
	}
	stale := n.pullCl
	n.pullCl = nil
	n.mu.Unlock()
	if stale != nil {
		_ = stale.Close()
	}
	cl, err := n.dialPeer(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = cl.Close()
		return nil, fmt.Errorf("cluster: node closed")
	}
	n.pullCl = cl
	n.pullAddr = addr
	n.mu.Unlock()
	return cl, nil
}

// dropLeaderConn retires the cached connection after an error.
func (n *Node) dropLeaderConn(cl *wire.Client) {
	n.mu.Lock()
	if n.pullCl == cl {
		n.pullCl = nil
	}
	n.mu.Unlock()
	_ = cl.Close()
}

// pollLeader runs one replication poll against the current leader and
// applies the result. It reports whether anything was applied.
func (n *Node) pollLeader() (bool, error) {
	n.mu.Lock()
	leader := n.leader
	n.mu.Unlock()
	cl, err := n.leaderConn(leader)
	if err != nil {
		return false, err
	}
	req, mem := n.pollRequest()
	epoch := req.Epoch
	resp, err := cl.Replicate(req)
	if err != nil {
		var me *wire.MovedError
		if errors.As(err, &me) {
			// The node we polled is not (or no longer) the leader at our
			// epoch. Adopt anything newer it knows. One that names no
			// leader at the epoch we polled at (fenced) is no leader of
			// ours: drop it, so the puller idles until a Follow and the
			// lease runs out. A newer epoch adopted from this answer is
			// polled at first: a primary hides its own address from a
			// stale poll, and serves the next one.
			n.mu.Lock()
			if me.Epoch > n.epoch {
				n.epoch = me.Epoch
				if me.Leader != "" && me.Leader != n.cfg.Self {
					n.leader = me.Leader
				}
				if err := n.saveMetaLocked(); err != nil {
					n.logf("cluster: %s persist meta: %v", n.cfg.Self, err)
				}
			}
			drop := me.Leader == "" && me.Epoch <= epoch && n.leader == leader
			if drop {
				n.leader = ""
			}
			n.mu.Unlock()
			if drop {
				n.dropLeaderConn(cl)
			}
			return false, err
		}
		if wire.IsTransport(err) {
			n.dropLeaderConn(cl)
		}
		return false, err
	}
	// Pre-check the claimed epoch BEFORE touching any sealed bytes: a
	// mismatched batch would fail its MAC (the key is epoch-bound), and
	// that failure must stay reserved for genuine tampering.
	if resp.Epoch != epoch {
		return false, fmt.Errorf("cluster: poll answered at epoch %d, asked at %d", resp.Epoch, epoch)
	}
	return n.applyResponse(mem, epoch, req.Marks, resp)
}

// pollRequest is the node's next poll of its leader, and the memory it is
// made from: a bootstrap transfer in progress asks for its next page.
func (n *Node) pollRequest() (*wire.ReplicateRequest, *durable.Memory) {
	n.mu.Lock()
	mem := n.mem
	req := &wire.ReplicateRequest{
		Epoch:          n.epoch,
		Node:           n.cfg.Self,
		Bootstrap:      n.bootstrap || n.spool.size > 0,
		Base:           n.spool.seq,
		Offset:         n.spool.off,
		Tenants:        n.tenants,
		CWRecords:      true,
		PagedBootstrap: true,
	}
	n.mu.Unlock()
	req.Marks = mem.SyncedLSNs()
	return req, mem
}

// applyResponse spools a bootstrap page or applies the per-shard batches.
func (n *Node) applyResponse(mem *durable.Memory, epoch uint64, marks []uint64, resp *wire.ReplicateResponse) (bool, error) {
	if resp.Page != nil {
		if err := n.spoolPage(mem, resp.Page); err != nil {
			return false, err
		}
		n.touchLease(resp)
		return true, nil
	}
	if len(resp.Batches) > len(marks) {
		return false, fmt.Errorf("cluster: poll answered %d shard batches, this node has %d shards", len(resp.Batches), len(marks))
	}
	progress := false
	for i, batch := range resp.Batches {
		if len(batch) == 0 {
			continue
		}
		codec, err := n.codec(epoch, i)
		if err != nil {
			return progress, err
		}
		start := time.Now()
		if err := mem.ApplyReplicated(i, codec, marks[i]+1, batch); err != nil {
			return progress, fmt.Errorf("cluster: shard %d batch: %w", i, err)
		}
		recs := uint64(len(batch) / wal.WriteFrameBytes)
		n.cBatches.Inc()
		n.cRecords.Add(recs)
		n.cfg.Obs.Tracer().Emit(obs.KindReplBatch, int32(i), recs, 0, time.Since(start))
		progress = true
	}
	n.touchLease(resp)
	return progress, nil
}

// touchLease refreshes the leader lease and the replication-lag gauge
// after a successful poll.
func (n *Node) touchLease(resp *wire.ReplicateResponse) {
	var lag uint64
	mine := n.memory().SyncedLSNs()
	for i, theirs := range resp.Marks {
		if i < len(mine) && theirs > mine[i] && theirs-mine[i] > lag {
			lag = theirs - mine[i]
		}
	}
	n.gLag.Set(int64(lag))
	n.mu.Lock()
	n.lastContact = time.Now()
	n.mu.Unlock()
}

// spoolPage lands one page of the leader's base snapshot in the data
// directory's spool. A page at offset 0 starts the spool over — a transfer
// that held bytes is then a restart: the leader's base moved under it — and
// any other page must continue the spool where it stands. The last page
// installs the spool (durable.InstallSnapshot): it is authenticated whole
// while the old memory serves, then becomes the node's state, and
// replication resumes at the marks its coverage header holds. A refused
// spool is gone, and the next poll starts the transfer over.
func (n *Node) spoolPage(mem *durable.Memory, pg *wire.BasePage) error {
	sp := n.spool
	n.spool = spool{} // put back below only if the page continues it
	if pg.Offset == 0 {
		if sp.off > 0 {
			n.bootRestarts.Add(1)
		}
		sp = spool{seq: pg.Seq, size: pg.Size}
	} else if pg.Seq != sp.seq || pg.Size != sp.size || pg.Offset != sp.off {
		n.bootRestarts.Add(1)
		return fmt.Errorf("cluster: a page at %d of base %d (%d bytes) does not continue the spool at %d of base %d (%d bytes)",
			pg.Offset, pg.Seq, pg.Size, sp.off, sp.seq, sp.size)
	}
	if err := mem.SpoolPage(pg.Offset, pg.Data); err != nil {
		return err
	}
	sp.off += uint64(len(pg.Data))
	n.bootPages.Add(1)
	n.bootBytes.Add(uint64(len(pg.Data)))
	if sp.off < sp.size {
		n.spool = sp
		return nil
	}
	n.logf("cluster: %s bootstrapping from base snapshot %d (%d bytes)", n.cfg.Self, sp.seq, sp.size)
	fresh, err := mem.InstallSnapshot(sp.seq)
	if err != nil {
		n.bootRestarts.Add(1)
		return fmt.Errorf("cluster: install snapshot: %w", err)
	}
	n.mu.Lock()
	n.mem = fresh
	n.bootstrap = false
	if n.onCkpt != nil {
		fresh.OnCheckpoint(n.onCkpt)
	}
	n.mu.Unlock()
	n.cBootstraps.Inc()
	return nil
}

// Promote asks this node to become primary at newEpoch, provided its
// leader lease has expired and it can catch its WAL tail up to minMarks
// (the element-wise max durable vector across survivors) by pulling from
// donor peers. Idempotent: a re-sent Promote at the epoch this node
// already leads returns its route.
func (n *Node) Promote(newEpoch uint64, minMarks []uint64) (*RouteInfo, error) {
	n.mu.Lock()
	if n.role == RolePrimary && n.epoch >= newEpoch {
		n.mu.Unlock()
		return n.Route(), nil
	}
	if newEpoch <= n.epoch {
		err := fmt.Errorf("cluster: promote to epoch %d refused: node already at %d", newEpoch, n.epoch)
		n.mu.Unlock()
		return nil, err
	}
	if n.bootstrap {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: promote refused: node needs a snapshot bootstrap (possibly divergent journal)")
	}
	if remaining := n.cfg.Lease - time.Since(n.lastContact); remaining > 0 {
		n.mu.Unlock()
		return nil, &LeaseError{Remaining: remaining}
	}
	oldEpoch := n.epoch
	mem := n.mem
	n.mu.Unlock()

	if len(minMarks) != mem.NumShards() {
		return nil, fmt.Errorf("cluster: promote carries %d shard marks, node has %d shards", len(minMarks), mem.NumShards())
	}
	start := time.Now()
	if err := n.catchUp(mem, oldEpoch, minMarks); err != nil {
		return nil, err
	}

	n.mu.Lock()
	if n.epoch >= newEpoch {
		// Someone promoted past us while we were catching up.
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	n.epoch = newEpoch
	n.role = RolePrimary
	n.leader = n.cfg.Self
	n.replicas = map[string][]uint64{}
	n.bootstrap = false
	n.notifyAckLocked()
	cl := n.pullCl
	n.pullCl = nil
	if err := n.saveMetaLocked(); err != nil {
		n.mu.Unlock()
		if cl != nil {
			_ = cl.Close()
		}
		return nil, err
	}
	n.mu.Unlock()
	if cl != nil {
		_ = cl.Close()
	}
	n.cPromotes.Inc()
	n.cfg.Obs.Tracer().Emit(obs.KindPromote, -1, newEpoch, 0, time.Since(start))
	n.logf("cluster: %s promoted to primary at epoch %d (catch-up %v)", n.cfg.Self, newEpoch, time.Since(start))
	return n.Route(), nil
}

// catchUp pulls missing WAL suffixes from donor peers until the node's
// durable marks cover minMarks. Donors serve Replicate read-only at the
// current epoch regardless of role, so any surviving replica works. The
// round that makes no progress while marks still fall short fails the
// promotion (the control plane computed minMarks from live nodes, so
// this means a donor died mid-catch-up).
func (n *Node) catchUp(mem *durable.Memory, epoch uint64, minMarks []uint64) error {
	covered := func() bool {
		marks := mem.SyncedLSNs()
		for i, min := range minMarks {
			if marks[i] < min {
				return false
			}
		}
		return true
	}
	if covered() {
		return nil
	}
	n.mu.Lock()
	peers := append([]string(nil), n.cfg.Peers...)
	n.mu.Unlock()
	for {
		progress := false
		for _, peer := range peers {
			if peer == n.cfg.Self || covered() {
				continue
			}
			cl, err := n.dialPeer(peer)
			if err != nil {
				continue // dead or refusing donor; others may still cover us
			}
			resp, err := cl.Replicate(&wire.ReplicateRequest{
				Epoch: epoch,
				// Node is empty: a donor poll must not register us as an
				// ack-bearing replica of the peer.
				Marks:          mem.SyncedLSNs(),
				Tenants:        n.tenants,
				CWRecords:      true,
				PagedBootstrap: true,
			})
			if err == nil && resp.Epoch == epoch && resp.Page == nil {
				marks := mem.SyncedLSNs()
				applied, applyErr := n.applyResponse(mem, epoch, marks, resp)
				progress = progress || applied
				err = applyErr
			}
			if err != nil {
				n.logf("cluster: %s catch-up from %s: %v", n.cfg.Self, peer, err)
			}
			_ = cl.Close()
		}
		if covered() {
			return nil
		}
		if !progress {
			return fmt.Errorf("cluster: catch-up stalled below %v at %v (donors gone?)", minMarks, mem.SyncedLSNs())
		}
	}
}

// Follow redirects the node to a (new) leader. An epoch below the node's
// own is a stale control-plane message and refused with the redirect; a
// primary told to follow at a higher epoch is thereby deposed, and its
// journal's unacked suffix forces a snapshot rejoin.
func (n *Node) Follow(epoch uint64, leader string) error {
	if leader == "" {
		return fmt.Errorf("cluster: follow needs a leader address")
	}
	n.mu.Lock()
	if epoch < n.epoch {
		err := n.movedLocked()
		n.mu.Unlock()
		return err
	}
	if leader == n.cfg.Self {
		n.mu.Unlock()
		return fmt.Errorf("cluster: refusing to follow myself; promotion is an explicit Promote call")
	}
	if epoch == n.epoch && n.role == RoleReplica && leader == n.leader {
		n.mu.Unlock()
		return nil
	}
	wasPrimary := n.role == RolePrimary
	if wasPrimary {
		n.cFences.Inc()
		n.cfg.Obs.Tracer().Emit(obs.KindFence, -1, epoch, n.epoch, 0)
		n.bootstrap = true
	}
	n.epoch = epoch
	n.role = RoleReplica
	n.leader = leader
	n.lastContact = time.Now() // fresh lease on the new leader
	n.notifyAckLocked()
	cl := n.pullCl
	n.pullCl = nil
	err := n.saveMetaLocked()
	n.mu.Unlock()
	if cl != nil {
		_ = cl.Close()
	}
	n.logf("cluster: %s following %s at epoch %d (was primary: %v)", n.cfg.Self, leader, epoch, wasPrimary)
	return err
}
