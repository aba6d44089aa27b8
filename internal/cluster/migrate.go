package cluster

import (
	"errors"
	"fmt"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/wire"
)

// Live shard migration: the primary (donor) hands one shard to a replica
// (recipient) while serving load. The recipient already journals the shard
// through replication, so the hand-off is all there is to it. The control
// plane sends the recipient MigrateRun naming the donor, and the recipient:
//
//	catch up  reads the donor's synced mark for the shard (OpRoute) and
//	          waits until its own puller covers it
//	Cutover   donor fences the shard: writes start answering the MOVED
//	          redirect naming the recipient; answers the final LSN
//	drain     waits until its puller covers the final LSN
//	own       marks the shard owned and starts serving it
//
// Every wait is on the recipient's own DurableSignal, bounded by AckTimeout.
// A failure anywhere sends the donor Abort (unfence, forget the new home) and
// leaves the recipient what it was, a replica: nothing was installed, so
// nothing is undone. No acknowledged write is lost in either direction —
// writes acked by the donor are in its journal up to the final LSN, which
// the recipient journaled and fsynced (ApplyReplicated) before owning the
// shard; writes acked by the recipient begin only after that.

// Migrate serves the donor-side phases (and Run, the recipient-side
// kick). Donor phases follow replication's epoch discipline: a higher
// epoch fences this node, a lower one is refused with the redirect.
func (n *Node) Migrate(req *wire.MigrateRequest) (*wire.MigrateResponse, error) {
	if req.Phase == wire.MigrateRun {
		return n.migrateRun(req)
	}
	n.mu.Lock()
	if req.Epoch > n.epoch {
		n.fenceLocked(req.Epoch)
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	if req.Epoch < n.epoch || n.role != RolePrimary {
		err := n.movedLocked()
		n.mu.Unlock()
		return nil, err
	}
	mem := n.mem
	epoch := n.epoch
	n.mu.Unlock()

	if int(req.Shard) >= mem.NumShards() {
		return nil, fmt.Errorf("cluster: migrate shard %d, node has %d shards", req.Shard, mem.NumShards())
	}
	switch req.Phase {
	case wire.MigrateCutover:
		return n.migrateCutover(mem, epoch, req)
	case wire.MigrateAbort:
		return n.migrateAbort(mem, epoch, req)
	}
	return nil, fmt.Errorf("cluster: unknown migrate phase %s", wire.MigratePhaseName(req.Phase))
}

// migrateCutover fences the shard and records its new home. From here on
// the donor answers writes to the shard with the MOVED redirect naming
// the recipient; the response carries the final LSN the recipient must
// drain to before serving.
func (n *Node) migrateCutover(mem *durable.Memory, epoch uint64, req *wire.MigrateRequest) (*wire.MigrateResponse, error) {
	if req.Node == "" {
		return nil, fmt.Errorf("cluster: cutover needs the recipient's address")
	}
	final, err := mem.FenceShard(int(req.Shard))
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.migratedTo == nil {
		n.migratedTo = map[int]string{}
	}
	n.migratedTo[int(req.Shard)] = req.Node
	n.mu.Unlock()
	n.cfg.Tracer.Emit(obs.KindMigrateCutover, int32(req.Shard), final, 0, 0)
	n.logf("cluster: %s cut shard %d over to %s (final LSN %d)", n.cfg.Self, req.Shard, req.Node, final)
	return &wire.MigrateResponse{Epoch: epoch, Mark: final}, nil
}

// migrateAbort unfences the shard and forgets its new home.
func (n *Node) migrateAbort(mem *durable.Memory, epoch uint64, req *wire.MigrateRequest) (*wire.MigrateResponse, error) {
	n.mu.Lock()
	delete(n.migratedTo, int(req.Shard))
	n.mu.Unlock()
	mem.UnfenceShard(int(req.Shard))
	n.logf("cluster: %s migration of shard %d aborted by %s", n.cfg.Self, req.Shard, req.Node)
	return &wire.MigrateResponse{Epoch: epoch}, nil
}

// migrateRun is the recipient-side kick: migrate req.Shard in from
// req.Donor. Runs synchronously; the OK response means the shard is
// journaled here through the donor's final LSN and served here, and
// carries that LSN.
func (n *Node) migrateRun(req *wire.MigrateRequest) (*wire.MigrateResponse, error) {
	if req.Donor == "" {
		return nil, fmt.Errorf("cluster: migrate run needs a donor address")
	}
	n.mu.Lock()
	if n.role != RoleReplica {
		err := fmt.Errorf("cluster: only a replica can receive a shard (role %s)", n.role)
		n.mu.Unlock()
		return nil, err
	}
	if n.migIn {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: a migration is already running here")
	}
	if n.bootstrap {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: migrate refused: node needs a snapshot bootstrap first")
	}
	if shards := n.mem.NumShards(); int(req.Shard) >= shards {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: migrate shard %d, node has %d shards", req.Shard, shards)
	}
	n.migIn = true
	epoch := n.epoch
	n.mu.Unlock()

	final, err := n.migrateFrom(epoch, req.Donor, int(req.Shard))
	if err != nil {
		// The shard is still the donor's: unfence it there. Here nothing
		// changed — the records pulled so far are a replica's records.
		n.abortDonor(req.Donor, epoch, req.Shard)
	}
	n.mu.Lock()
	n.migIn = false
	if err == nil {
		if n.owned == nil {
			n.owned = map[int]bool{}
		}
		n.owned[int(req.Shard)] = true
	}
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	n.cMigrations.Inc()
	return &wire.MigrateResponse{Epoch: epoch, Mark: final}, nil
}

// migrateFrom catches up with the donor, cuts it over and drains to its
// final LSN, which it returns.
func (n *Node) migrateFrom(epoch uint64, donor string, shard int) (uint64, error) {
	start := time.Now()
	cl, err := wire.Dial(donor, n.cfg.DialTimeout)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial donor: %w", err)
	}
	defer cl.Close()
	ri, err := cl.Route()
	if err != nil {
		return 0, fmt.Errorf("cluster: donor route: %w", err)
	}
	if ri.Epoch != epoch || shard >= len(ri.Marks) {
		return 0, fmt.Errorf("cluster: donor %s is at epoch %d with %d shards, migration of shard %d is at epoch %d", donor, ri.Epoch, len(ri.Marks), shard, epoch)
	}
	if err := n.awaitSynced(shard, ri.Marks[shard]); err != nil {
		return 0, err
	}
	cut, err := cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateCutover, Epoch: epoch, Shard: uint32(shard), Node: n.cfg.Self,
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: migrate cutover: %w", err)
	}
	if err := n.awaitSynced(shard, cut.Mark); err != nil {
		return 0, err
	}
	n.cfg.Tracer.Emit(obs.KindMigrateCutover, int32(shard), cut.Mark, 1, time.Since(start))
	n.logf("cluster: %s now serves shard %d (migrated from %s in %v)", n.cfg.Self, shard, donor, time.Since(start))
	return cut.Mark, nil
}

// awaitSynced waits until this node's journal holds shard's records through
// lsn. The puller lands them through ApplyReplicated, whose fsync closes the
// DurableSignal channel, so each wake-up is a record made durable; the wait
// gives up after AckTimeout.
func (n *Node) awaitSynced(shard int, lsn uint64) error {
	timer := time.NewTimer(n.cfg.AckTimeout)
	defer timer.Stop()
	for {
		mem := n.memory()
		sig := mem.DurableSignal()
		have := mem.SyncedLSNs()[shard]
		if have >= lsn {
			return nil
		}
		select {
		case <-sig:
		case <-timer.C:
			return fmt.Errorf("cluster: shard %d journaled to LSN %d, not %d, after %v", shard, have, lsn, n.cfg.AckTimeout)
		case <-n.stopc:
			return fmt.Errorf("cluster: node closed while migrating shard %d in", shard)
		}
	}
}

// abortDonor best-effort tells the donor to unfence and discard.
func (n *Node) abortDonor(donor string, epoch uint64, shard uint32) {
	cl, err := wire.Dial(donor, n.cfg.DialTimeout)
	if err != nil {
		return
	}
	defer cl.Close()
	_, _ = cl.Migrate(&wire.MigrateRequest{
		Phase: wire.MigrateAbort, Epoch: epoch, Shard: shard, Node: n.cfg.Self,
	})
}

// shardFor locates addr's shard (for routing decisions); -1 when invalid.
func (n *Node) shardFor(mem *durable.Memory, addr uint64) int {
	idx, _, err := mem.Sharded().Locate(addr)
	if err != nil {
		return -1
	}
	return idx
}

// routeShardLocked answers where a data op on shard should go, given this
// node's migration state. Returns nil when the op should run locally.
// Called with n.mu held.
func (n *Node) routeShardLocked(shard int) error {
	if n.role == RolePrimary {
		if to, ok := n.migratedTo[shard]; ok {
			return &wire.MovedError{Epoch: n.epoch, Leader: to}
		}
		return nil
	}
	if n.owned[shard] {
		return nil
	}
	return n.movedLocked()
}

// translateFenced rewrites the durable layer's fenced-shard refusal into
// the MOVED redirect naming the shard's new home (a write can slip past
// routing into a shard fenced an instant later).
func (n *Node) translateFenced(err error) error {
	var fe *durable.ShardFencedError
	if !errors.As(err, &fe) {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if to, ok := n.migratedTo[fe.Shard]; ok {
		return &wire.MovedError{Epoch: n.epoch, Leader: to}
	}
	return n.movedLocked()
}
