package server

import (
	"fmt"

	"github.com/securemem/morphtree/internal/wire"
)

// ClusterNode is the optional engine surface behind the cluster control ops
// (OpRoute, OpReplicate, OpPromote, OpFollow). *cluster.Node
// implements it — the same value whose data ops follow its role gating; the
// interface lives here (in wire types) so the server package never imports
// the cluster package.
//
// All four ops are served without an admission slot and without a tenant
// binding, like OpPing: replication and failover must not be shed by
// client load — a primary too busy to stream its WAL would stall every
// follower exactly when durability matters most.
type ClusterNode interface {
	// Route reports the node's view of the cluster.
	Route() *wire.RouteInfo
	// Replicate answers one follower poll (may hold the poll open while
	// waiting for new durable records).
	Replicate(req *wire.ReplicateRequest) (*wire.ReplicateResponse, error)
	// Promote asks the node to become primary at a new fencing epoch,
	// catching up to minMarks first.
	Promote(newEpoch uint64, minMarks []uint64) (*wire.RouteInfo, error)
	// Follow redirects the node to a leader at an epoch.
	Follow(epoch uint64, leader string) error
}

// isClusterOp reports whether op is one of the cluster control opcodes.
func isClusterOp(op byte) bool {
	switch op {
	case wire.OpRoute, wire.OpReplicate, wire.OpPromote, wire.OpFollow:
		return true
	}
	return false
}

// handleCluster serves one cluster control op. Non-cluster servers
// answer a plain error for all four.
func (s *Server) handleCluster(op byte, payload []byte) (byte, []byte) {
	cn := s.cluster
	if cn == nil {
		return wire.StatusError, []byte(fmt.Sprintf("%s: this server is not a cluster node (start with -cluster)", wire.OpName(op)))
	}
	switch op {
	case wire.OpRoute:
		body, err := wire.EncodeRouteInfo(cn.Route())
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body

	case wire.OpReplicate:
		req, err := wire.DecodeReplicateRequest(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		resp, err := cn.Replicate(req)
		if err != nil {
			return wire.EncodeError(err)
		}
		body, err := wire.EncodeReplicateResponse(resp)
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body

	case wire.OpPromote:
		epoch, minMarks, err := wire.DecodePromote(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		ri, err := cn.Promote(epoch, minMarks)
		if err != nil {
			return wire.EncodeError(err)
		}
		body, err := wire.EncodeRouteInfo(ri)
		if err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, body

	case wire.OpFollow:
		epoch, leader, err := wire.DecodeFollow(payload)
		if err != nil {
			return wire.EncodeError(err)
		}
		if err := cn.Follow(epoch, leader); err != nil {
			return wire.EncodeError(err)
		}
		return wire.StatusOK, nil
	}
	return wire.StatusError, []byte(fmt.Sprintf("unknown cluster opcode %#x", op))
}
