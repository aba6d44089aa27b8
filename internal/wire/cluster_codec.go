package wire

import (
	"encoding/binary"
	"fmt"
)

// Payload codecs for the one cluster op, OpReplicate. Failover is not a
// wire op: the process that embeds a node calls its Promote and
// Follow. The replication stream itself — the per-shard batches inside a
// ReplicateResponse — is opaque here: each batch is a run of sealed WAL
// frames produced by wal.Codec under a key bound to the sender's fencing
// epoch, so this layer only moves authenticated bytes around.

// Codec sanity caps: a hostile peer must not be able to make a node
// allocate absurd vectors with a tiny frame.
const (
	maxClusterShards = 1 << 16
	maxNodeAddr      = 1024
)

// ReplicateRequest is a follower's replication poll.
type ReplicateRequest struct {
	// Epoch is the follower's fencing epoch; a primary at a lower epoch
	// steps down on seeing it, a follower polling a higher-epoch primary
	// gets a MovedError carrying the current epoch.
	Epoch uint64
	// Node is the follower's advertised address (the primary keys its
	// replica-acknowledgement state by it).
	Node string
	// Marks is the follower's per-shard durable watermark vector; the
	// response streams records strictly past these.
	Marks []uint64
	// Bootstrap forces a full snapshot response regardless of Marks — a
	// deposed ex-primary rejoining must discard its possibly-divergent log.
	Bootstrap bool
	// Tenants is the digest of the follower's tenant list
	// (durable.TenantDigest), nil when it has none; a node with another list
	// refuses the poll.
	Tenants []byte
	// CWRecords says the follower reads WAL records sealed by the line MAC
	// (wal.KindWrite, 0x04), which every batch is made of. A primary refuses
	// a poll without it: the poller is of a build that reads only the
	// generation before, and would take the first batch for tampering.
	CWRecords bool
}

const (
	replReqFixed    = 8 + 1 + 2 + 4 // epoch + flags + nodeLen + nshards
	tenantDigestLen = 32            // a ReplicateRequest's Tenants
)

// EncodeReplicateRequest encodes an OpReplicate request payload:
// | u64 epoch | u8 flags | u16 nodeLen | node | u32 nshards | u64 marks… |
// then, with a tenant list (flags bit1): | 32-byte digest |. Flags bit0 is
// Bootstrap, bit2 CWRecords.
func EncodeReplicateRequest(r *ReplicateRequest) ([]byte, error) {
	if len(r.Node) > maxNodeAddr {
		return nil, fmt.Errorf("wire: node address %d bytes, max %d", len(r.Node), maxNodeAddr)
	}
	if len(r.Marks) > maxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(r.Marks), maxClusterShards)
	}
	if r.Tenants != nil && len(r.Tenants) != tenantDigestLen {
		return nil, fmt.Errorf("wire: tenant digest %d bytes, want %d", len(r.Tenants), tenantDigestLen)
	}
	p := make([]byte, 0, replReqFixed+len(r.Node)+8*len(r.Marks)+len(r.Tenants))
	p = binary.BigEndian.AppendUint64(p, r.Epoch)
	var flags byte
	if r.Bootstrap {
		flags |= 1
	}
	if r.Tenants != nil {
		flags |= 2
	}
	if r.CWRecords {
		flags |= 4
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint16(p, uint16(len(r.Node)))
	p = append(p, r.Node...)
	p = binary.BigEndian.AppendUint32(p, uint32(len(r.Marks)))
	for _, m := range r.Marks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	return append(p, r.Tenants...), nil
}

// DecodeReplicateRequest decodes an OpReplicate request payload.
func DecodeReplicateRequest(p []byte) (*ReplicateRequest, error) {
	if len(p) < replReqFixed {
		return nil, fmt.Errorf("%w: replicate request is %d bytes, want >= %d", ErrMalformed, len(p), replReqFixed)
	}
	flags := p[8]
	if flags > 7 {
		return nil, fmt.Errorf("%w: replicate request flags %#x", ErrMalformed, flags)
	}
	r := &ReplicateRequest{Epoch: binary.BigEndian.Uint64(p), Bootstrap: flags&1 != 0, CWRecords: flags&4 != 0}
	nodeLen := int(binary.BigEndian.Uint16(p[9:]))
	if nodeLen > maxNodeAddr {
		return nil, fmt.Errorf("%w: node address %d bytes, max %d", ErrMalformed, nodeLen, maxNodeAddr)
	}
	p = p[11:]
	if len(p) < nodeLen+4 {
		return nil, fmt.Errorf("%w: replicate request cut short in node address", ErrMalformed)
	}
	r.Node = string(p[:nodeLen])
	n := binary.BigEndian.Uint32(p[nodeLen:])
	if n > maxClusterShards {
		return nil, fmt.Errorf("%w: %d shard marks, max %d", ErrMalformed, n, maxClusterShards)
	}
	p = p[nodeLen+4:]
	if flags&2 != 0 {
		if len(p) < tenantDigestLen {
			return nil, fmt.Errorf("%w: replicate request cut short in tenant digest", ErrMalformed)
		}
		r.Tenants = append([]byte(nil), p[len(p)-tenantDigestLen:]...)
		p = p[:len(p)-tenantDigestLen]
	}
	if uint64(len(p)) != uint64(n)*8 {
		return nil, fmt.Errorf("%w: replicate request marks are %d bytes, want %d", ErrMalformed, len(p), n*8)
	}
	r.Marks = make([]uint64, n)
	for i := range r.Marks {
		r.Marks[i] = binary.BigEndian.Uint64(p[i*8:])
	}
	return r, nil
}

// ReplicateResponse is the primary's answer to a replication poll: either
// per-shard sealed record batches past the follower's watermarks, or a full
// snapshot bootstrap when the cursor predates the retained log.
type ReplicateResponse struct {
	// Epoch is the responder's fencing epoch; batches are sealed under the
	// replication key bound to it.
	Epoch uint64
	// Marks is the responder's own durable watermark vector (followers
	// compute replication lag from it).
	Marks []uint64
	// Batches holds one sealed wal.Codec frame run per shard (nil/empty =
	// nothing new). Empty when Snapshot is set.
	Batches [][]byte
	// Snapshot, when non-nil, is a full-state blob covering SnapMarks: the
	// authenticated state stream a snapshot file holds (durable.SaveMarks).
	// The follower must discard its local state and InstallSnapshot instead
	// of applying batches.
	Snapshot []byte
	// SnapMarks is the per-shard LSN vector Snapshot covers. The blob's own
	// header says the same under its MAC; a follower refuses a pair that
	// disagrees.
	SnapMarks []uint64
}

const replRespFixed = 8 + 1 + 4 // epoch + flags + nshards

// EncodeReplicateResponse encodes an OpReplicate OK payload:
// | u64 epoch | u8 flags | u32 nshards | u64 marks… |
// then, snapshot (flags bit0): | u64 snapMarks… | blob |
// else: per shard | u32 batchLen | batch |.
func EncodeReplicateResponse(r *ReplicateResponse) ([]byte, error) {
	if len(r.Marks) > maxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(r.Marks), maxClusterShards)
	}
	size := replRespFixed + 8*len(r.Marks)
	snapshot := r.Snapshot != nil
	if snapshot {
		if len(r.SnapMarks) != len(r.Marks) {
			return nil, fmt.Errorf("wire: snapshot covers %d shards, marks %d", len(r.SnapMarks), len(r.Marks))
		}
		size += 8*len(r.SnapMarks) + len(r.Snapshot)
	} else {
		if len(r.Batches) != len(r.Marks) {
			return nil, fmt.Errorf("wire: %d batches for %d shards", len(r.Batches), len(r.Marks))
		}
		for _, b := range r.Batches {
			size += 4 + len(b)
		}
	}
	p := make([]byte, 0, size)
	p = binary.BigEndian.AppendUint64(p, r.Epoch)
	var flags byte
	if snapshot {
		flags |= 1
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint32(p, uint32(len(r.Marks)))
	for _, m := range r.Marks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	if snapshot {
		for _, m := range r.SnapMarks {
			p = binary.BigEndian.AppendUint64(p, m)
		}
		return append(p, r.Snapshot...), nil
	}
	for _, b := range r.Batches {
		p = binary.BigEndian.AppendUint32(p, uint32(len(b)))
		p = append(p, b...)
	}
	return p, nil
}

// DecodeReplicateResponse decodes an OpReplicate OK payload. All returned
// slices are fresh copies, safe to retain.
func DecodeReplicateResponse(p []byte) (*ReplicateResponse, error) {
	if len(p) < replRespFixed {
		return nil, fmt.Errorf("%w: replicate response is %d bytes, want >= %d", ErrMalformed, len(p), replRespFixed)
	}
	if p[8] > 1 {
		return nil, fmt.Errorf("%w: replicate response flags %#x", ErrMalformed, p[8])
	}
	r := &ReplicateResponse{Epoch: binary.BigEndian.Uint64(p)}
	snapshot := p[8] == 1
	n := binary.BigEndian.Uint32(p[9:])
	if n > maxClusterShards {
		return nil, fmt.Errorf("%w: %d shard marks, max %d", ErrMalformed, n, maxClusterShards)
	}
	p = p[replRespFixed:]
	if uint64(len(p)) < uint64(n)*8 {
		return nil, fmt.Errorf("%w: replicate response cut short in marks", ErrMalformed)
	}
	r.Marks = make([]uint64, n)
	for i := range r.Marks {
		r.Marks[i] = binary.BigEndian.Uint64(p[i*8:])
	}
	p = p[n*8:]
	if snapshot {
		if uint64(len(p)) < uint64(n)*8 {
			return nil, fmt.Errorf("%w: replicate response cut short in snapshot marks", ErrMalformed)
		}
		r.SnapMarks = make([]uint64, n)
		for i := range r.SnapMarks {
			r.SnapMarks[i] = binary.BigEndian.Uint64(p[i*8:])
		}
		r.Snapshot = append([]byte{}, p[n*8:]...) // non-nil even when empty: the flag said snapshot
		return r, nil
	}
	r.Batches = make([][]byte, n)
	for i := range r.Batches {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: replicate response cut short in batch %d length", ErrMalformed, i)
		}
		bl := binary.BigEndian.Uint32(p)
		p = p[4:]
		if uint64(len(p)) < uint64(bl) {
			return nil, fmt.Errorf("%w: replicate response cut short in batch %d body", ErrMalformed, i)
		}
		if bl > 0 {
			r.Batches[i] = append([]byte(nil), p[:bl]...)
		}
		p = p[bl:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: replicate response has %d trailing bytes", ErrMalformed, len(p))
	}
	return r, nil
}
