package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Payload codecs for the cluster ops (OpReplicate / OpRoute / OpPromote /
// OpFollow). The replication stream itself — the per-shard batches inside a
// ReplicateResponse — is opaque here: each batch is a run of sealed WAL
// frames produced by wal.Codec under a key bound to the sender's fencing
// epoch, so this layer only moves authenticated bytes around.

// Codec sanity caps: a hostile peer must not be able to make a node
// allocate absurd vectors with a tiny frame.
const (
	maxClusterShards = 1 << 16
	maxNodeAddr      = 1024
)

// RouteInfo is a node's view of the cluster, served as JSON by OpRoute.
type RouteInfo struct {
	// Epoch is the responder's fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Self is the responder's advertised address.
	Self string `json:"self"`
	// Role is "primary", "replica", or "fenced".
	Role string `json:"role"`
	// Leader is the primary's advertised address ("" when unknown).
	Leader string `json:"leader"`
	// Nodes lists the known cluster members (on a primary: itself plus
	// every follower currently polling it).
	Nodes []RouteNode `json:"nodes"`
	// Marks is the responder's own per-shard durable LSN vector.
	Marks []uint64 `json:"marks"`
	// LeaseRemainingMS is how much of the leader lease is left from this
	// replica's perspective (-1 on a primary). A replica refuses promotion
	// until it reaches 0.
	LeaseRemainingMS int64 `json:"lease_remaining_ms"`
}

// RouteNode is one cluster member in a RouteInfo.
type RouteNode struct {
	Addr string `json:"addr"`
	Role string `json:"role"`
}

// EncodeRouteInfo encodes an OpRoute OK payload.
func EncodeRouteInfo(r *RouteInfo) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wire: encode route: %w", err)
	}
	return b, nil
}

// DecodeRouteInfo decodes an OpRoute OK payload.
func DecodeRouteInfo(p []byte) (*RouteInfo, error) {
	var r RouteInfo
	if err := json.Unmarshal(p, &r); err != nil {
		return nil, fmt.Errorf("wire: decode route: %w", err)
	}
	return &r, nil
}

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
}

const replReqFixed = 8 + 1 + 2 + 4 // epoch + flags + nodeLen + nshards

// EncodeReplicateRequest encodes an OpReplicate request payload:
// | u64 epoch | u8 flags | u16 nodeLen | node | u32 nshards | u64 marks… |
func EncodeReplicateRequest(r *ReplicateRequest) ([]byte, error) {
	if len(r.Node) > maxNodeAddr {
		return nil, fmt.Errorf("wire: node address %d bytes, max %d", len(r.Node), maxNodeAddr)
	}
	if len(r.Marks) > maxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(r.Marks), maxClusterShards)
	}
	p := make([]byte, 0, replReqFixed+len(r.Node)+8*len(r.Marks))
	p = binary.BigEndian.AppendUint64(p, r.Epoch)
	var flags byte
	if r.Bootstrap {
		flags |= 1
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint16(p, uint16(len(r.Node)))
	p = append(p, r.Node...)
	p = binary.BigEndian.AppendUint32(p, uint32(len(r.Marks)))
	for _, m := range r.Marks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	return p, nil
}

// DecodeReplicateRequest decodes an OpReplicate request payload.
func DecodeReplicateRequest(p []byte) (*ReplicateRequest, error) {
	if len(p) < replReqFixed {
		return nil, fmt.Errorf("%w: replicate request is %d bytes, want >= %d", ErrMalformed, len(p), replReqFixed)
	}
	if p[8] > 1 {
		return nil, fmt.Errorf("%w: replicate request flags %#x", ErrMalformed, p[8])
	}
	r := &ReplicateRequest{Epoch: binary.BigEndian.Uint64(p), Bootstrap: p[8] == 1}
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

// EncodePromote encodes an OpPromote payload:
// | u64 newEpoch | u32 nshards | u64 minMarks… |
func EncodePromote(newEpoch uint64, minMarks []uint64) ([]byte, error) {
	if len(minMarks) > maxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(minMarks), maxClusterShards)
	}
	p := make([]byte, 0, 12+8*len(minMarks))
	p = binary.BigEndian.AppendUint64(p, newEpoch)
	p = binary.BigEndian.AppendUint32(p, uint32(len(minMarks)))
	for _, m := range minMarks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	return p, nil
}

// DecodePromote decodes an OpPromote payload.
func DecodePromote(p []byte) (newEpoch uint64, minMarks []uint64, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("wire: promote payload is %d bytes, want >= 12", len(p))
	}
	newEpoch = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	if n > maxClusterShards {
		return 0, nil, fmt.Errorf("wire: %d shard marks, max %d", n, maxClusterShards)
	}
	p = p[12:]
	if uint64(len(p)) != uint64(n)*8 {
		return 0, nil, fmt.Errorf("wire: promote marks are %d bytes, want %d", len(p), n*8)
	}
	minMarks = make([]uint64, n)
	for i := range minMarks {
		minMarks[i] = binary.BigEndian.Uint64(p[i*8:])
	}
	return newEpoch, minMarks, nil
}

// EncodeFollow encodes an OpFollow payload:
// | u64 epoch | u16 leaderLen | leader |
func EncodeFollow(epoch uint64, leader string) ([]byte, error) {
	if len(leader) > maxNodeAddr {
		return nil, fmt.Errorf("wire: leader address %d bytes, max %d", len(leader), maxNodeAddr)
	}
	p := make([]byte, 0, 10+len(leader))
	p = binary.BigEndian.AppendUint64(p, epoch)
	p = binary.BigEndian.AppendUint16(p, uint16(len(leader)))
	return append(p, leader...), nil
}

// DecodeFollow decodes an OpFollow payload.
func DecodeFollow(p []byte) (epoch uint64, leader string, err error) {
	if len(p) < 10 {
		return 0, "", fmt.Errorf("wire: follow payload is %d bytes, want >= 10", len(p))
	}
	epoch = binary.BigEndian.Uint64(p)
	n := int(binary.BigEndian.Uint16(p[8:]))
	if n > maxNodeAddr {
		return 0, "", fmt.Errorf("wire: leader address %d bytes, max %d", n, maxNodeAddr)
	}
	if len(p) != 10+n {
		return 0, "", fmt.Errorf("wire: follow payload is %d bytes, want %d", len(p), 10+n)
	}
	return epoch, string(p[10:]), nil
}

// Route fetches the answering node's cluster view. Non-cluster servers
// answer *RemoteError.
func (c *Client) Route() (*RouteInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpRoute, nil)
	if err != nil {
		return nil, err
	}
	return DecodeRouteInfo(body)
}

// Replicate performs one replication poll. The response is fully decoded
// into fresh allocations, safe to retain.
func (c *Client) Replicate(req *ReplicateRequest) (*ReplicateResponse, error) {
	p, err := EncodeReplicateRequest(req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpReplicate, p)
	if err != nil {
		return nil, err
	}
	return DecodeReplicateResponse(body)
}

// Promote asks the node to become primary at newEpoch once its WAL tail
// covers minMarks, returning its post-promotion cluster view.
func (c *Client) Promote(newEpoch uint64, minMarks []uint64) (*RouteInfo, error) {
	p, err := EncodePromote(newEpoch, minMarks)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpPromote, p)
	if err != nil {
		return nil, err
	}
	return DecodeRouteInfo(body)
}

// Follow redirects the node to follow leader at epoch.
func (c *Client) Follow(epoch uint64, leader string) error {
	p, err := EncodeFollow(epoch, leader)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = c.roundTrip(OpFollow, p)
	return err
}
