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
// epoch, and a bootstrap page is a slice of a file sealed under the
// snapshot's MAC, so this layer only moves authenticated bytes around.

// Codec sanity caps: a hostile peer must not be able to make a node
// allocate absurd vectors with a tiny frame. MaxClusterShards is also the
// most shards a poll or its answer can name.
const (
	MaxClusterShards = 1 << 16
	maxNodeAddr      = 1024
)

// PageBytes is the most of a base snapshot file one REPLICATE answer
// carries: a bootstrap crosses as pages of it, one per poll, so no frame
// grows with the store.
const PageBytes = 1 << 20

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
	// Bootstrap asks for a page of the base snapshot regardless of Marks —
	// a deposed ex-primary rejoining must discard its possibly-divergent
	// log, and a follower part-way through a bootstrap asks for its next
	// page.
	Bootstrap bool
	// Base and Offset name the page a Bootstrap poll wants: the base
	// snapshot the follower is spooling and how many of its bytes it holds.
	// A base that is not the primary's current one (0, say) gets offset 0
	// of the current base.
	Base, Offset uint64
	// Tenants is the digest of the follower's tenant list
	// (durable.TenantDigest), nil when it has none; a node with another list
	// refuses the poll.
	Tenants []byte
	// CWRecords says the follower reads WAL records sealed by the line MAC
	// (wal.KindWrite, 0x04), which every batch is made of. A primary refuses
	// a poll without it: the poller is of a build that reads only the
	// generation before, and would take the first batch for tampering.
	CWRecords bool
	// PagedBootstrap says the follower bootstraps from pages of the base
	// snapshot (BasePage) and that the poll carries Base and Offset. A
	// primary refuses a poll without it: the poller is of a build that takes
	// a bootstrap as one answer holding the whole state stream.
	PagedBootstrap bool
}

const (
	replReqFixed    = 8 + 1 + 2 + 4 // epoch + flags + nodeLen + nshards
	replReqPage     = 8 + 8         // a PagedBootstrap poll's base + offset
	tenantDigestLen = 32            // a ReplicateRequest's Tenants
)

// EncodeReplicateRequest encodes an OpReplicate request payload:
// | u64 epoch | u8 flags | u16 nodeLen | node | u32 nshards | u64 marks… |
// then, with PagedBootstrap (flags bit3): | u64 base | u64 offset |, then,
// with a tenant list (flags bit1): | 32-byte digest |. Flags bit0 is
// Bootstrap, bit2 CWRecords.
func EncodeReplicateRequest(r *ReplicateRequest) ([]byte, error) {
	if len(r.Node) > maxNodeAddr {
		return nil, fmt.Errorf("wire: node address %d bytes, max %d", len(r.Node), maxNodeAddr)
	}
	if len(r.Marks) > MaxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(r.Marks), MaxClusterShards)
	}
	if r.Tenants != nil && len(r.Tenants) != tenantDigestLen {
		return nil, fmt.Errorf("wire: tenant digest %d bytes, want %d", len(r.Tenants), tenantDigestLen)
	}
	p := make([]byte, 0, replReqFixed+len(r.Node)+8*len(r.Marks)+replReqPage+len(r.Tenants))
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
	if r.PagedBootstrap {
		flags |= 8
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint16(p, uint16(len(r.Node)))
	p = append(p, r.Node...)
	p = binary.BigEndian.AppendUint32(p, uint32(len(r.Marks)))
	for _, m := range r.Marks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	if r.PagedBootstrap {
		p = binary.BigEndian.AppendUint64(p, r.Base)
		p = binary.BigEndian.AppendUint64(p, r.Offset)
	}
	return append(p, r.Tenants...), nil
}

// DecodeReplicateRequest decodes an OpReplicate request payload.
func DecodeReplicateRequest(p []byte) (*ReplicateRequest, error) {
	if len(p) < replReqFixed {
		return nil, fmt.Errorf("%w: replicate request is %d bytes, want >= %d", ErrMalformed, len(p), replReqFixed)
	}
	flags := p[8]
	if flags > 15 {
		return nil, fmt.Errorf("%w: replicate request flags %#x", ErrMalformed, flags)
	}
	r := &ReplicateRequest{Epoch: binary.BigEndian.Uint64(p), Bootstrap: flags&1 != 0, CWRecords: flags&4 != 0, PagedBootstrap: flags&8 != 0}
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
	if n > MaxClusterShards {
		return nil, fmt.Errorf("%w: %d shard marks, max %d", ErrMalformed, n, MaxClusterShards)
	}
	p = p[nodeLen+4:]
	want := uint64(n) * 8
	if r.PagedBootstrap {
		want += replReqPage
	}
	if flags&2 != 0 {
		want += tenantDigestLen
	}
	if uint64(len(p)) != want {
		return nil, fmt.Errorf("%w: replicate request has %d bytes past the node address, want %d", ErrMalformed, len(p), want)
	}
	r.Marks = make([]uint64, n)
	for i := range r.Marks {
		r.Marks[i] = binary.BigEndian.Uint64(p[i*8:])
	}
	p = p[n*8:]
	if r.PagedBootstrap {
		r.Base, r.Offset = binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:])
		p = p[replReqPage:]
	}
	if flags&2 != 0 {
		r.Tenants = append([]byte(nil), p...)
	}
	return r, nil
}

// ReplicateResponse is the primary's answer to a replication poll: either
// per-shard sealed record batches past the follower's watermarks, or a page
// of the base snapshot when the follower bootstraps.
type ReplicateResponse struct {
	// Epoch is the responder's fencing epoch; batches are sealed under the
	// replication key bound to it.
	Epoch uint64
	// Marks is the responder's own durable watermark vector (followers
	// compute replication lag from it).
	Marks []uint64
	// Batches holds one sealed wal.Codec frame run per shard (nil/empty =
	// nothing new). Empty when Page is set.
	Batches [][]byte
	// Page, when non-nil, is a page of the responder's base snapshot: the
	// follower spools it instead of applying batches, and recovers from the
	// spool once it holds the whole file.
	Page *BasePage
}

// BasePage is one page of a primary's base snapshot file — the full image
// its live WAL segments start after, which never changes once renamed. The
// page is nothing anyone has authenticated: the follower authenticates the
// file whole, under its state stream's frame tags, before it lands.
type BasePage struct {
	// Seq is the base snapshot's epoch and Size its length in bytes.
	Seq, Size uint64
	// Offset is where Data starts in the file. Data is 1..PageBytes bytes
	// and ends at or before Size.
	Offset uint64
	Data   []byte
}

const (
	replRespFixed = 8 + 1 + 4    // epoch + flags + nshards
	replRespPage  = 8 + 8 + 8    // a page's seq + size + offset
	flagPage      = byte(1) << 1 // bit0 was the whole-stream snapshot answer
)

// checkPage holds a page to what a follower can spool: some bytes, at most a
// page of them, inside the file.
func checkPage(pg *BasePage) error {
	if n := uint64(len(pg.Data)); n == 0 || n > PageBytes || pg.Offset > pg.Size || n > pg.Size-pg.Offset {
		return fmt.Errorf("%w: a page of %d bytes at %d of a %d-byte base", ErrMalformed, n, pg.Offset, pg.Size)
	}
	return nil
}

// EncodeReplicateResponse encodes an OpReplicate OK payload:
// | u64 epoch | u8 flags | u32 nshards | u64 marks… |
// then, a page (flags bit1): | u64 seq | u64 size | u64 offset | data |
// else: per shard | u32 batchLen | batch |.
func EncodeReplicateResponse(r *ReplicateResponse) ([]byte, error) {
	if len(r.Marks) > MaxClusterShards {
		return nil, fmt.Errorf("wire: %d shard marks, max %d", len(r.Marks), MaxClusterShards)
	}
	size := replRespFixed + 8*len(r.Marks)
	var flags byte
	if r.Page != nil {
		if err := checkPage(r.Page); err != nil {
			return nil, err
		}
		flags = flagPage
		size += replRespPage + len(r.Page.Data)
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
	p = append(p, flags)
	p = binary.BigEndian.AppendUint32(p, uint32(len(r.Marks)))
	for _, m := range r.Marks {
		p = binary.BigEndian.AppendUint64(p, m)
	}
	if pg := r.Page; pg != nil {
		p = binary.BigEndian.AppendUint64(p, pg.Seq)
		p = binary.BigEndian.AppendUint64(p, pg.Size)
		p = binary.BigEndian.AppendUint64(p, pg.Offset)
		return append(p, pg.Data...), nil
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
	if p[8] != 0 && p[8] != flagPage {
		return nil, fmt.Errorf("%w: replicate response flags %#x", ErrMalformed, p[8])
	}
	r := &ReplicateResponse{Epoch: binary.BigEndian.Uint64(p)}
	page := p[8] == flagPage
	n := binary.BigEndian.Uint32(p[9:])
	if n > MaxClusterShards {
		return nil, fmt.Errorf("%w: %d shard marks, max %d", ErrMalformed, n, MaxClusterShards)
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
	if page {
		if len(p) < replRespPage {
			return nil, fmt.Errorf("%w: replicate response cut short in the page header", ErrMalformed)
		}
		r.Page = &BasePage{
			Seq:    binary.BigEndian.Uint64(p),
			Size:   binary.BigEndian.Uint64(p[8:]),
			Offset: binary.BigEndian.Uint64(p[16:]),
			Data:   append([]byte(nil), p[replRespPage:]...),
		}
		if err := checkPage(r.Page); err != nil {
			return nil, err
		}
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
