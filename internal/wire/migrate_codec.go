package wire

import (
	"encoding/binary"
	"fmt"
)

// Payload codec for OpMigrate, the live shard migration op. One opcode
// carries the whole protocol; a phase byte selects the message. The
// control plane kicks the recipient with Run; the recipient, already a
// replica of the donor, sends it Cutover (or Abort). The shard's records
// themselves travel through OpReplicate, never here.

// Migration phases. 1–3 named the spill and tail phases of an older
// protocol; they are not reused.
const (
	// MigrateCutover fences Shard on the donor (writes start answering
	// the MOVED redirect naming Node) and answers the final LSN.
	MigrateCutover byte = 4
	// MigrateAbort unfences Shard on the donor and forgets its new home.
	MigrateAbort byte = 5
	// MigrateRun asks the receiving node to migrate Shard in from Donor.
	// This is the one phase served by the recipient, and the only one the
	// control plane sends.
	MigrateRun byte = 6
)

// migratePhaseNames maps phases to names for errors and traces.
var migratePhaseNames = map[byte]string{
	MigrateCutover: "cutover",
	MigrateAbort:   "abort",
	MigrateRun:     "run",
}

// MigratePhaseName returns the lowercase name of a migration phase.
func MigratePhaseName(ph byte) string {
	if name, ok := migratePhaseNames[ph]; ok {
		return name
	}
	return fmt.Sprintf("phase_%02x", ph)
}

// MigrateRequest is one OpMigrate message.
type MigrateRequest struct {
	// Phase selects the message (MigrateCutover, MigrateAbort, MigrateRun).
	Phase byte
	// Epoch is the sender's fencing epoch. Donor-side phases are refused
	// (with the MOVED redirect) on a mismatch, like replication polls.
	Epoch uint64
	// Shard is the shard being migrated.
	Shard uint32
	// Node is the sender's advertised address. On Cutover it is the
	// address the donor's redirects will name as the shard's new home.
	Node string
	// Donor is the address to migrate from (Run only).
	Donor string
}

const migReqFixed = 1 + 8 + 4 + 2 + 2 // phase+epoch+shard+nodeLen+donorLen

// EncodeMigrateRequest encodes an OpMigrate request payload:
// | u8 phase | u64 epoch | u32 shard | u16 nodeLen | node | u16 donorLen | donor |
func EncodeMigrateRequest(r *MigrateRequest) ([]byte, error) {
	if len(r.Node) > maxNodeAddr {
		return nil, fmt.Errorf("wire: node address %d bytes, max %d", len(r.Node), maxNodeAddr)
	}
	if len(r.Donor) > maxNodeAddr {
		return nil, fmt.Errorf("wire: donor address %d bytes, max %d", len(r.Donor), maxNodeAddr)
	}
	p := make([]byte, 0, migReqFixed+len(r.Node)+len(r.Donor))
	p = append(p, r.Phase)
	p = binary.BigEndian.AppendUint64(p, r.Epoch)
	p = binary.BigEndian.AppendUint32(p, r.Shard)
	p = binary.BigEndian.AppendUint16(p, uint16(len(r.Node)))
	p = append(p, r.Node...)
	p = binary.BigEndian.AppendUint16(p, uint16(len(r.Donor)))
	return append(p, r.Donor...), nil
}

// DecodeMigrateRequest decodes an OpMigrate request payload. Every length
// must account for the payload exactly, so the older layout, which carried
// a cursor and a record cap between the two addresses, is refused.
func DecodeMigrateRequest(p []byte) (*MigrateRequest, error) {
	if len(p) < migReqFixed {
		return nil, fmt.Errorf("%w: migrate request is %d bytes, want >= %d", ErrMalformed, len(p), migReqFixed)
	}
	r := &MigrateRequest{Phase: p[0]}
	r.Epoch = binary.BigEndian.Uint64(p[1:])
	r.Shard = binary.BigEndian.Uint32(p[9:])
	nodeLen := int(binary.BigEndian.Uint16(p[13:]))
	if nodeLen > maxNodeAddr {
		return nil, fmt.Errorf("%w: node address %d bytes, max %d", ErrMalformed, nodeLen, maxNodeAddr)
	}
	p = p[15:]
	if len(p) < nodeLen+2 {
		return nil, fmt.Errorf("%w: migrate request cut short in node address", ErrMalformed)
	}
	r.Node = string(p[:nodeLen])
	donorLen := int(binary.BigEndian.Uint16(p[nodeLen:]))
	if donorLen > maxNodeAddr {
		return nil, fmt.Errorf("%w: donor address %d bytes, max %d", ErrMalformed, donorLen, maxNodeAddr)
	}
	p = p[nodeLen+2:]
	if len(p) != donorLen {
		return nil, fmt.Errorf("%w: migrate request donor is %d bytes, want %d", ErrMalformed, len(p), donorLen)
	}
	r.Donor = string(p)
	return r, nil
}

// MigrateResponse answers one OpMigrate message.
type MigrateResponse struct {
	// Epoch is the responder's fencing epoch.
	Epoch uint64
	// Mark is the donor's final LSN for the shard (Cutover), or the LSN
	// the recipient took the shard over at (Run).
	Mark uint64
}

const migRespBytes = 8 + 8 // epoch+mark

// EncodeMigrateResponse encodes an OpMigrate OK payload:
// | u64 epoch | u64 mark |
func EncodeMigrateResponse(r *MigrateResponse) ([]byte, error) {
	p := make([]byte, 0, migRespBytes)
	p = binary.BigEndian.AppendUint64(p, r.Epoch)
	return binary.BigEndian.AppendUint64(p, r.Mark), nil
}

// DecodeMigrateResponse decodes an OpMigrate OK payload.
func DecodeMigrateResponse(p []byte) (*MigrateResponse, error) {
	if len(p) != migRespBytes {
		return nil, fmt.Errorf("%w: migrate response is %d bytes, want %d", ErrMalformed, len(p), migRespBytes)
	}
	return &MigrateResponse{Epoch: binary.BigEndian.Uint64(p), Mark: binary.BigEndian.Uint64(p[8:])}, nil
}

// Migrate performs one OpMigrate round trip.
func (c *Client) Migrate(req *MigrateRequest) (*MigrateResponse, error) {
	p, err := EncodeMigrateRequest(req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpMigrate, p)
	if err != nil {
		return nil, err
	}
	return DecodeMigrateResponse(body)
}
