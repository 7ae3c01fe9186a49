// Package replnet is the networked replication tier: a TCP transport and
// cluster layer over the checkpoint-anchored replication machinery in
// internal/repl. A primary-side Server accepts follower connections,
// streams each one a snapshot bootstrap and then the released change
// batches, with per-peer send queues, heartbeats, and deadline-based
// liveness; a follower-side Client dials, bootstraps, applies batches,
// and reconnects with jittered exponential backoff.
//
// One TCP connection carries three phases in order:
//
//  1. handshake — a hello message from the follower, a welcome from the
//     primary, both replnet messages (format below);
//  2. bootstrap — the raw repl snapshot stream (internal/repl wire
//     format, "IRPL" frames) written by the primary's exporter and
//     consumed by repl.Restore on the follower. Restore reads frames
//     exactly (no read-ahead past the end frame), so the stream hands
//     the connection back to phase 3 without any delimiter;
//  3. live — replnet messages both ways: change-batch chunks and
//     heartbeats from the primary, acks from the follower.
//
// A replnet message reuses the shape of a repl frame — checksummed and
// length-prefixed, with its own magic so a desynchronized stream fails
// loudly instead of being misparsed:
//
//	magic   uint32 (little-endian, "IRNP")
//	type    uint8
//	length  uint32 (payload bytes)
//	crc32   uint32 (IEEE, of the payload)
//	payload
//
// Message payloads:
//
//	hello:     proto u16, reserved u16, {idlen uvarint, id}
//	welcome:   proto u16, released u64
//	batch:     horizon u64, flags u8 (bit0: final chunk), count u32,
//	           then {op u8, epoch-delta uvarint (horizon−epoch),
//	           shard uvarint, klen uvarint, vlen uvarint, key, val}…
//	heartbeat: nonce i64 (sender clock, echoed), released u64
//	ack:       nonce i64 (echo of a heartbeat, 0 for a batch ack),
//	           applied u64
//	bye:       reason u8 (1: primary closed cleanly, 2: stream lost)
//
// A released batch larger than the chunk target is split into several
// batch messages sharing one horizon; only the last carries the final
// flag, and the follower checkpoints and advances its applied watermark
// only on final chunks — its durable state is always a whole released
// prefix, never a torn middle of an epoch.
package replnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"incll/internal/core"
	"incll/internal/repl"
)

const (
	msgMagic = 0x504E5249 // "IRNP"

	msgHello     = 1
	msgWelcome   = 2
	msgBatch     = 3
	msgHeartbeat = 4
	msgAck       = 5
	msgBye       = 6

	// ProtoVersion is the replnet protocol version, checked in both
	// directions during the handshake.
	ProtoVersion = 1

	msgHdrBytes = 13
	// maxMsgPayload bounds a message so a corrupt length fails fast
	// instead of allocating gigabytes (matches repl's frame limit).
	maxMsgPayload = 1 << 26
	// chunkTarget is the payload size at which a batch chunk is cut.
	chunkTarget = 256 << 10
	// maxPeerID bounds the follower-supplied peer id.
	maxPeerID = 256

	byeClosed = 1 // primary shut down cleanly; the stream is complete
	byeLost   = 2 // stream lost (journal overrun / primary crash)

	batchFlagFinal = 1 // last chunk of its released batch
)

var (
	// ErrBadMessage reports a malformed, corrupt, or desynchronized
	// replnet message stream; the connection is torn down and the
	// follower re-bootstraps.
	ErrBadMessage = errors.New("replnet: malformed or corrupt message")
	// ErrProtocol reports a handshake version or role mismatch.
	ErrProtocol = errors.New("replnet: protocol mismatch")
	// ErrPrimaryClosed is the session result after the primary announced
	// a clean shutdown: every released epoch was delivered.
	ErrPrimaryClosed = errors.New("replnet: primary closed cleanly")
	// ErrStreamLostRemote is the session result after the primary
	// announced the change stream was lost (journal overrun or crash);
	// the follower must re-bootstrap.
	ErrStreamLostRemote = errors.New("replnet: primary reported stream lost")
)

// mconn frames replnet messages over one net.Conn. The bufio.Reader is
// shared with the bootstrap phase (repl.Restore reads the raw snapshot
// stream through it), so message parsing resumes exactly where the
// snapshot's end frame stopped. Not safe for concurrent use of the same
// direction; the server writes from one goroutine and reads from another,
// which is fine — the two directions are independent.
type mconn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	rhdr    [msgHdrBytes]byte
	whdr    [msgHdrBytes]byte
	payload []byte // read buffer, reused across messages
	scratch []byte // write buffer, reused across messages
}

func newMconn(nc net.Conn) *mconn {
	return &mconn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

// writeMsg frames and buffers one message; call flush to push it out.
func (c *mconn) writeMsg(kind byte, payload []byte) error {
	if len(payload) > maxMsgPayload {
		return fmt.Errorf("%w: message payload %d exceeds limit (writer bug)", ErrBadMessage, len(payload))
	}
	binary.LittleEndian.PutUint32(c.whdr[0:], msgMagic)
	c.whdr[4] = kind
	binary.LittleEndian.PutUint32(c.whdr[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.whdr[9:], crc32.ChecksumIEEE(payload))
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

func (c *mconn) flush() error { return c.bw.Flush() }

// readMsg returns the next message's kind and payload (valid until the
// next call), verifying magic and checksum.
func (c *mconn) readMsg() (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(c.rhdr[0:]) != msgMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	kind := c.rhdr[4]
	n := binary.LittleEndian.Uint32(c.rhdr[5:])
	if n > maxMsgPayload {
		return 0, nil, fmt.Errorf("%w: payload %d exceeds limit", ErrBadMessage, n)
	}
	if cap(c.payload) < int(n) {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload", ErrBadMessage)
	}
	if crc32.ChecksumIEEE(c.payload) != binary.LittleEndian.Uint32(c.rhdr[9:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadMessage)
	}
	return kind, c.payload, nil
}

// --- payload encode/decode -------------------------------------------------

func appendHello(dst []byte, id string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, ProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	return append(dst, id...)
}

func parseHello(p []byte) (id string, err error) {
	if len(p) < 4 {
		return "", fmt.Errorf("%w: short hello", ErrBadMessage)
	}
	if v := binary.LittleEndian.Uint16(p); v != ProtoVersion {
		return "", fmt.Errorf("%w: peer speaks proto %d, want %d", ErrProtocol, v, ProtoVersion)
	}
	n, used := binary.Uvarint(p[4:])
	if used <= 0 || n > maxPeerID || uint64(len(p)-4-used) != n {
		// The id must end the payload: trailing bytes are as malformed as
		// a short id.
		return "", fmt.Errorf("%w: bad hello id", ErrBadMessage)
	}
	return string(p[4+used : 4+used+int(n)]), nil
}

func appendWelcome(dst []byte, released uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, ProtoVersion)
	return binary.LittleEndian.AppendUint64(dst, released)
}

func parseWelcome(p []byte) (released uint64, err error) {
	if len(p) != 10 {
		return 0, fmt.Errorf("%w: short welcome", ErrBadMessage)
	}
	if v := binary.LittleEndian.Uint16(p); v != ProtoVersion {
		return 0, fmt.Errorf("%w: peer speaks proto %d, want %d", ErrProtocol, v, ProtoVersion)
	}
	return binary.LittleEndian.Uint64(p[2:]), nil
}

func appendHeartbeat(dst []byte, nonce int64, released uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nonce))
	return binary.LittleEndian.AppendUint64(dst, released)
}

func parseHeartbeat(p []byte) (nonce int64, released uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("%w: short heartbeat", ErrBadMessage)
	}
	return int64(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint64(p[8:]), nil
}

func appendAck(dst []byte, nonce int64, applied uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nonce))
	return binary.LittleEndian.AppendUint64(dst, applied)
}

func parseAck(p []byte) (nonce int64, applied uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("%w: short ack", ErrBadMessage)
	}
	return int64(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint64(p[8:]), nil
}

// writeBatch splits one released batch into chunk messages at the chunk
// target and buffers them; only the last chunk carries the final flag.
// Returns the payload bytes buffered. A non-zero chunkDeadline extends the
// connection's write deadline before every chunk: the liveness contract is
// per chunk, not per batch, so a batch whose total transfer time exceeds
// the deadline still goes through as long as each chunk makes progress.
func (c *mconn) writeBatch(b repl.Batch, chunkDeadline time.Duration) (int64, error) {
	var total int64
	i := 0
	for {
		if chunkDeadline > 0 {
			if err := c.nc.SetWriteDeadline(time.Now().Add(chunkDeadline)); err != nil {
				return total, err
			}
		}
		p := c.scratch[:0]
		p = binary.LittleEndian.AppendUint64(p, b.Epoch)
		p = append(p, 0)          // flags, patched below
		p = append(p, 0, 0, 0, 0) // count, patched below
		count := uint32(0)
		for i < len(b.Entries) && len(p) < chunkTarget {
			e := &b.Entries[i]
			p = append(p, byte(e.Op))
			p = binary.AppendUvarint(p, b.Epoch-e.Epoch)
			p = binary.AppendUvarint(p, uint64(e.Shard))
			p = binary.AppendUvarint(p, uint64(len(e.Key)))
			p = binary.AppendUvarint(p, uint64(len(e.Val)))
			p = append(p, e.Key...)
			p = append(p, e.Val...)
			count++
			i++
		}
		final := i == len(b.Entries)
		if final {
			p[8] = batchFlagFinal
		}
		binary.LittleEndian.PutUint32(p[9:], count)
		c.scratch = p[:0]
		total += int64(len(p))
		if err := c.writeMsg(msgBatch, p); err != nil {
			return total, err
		}
		if final {
			return total, nil
		}
	}
}

// batchChunk is one decoded batch message. Entries alias the connection's
// read buffer and are valid only until the next readMsg; consumers that
// retain keys or values must copy (the store's Put copies internally).
type batchChunk struct {
	Horizon uint64
	Final   bool
	Entries []repl.Entry
}

func parseBatch(p []byte, scratch []repl.Entry) (batchChunk, error) {
	if len(p) < 13 {
		return batchChunk{}, fmt.Errorf("%w: short batch header", ErrBadMessage)
	}
	ck := batchChunk{
		Horizon: binary.LittleEndian.Uint64(p),
		Final:   p[8]&batchFlagFinal != 0,
	}
	count := binary.LittleEndian.Uint32(p[9:])
	if uint64(count) > uint64(len(p)) { // every entry is ≥ 5 bytes
		return batchChunk{}, fmt.Errorf("%w: batch count %d overruns payload", ErrBadMessage, count)
	}
	ents := scratch[:0]
	off := 13
	for n := uint32(0); n < count; n++ {
		if off >= len(p) {
			return batchChunk{}, fmt.Errorf("%w: truncated batch entry", ErrBadMessage)
		}
		op := core.ChangeOp(p[off])
		if op != core.ChangePut && op != core.ChangeDelete {
			return batchChunk{}, fmt.Errorf("%w: bad change op %d", ErrBadMessage, op)
		}
		off++
		delta, used := binary.Uvarint(p[off:])
		if used <= 0 || delta > ck.Horizon {
			return batchChunk{}, fmt.Errorf("%w: bad entry epoch", ErrBadMessage)
		}
		off += used
		shard, used := binary.Uvarint(p[off:])
		if used <= 0 || shard > 1<<20 {
			return batchChunk{}, fmt.Errorf("%w: bad entry shard", ErrBadMessage)
		}
		off += used
		k, v, next, err := parseLenPrefixed(p, off)
		if err != nil {
			return batchChunk{}, err
		}
		off = next
		ents = append(ents, repl.Entry{
			Op:    op,
			Epoch: ck.Horizon - delta,
			Shard: int(shard),
			Key:   k,
			Val:   v,
		})
	}
	if off != len(p) {
		return batchChunk{}, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadMessage, len(p)-off)
	}
	ck.Entries = ents
	return ck, nil
}

// parseLenPrefixed decodes a {klen, vlen, key, val} group at p[off:],
// bounds-checking each length on its own before any arithmetic combines
// them (the same defensive shape as repl's parseKV).
func parseLenPrefixed(p []byte, off int) (k, v []byte, next int, err error) {
	kl, n1 := binary.Uvarint(p[off:])
	if n1 <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", ErrBadMessage)
	}
	vl, n2 := binary.Uvarint(p[off+n1:])
	if n2 <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", ErrBadMessage)
	}
	s := off + n1 + n2
	rest := uint64(len(p) - s)
	if kl > rest || vl > rest-kl {
		return nil, nil, 0, fmt.Errorf("%w: entry overruns payload", ErrBadMessage)
	}
	return p[s : s+int(kl)], p[s+int(kl) : s+int(kl)+int(vl)], s + int(kl) + int(vl), nil
}
