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
// A replnet message is a repl frame (repl.Framing: magic, type, length,
// crc32, payload) with its own magic, "IRNP", so a desynchronized stream
// fails loudly instead of being misparsed.
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

// msgFraming frames replnet messages.
var msgFraming = repl.Framing{Magic: msgMagic, Err: ErrBadMessage}

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

	rhdr    [repl.FrameHdrBytes]byte
	whdr    [repl.FrameHdrBytes]byte
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
	return msgFraming.WriteFrame(c.bw, &c.whdr, kind, payload)
}

func (c *mconn) flush() error { return c.bw.Flush() }

// readMsg returns the next message's kind and payload (valid until the
// next call), verifying magic and checksum. A header cut short returns
// the reader's error as is (io.EOF at a clean message boundary); a
// malformed message, a wrapped ErrBadMessage.
func (c *mconn) readMsg() (byte, []byte, error) {
	return msgFraming.ReadFrame(c.br, &c.rhdr, &c.payload)
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

// appendStamp encodes a heartbeat or an ack: the two share one payload,
// a nonce and an epoch (the released horizon, resp. the applied one).
func appendStamp(dst []byte, nonce int64, epoch uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nonce))
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

func parseStamp(p []byte) (nonce int64, epoch uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("%w: heartbeat/ack payload of %d bytes, want 16", ErrBadMessage, len(p))
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
			p = repl.AppendKV(p, e.Key, e.Val)
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
		k, v, next, err := msgFraming.ParseKV(p, off)
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
