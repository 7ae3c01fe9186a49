// Package repl is the checkpoint-anchored replication subsystem: it turns
// the store's per-epoch consistency points into things that can leave the
// process — a consistent online snapshot of a live DB written to any
// io.Writer, and an epoch-tagged change stream (CDC) whose consistent
// prefix is released to subscribers at each checkpoint commit.
//
// The two compose into replication: a follower bootstrapped from a
// snapshot and fed the change stream converges to the primary, epoch by
// epoch, and is exact at every released boundary (see DESIGN.md §10).
//
// This file defines the wire format: the frame codec (Framing) the
// snapshot stream shares with internal/replnet's messages, and the
// snapshot stream itself — a sequence of checksummed, length-prefixed
// frames with magic "IRPL". Frame payloads hold fixed-format records,
// echoing the constant-time fixed-size allocation discipline the heap
// uses — the framing is as mechanical as the allocator's size classes:
//
//	header:  version u16, source shards u32, key-count hint u64
//	kv:      {klen uvarint, vlen uvarint, key, val}… (a snapshot batch)
//	changes: epoch u64, then {op u8, klen uvarint, vlen uvarint, key, val}…
//	end:     anchor epoch u64, keys u64, change ops u64, stream sum u64
//
// Every frame is independently verifiable (crc32), and the end frame's
// stream sum — FNV-1a over every record's serialized bytes, framing
// excluded — verifies the stream end to end: a truncated, reordered, or
// bit-flipped stream can never restore silently.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing is the replication tier's one frame codec. A frame is
//
//	magic   uint32 (little-endian)
//	type    uint8
//	length  uint32 (payload bytes)
//	crc32   uint32 (IEEE, of the payload)
//	payload
//
// The snapshot stream's frames ("IRPL", wrapping ErrBadStream) and
// replnet's messages ("IRNP", wrapping replnet.ErrBadMessage) are two
// Framings: only the magic and the error a malformed frame wraps differ.
type Framing struct {
	Magic uint32
	// Err is the sentinel every malformed frame or record error wraps.
	Err error
}

const (
	// FrameHdrBytes is the size of a frame header.
	FrameHdrBytes = 13
	// MaxFramePayload bounds a frame so a corrupt length fails fast
	// instead of allocating gigabytes.
	MaxFramePayload = 1 << 26
)

// WriteFrame writes one frame to w. hdr is the caller's header scratch,
// so a frame costs no allocation.
func (f Framing) WriteFrame(w io.Writer, hdr *[FrameHdrBytes]byte, ft byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		// A frame the reader's size limit would reject could never be
		// read back; fail the writer instead.
		return fmt.Errorf("%w: frame payload %d exceeds limit (writer bug)", f.Err, len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[0:], f.Magic)
	hdr[4] = ft
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r and verifies its magic, length and
// checksum. The payload is read into *buf (grown as needed) and is valid
// until buf is reused. A header that cannot be read returns r's error
// unwrapped — io.EOF at a clean frame boundary, io.ErrUnexpectedEOF
// inside a header — so the caller decides whether its stream may end
// there; every later failure wraps f.Err. ReadFrame never reads past the
// frame's last byte.
func (f Framing) ReadFrame(r io.Reader, hdr *[FrameHdrBytes]byte, buf *[]byte) (byte, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != f.Magic {
		return 0, nil, fmt.Errorf("%w: bad frame magic", f.Err)
	}
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds limit", f.Err, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame payload", f.Err)
	}
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(hdr[9:]) {
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch", f.Err)
	}
	return hdr[4], p, nil
}

// AppendKV appends one {klen uvarint, vlen uvarint, key, val} record,
// the record shape both the snapshot stream and replnet batches carry.
func AppendKV(dst, k, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	dst = append(dst, k...)
	return append(dst, v...)
}

// ParseKV decodes one AppendKV record at p[off:]. Each length is
// bounds-checked on its own before any arithmetic combines them, so a
// crafted (even checksum-consistent) frame with huge lengths fails with
// f.Err instead of overflowing into a panic. The returned slices alias p.
func (f Framing) ParseKV(p []byte, off int) (k, v []byte, next int, err error) {
	kl, n1 := binary.Uvarint(p[off:])
	if n1 <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", f.Err)
	}
	vl, n2 := binary.Uvarint(p[off+n1:])
	if n2 <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", f.Err)
	}
	s := off + n1 + n2
	rest := uint64(len(p) - s)
	if kl > rest || vl > rest-kl {
		return nil, nil, 0, fmt.Errorf("%w: record overruns payload", f.Err)
	}
	return p[s : s+int(kl)], p[s+int(kl) : s+int(kl)+int(vl)], s + int(kl) + int(vl), nil
}

const (
	frameMagic = 0x4C505249 // "IRPL"

	ftHeader  = 1
	ftKV      = 2
	ftChanges = 3
	ftEnd     = 4

	// FormatVersion is the snapshot stream format version.
	FormatVersion = 1

	// frameTarget is the payload size at which a batch frame is flushed.
	frameTarget = 256 << 10
)

// ErrBadStream reports a malformed, corrupt, or truncated snapshot stream.
// Restore never half-applies silently: any framing, checksum, or count
// mismatch surfaces as (a wrapped) ErrBadStream.
var ErrBadStream = errors.New("repl: malformed or corrupt snapshot stream")

// snapshotFraming frames the snapshot stream.
var snapshotFraming = Framing{Magic: frameMagic, Err: ErrBadStream}

// FNV-1a, the stream's end-to-end record checksum.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(sum uint64, b []byte) uint64 {
	for _, c := range b {
		sum = (sum ^ uint64(c)) * fnvPrime
	}
	return sum
}

// frameWriter emits snapshot frames and maintains the running record
// checksum.
type frameWriter struct {
	w        io.Writer
	hdr      [FrameHdrBytes]byte
	sum      uint64 // FNV-1a over record bytes (framing excluded)
	bytesOut int64
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: w, sum: fnvOffset}
}

func (fw *frameWriter) writeFrame(ft byte, payload []byte) error {
	if err := snapshotFraming.WriteFrame(fw.w, &fw.hdr, ft, payload); err != nil {
		return err
	}
	fw.bytesOut += int64(FrameHdrBytes + len(payload))
	return nil
}

// appendKVRecord serializes one snapshot record into payload and folds it
// into the stream sum.
func (fw *frameWriter) appendKVRecord(payload []byte, k, v []byte) []byte {
	start := len(payload)
	payload = AppendKV(payload, k, v)
	fw.sum = fnvAdd(fw.sum, payload[start:])
	return payload
}

// appendChangeRecord serializes one change record into payload and folds
// it into the stream sum.
func (fw *frameWriter) appendChangeRecord(payload []byte, op byte, k, v []byte) []byte {
	start := len(payload)
	payload = AppendKV(append(payload, op), k, v)
	fw.sum = fnvAdd(fw.sum, payload[start:])
	return payload
}

// frameReader parses and verifies snapshot frames.
type frameReader struct {
	r       io.Reader
	hdr     [FrameHdrBytes]byte
	payload []byte
	sum     uint64
	bytesIn int64
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, sum: fnvOffset}
}

// readFrame returns the next frame's type and payload (valid until the
// next call). A snapshot stream ends only after its end frame, so running
// out of bytes at a frame header is a truncation too.
func (fr *frameReader) readFrame() (byte, []byte, error) {
	ft, p, err := snapshotFraming.ReadFrame(fr.r, &fr.hdr, &fr.payload)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, nil, fmt.Errorf("%w: truncated at frame header", ErrBadStream)
	}
	if err != nil {
		return 0, nil, err
	}
	fr.bytesIn += int64(FrameHdrBytes + len(p))
	return ft, p, nil
}

// parseKVRecord decodes one snapshot record at payload[off:], folding its
// serialized bytes into the stream sum. The returned slices alias payload.
func (fr *frameReader) parseKVRecord(payload []byte, off int) (k, v []byte, next int, err error) {
	k, v, next, err = snapshotFraming.ParseKV(payload, off)
	if err == nil {
		fr.sum = fnvAdd(fr.sum, payload[off:next])
	}
	return k, v, next, err
}

// parseChangeRecord decodes one change record at payload[off:], folding
// its serialized bytes into the stream sum. The returned slices alias
// payload.
func (fr *frameReader) parseChangeRecord(payload []byte, off int) (op byte, k, v []byte, next int, err error) {
	if off >= len(payload) {
		return 0, nil, nil, 0, fmt.Errorf("%w: truncated change record", ErrBadStream)
	}
	op = payload[off]
	k, v, next, err = snapshotFraming.ParseKV(payload, off+1)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	fr.sum = fnvAdd(fr.sum, payload[off:next])
	return op, k, v, next, nil
}
