package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"incll/internal/testutil"
)

func crc32Of(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// buildStream assembles a small, fully valid snapshot stream (header, one
// kv frame, one change frame, end frame) through the real writer, so the
// counts and the end-to-end record sum are correct by construction.
func buildStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)

	hdr := make([]byte, 14)
	binary.LittleEndian.PutUint16(hdr, FormatVersion)
	binary.LittleEndian.PutUint32(hdr[2:], 1)
	binary.LittleEndian.PutUint64(hdr[6:], 2)
	if err := fw.writeFrame(ftHeader, hdr); err != nil {
		t.Fatal(err)
	}

	var kv []byte
	kv = fw.appendKVRecord(kv, []byte("alpha"), []byte("one"))
	kv = fw.appendKVRecord(kv, []byte("beta"), bytes.Repeat([]byte("v"), 300))
	if err := fw.writeFrame(ftKV, kv); err != nil {
		t.Fatal(err)
	}

	ch := make([]byte, 8)
	binary.LittleEndian.PutUint64(ch, 7)
	ch = fw.appendChangeRecord(ch, 1, []byte("gamma"), []byte("new"))
	ch = fw.appendChangeRecord(ch, 2, []byte("alpha"), nil)
	if err := fw.writeFrame(ftChanges, ch); err != nil {
		t.Fatal(err)
	}

	end := make([]byte, 32)
	binary.LittleEndian.PutUint64(end, 7)      // anchor
	binary.LittleEndian.PutUint64(end[8:], 2)  // keys
	binary.LittleEndian.PutUint64(end[16:], 2) // change ops
	binary.LittleEndian.PutUint64(end[24:], fw.sum)
	if err := fw.writeFrame(ftEnd, end); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeInto runs Restore against a throwaway map target.
func decodeInto(data []byte) (SnapshotInfo, error) {
	m := map[string][]byte{}
	return Restore(bytes.NewReader(data), Target{
		Put:    func(k, v []byte) error { m[string(k)] = append([]byte(nil), v...); return nil },
		Delete: func(k []byte) error { delete(m, string(k)); return nil },
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the stream decoder. The
// contract under fuzzing: never panic, never allocate beyond the frame
// payload limit, and classify every malformed input as ErrBadStream —
// arbitrary bytes must not restore successfully unless they are the one
// valid seed stream.
func FuzzDecodeFrame(f *testing.F) {
	valid := buildStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated inside the end frame
	f.Add(valid[:FrameHdrBytes+3])
	f.Add([]byte{})
	f.Add([]byte("IRPL garbage that is not a frame"))
	// A header claiming a giant payload: must fail fast, not allocate.
	huge := append([]byte(nil), valid[:FrameHdrBytes]...)
	binary.LittleEndian.PutUint32(huge[5:], MaxFramePayload+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := decodeInto(data)
		if err == nil {
			if !bytes.Equal(data, valid) {
				// Only frame-level trailing garbage can hide behind a valid
				// stream: Restore stops at the end frame by design (the
				// replication handshake continues on the same connection).
				if !bytes.HasPrefix(data, valid) {
					t.Fatalf("corrupt stream restored silently: %d keys, %d ops", info.Keys, info.ChangeOps)
				}
			}
			return
		}
		if !errors.Is(err, ErrBadStream) {
			t.Fatalf("decoder returned a non-ErrBadStream error for malformed input: %v", err)
		}
	})
}

// TestDecodeCorruptFrames is the deterministic companion to
// FuzzDecodeFrame: every class of corruption and truncation must surface
// as ErrBadStream, never as a panic, a silent success, or a giant
// allocation.
func TestDecodeCorruptFrames(t *testing.T) {
	valid := buildStream(t)

	// Locate the second frame's header to corrupt mid-stream fields.
	frame2 := FrameHdrBytes + int(binary.LittleEndian.Uint32(valid[5:]))

	mut := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error detail
	}{
		{"empty", nil, "truncated at frame header"},
		{"truncated header", valid[:5], "truncated at frame header"},
		{"truncated payload", valid[:FrameHdrBytes+7], "truncated frame payload"},
		{"truncated mid stream", valid[:frame2+4], "truncated"},
		{"missing end frame", valid[:frame2], "truncated at frame header"},
		{"bad magic", mut(func(b []byte) []byte { b[0] ^= 0xff; return b }), "bad frame magic"},
		{"bad magic mid stream", mut(func(b []byte) []byte { b[frame2+1] ^= 0xff; return b }), "bad frame magic"},
		{"payload bit flip", mut(func(b []byte) []byte { b[FrameHdrBytes] ^= 0x01; return b }), "checksum mismatch"},
		{"crc bit flip", mut(func(b []byte) []byte { b[9] ^= 0x80; return b }), "checksum mismatch"},
		{"oversized length", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:], MaxFramePayload+1)
			return b
		}), "exceeds limit"},
		{"unknown frame type", mut(func(b []byte) []byte {
			// Rewrite frame 2's type and fix its crc so only the type is wrong.
			b[frame2+4] = 9
			return b
		}), "unexpected frame type"},
		{"wrong version", func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(b[FrameHdrBytes:], FormatVersion+1)
			n := binary.LittleEndian.Uint32(b[5:])
			binary.LittleEndian.PutUint32(b[9:], crc32Of(b[FrameHdrBytes:FrameHdrBytes+int(n)]))
			return b
		}(), "unsupported format version"},
		{"not a header frame first", valid[frame2:], "missing header frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeInto(tc.data)
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("got %v, want ErrBadStream", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %q, want detail containing %q", err, tc.want)
			}
		})
	}

	// A CRC-consistent frame with a lying record length: parseKV's bounds
	// checks must reject it before any slicing arithmetic overflows.
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	hdr := make([]byte, 14)
	binary.LittleEndian.PutUint16(hdr, FormatVersion)
	if err := fw.writeFrame(ftHeader, hdr); err != nil {
		t.Fatal(err)
	}
	lying := binary.AppendUvarint(nil, 1<<62) // klen far beyond the payload
	lying = binary.AppendUvarint(lying, 1<<62)
	if err := fw.writeFrame(ftKV, lying); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeInto(buf.Bytes()); !errors.Is(err, ErrBadStream) {
		t.Fatalf("lying record lengths: got %v, want ErrBadStream", err)
	}

	// Count and sum verification: a stream whose end frame lies about
	// either must fail even though every frame checksums clean.
	endOff := len(valid) - 32 - FrameHdrBytes
	for _, tc := range []struct {
		name string
		off  int // byte offset within the end payload
	}{
		{"key count lie", 8},
		{"op count lie", 16},
		{"stream sum lie", 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			p := b[endOff+FrameHdrBytes:]
			binary.LittleEndian.PutUint64(p[tc.off:], binary.LittleEndian.Uint64(p[tc.off:])+1)
			binary.LittleEndian.PutUint32(b[endOff+9:], crc32Of(p))
			_, err := decodeInto(b)
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("got %v, want ErrBadStream", err)
			}
		})
	}
}

// TestDecodeTruncatedEverywhere cuts the valid stream at every byte
// boundary: every prefix must fail with ErrBadStream (ruling out both
// panics and silent partial restores at any truncation point).
func TestDecodeTruncatedEverywhere(t *testing.T) {
	valid := buildStream(t)
	for n := 0; n < len(valid); n++ {
		if _, err := decodeInto(valid[:n]); !errors.Is(err, ErrBadStream) {
			t.Fatalf("truncation at %d/%d: got %v, want ErrBadStream", n, len(valid), err)
		}
	}
	if _, err := decodeInto(valid); err != nil {
		t.Fatalf("full stream must restore: %v", err)
	}
}

// TestDecodeOversizeNoAlloc pins the fail-fast path for lying length
// fields: a header claiming a huge payload is rejected from the 13 header
// bytes alone, without allocating the claimed size.
func TestDecodeOversizeNoAlloc(t *testing.T) {
	hdr := make([]byte, FrameHdrBytes)
	binary.LittleEndian.PutUint32(hdr, frameMagic)
	hdr[4] = ftHeader
	binary.LittleEndian.PutUint32(hdr[5:], 1<<31)
	fr := newFrameReader(bytes.NewReader(hdr))
	allocs := testing.AllocsPerRun(10, func() {
		fr.r = bytes.NewReader(hdr)
		if _, _, err := fr.readFrame(); !errors.Is(err, ErrBadStream) {
			t.Fatalf("got %v, want ErrBadStream", err)
		}
	})
	// Error wrapping only; never the 2 GiB payload. The race detector's
	// instrumentation allocates on its own, so the budget holds without it.
	if !testutil.RaceEnabled && allocs > 4 {
		t.Fatalf("oversize frame rejection allocated %v objects per run", allocs)
	}
}

// TestDecodeStopsAtEndFrame pins the handshake-critical property the
// networked replication tier depends on: Restore consumes exactly the
// stream's own bytes and not one byte past the end frame, so live
// protocol traffic following the snapshot on the same connection stays
// in the reader.
func TestDecodeStopsAtEndFrame(t *testing.T) {
	valid := buildStream(t)
	trailer := []byte("LIVE-PROTOCOL-BYTES")
	r := bytes.NewReader(append(append([]byte(nil), valid...), trailer...))
	if _, err := Restore(r, Target{
		Put:    func(k, v []byte) error { return nil },
		Delete: func(k []byte) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("Restore over-read past the end frame: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}
