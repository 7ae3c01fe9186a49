package nvm

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The copy kernel writes exactly the lines it is given, whole, and no
// other: persisting a list of lines with persistLines leaves the same image
// as a plain per-line copy.
func TestPersistLinesMatchesCopy(t *testing.T) {
	const chunkLines = sweepChunk * 64
	src := New(Config{Words: 2 * chunkLines * WordsPerLine})
	rng := rand.New(rand.NewSource(7))
	for i := range src.volatile {
		src.volatile[i] = rng.Uint64()
	}
	last := uint32(src.Lines() - 1)
	var runs, scattered []uint32
	for start := uint32(3); start+5 <= last; start += 5 + uint32(rng.Intn(300)) {
		for i := range uint32(5) {
			runs = append(runs, start+i)
		}
	}
	for range 500 {
		scattered = append(scattered, uint32(rng.Intn(src.Lines())))
	}
	slices.Sort(scattered)
	scattered = slices.Compact(scattered)
	var chunk []uint32
	for i := range uint32(chunkLines) {
		chunk = append(chunk, chunkLines+i)
	}
	cases := []struct {
		name  string
		lines []uint32
	}{
		{"empty", nil},
		{"one", []uint32{17}},
		{"first and last", []uint32{0, last}},
		{"5-line runs", runs},
		{"scattered", scattered},
		{"full chunk", chunk},
	}
	for _, tc := range cases {
		got := New(Config{Words: src.Size()})
		want := New(Config{Words: src.Size()})
		for i := range got.persist { // a background the copies must not touch
			got.persist[i] = uint64(i) ^ 0x5a5a
			want.persist[i] = uint64(i) ^ 0x5a5a
		}
		persistLines(got.persist, src.volatile, tc.lines)
		for _, line := range tc.lines {
			base := int(line) * WordsPerLine
			copy(want.persist[base:base+WordsPerLine], src.volatile[base:base+WordsPerLine])
		}
		for w := range got.persist {
			if got.persist[w] != want.persist[w] {
				t.Fatalf("%s: word %d (line %d) = %#x, plain copy %#x", tc.name, w, w/WordsPerLine, got.persist[w], want.persist[w])
			}
		}
	}
}

// Both images start on a 64-byte boundary whatever the arena size, so one
// simulated line is one real cache line and the copy kernel's 16-byte
// non-temporal stores are aligned.
func TestImagesAreLineAligned(t *testing.T) {
	sizes := []uint64{1 << 24}
	for lines := uint64(1); lines <= 70; lines++ {
		sizes = append(sizes, lines*WordsPerLine)
	}
	for _, words := range sizes {
		a := New(Config{Words: words})
		for name, img := range map[string][]uint64{"volatile": a.volatile, "persistent": a.persist} {
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(img))); p%LineBytes != 0 {
				t.Errorf("%d words: %s image at %#x, not on a %d-byte line", words, name, p, LineBytes)
			}
			if uint64(len(img)) != words || uint64(cap(img)) != words {
				t.Errorf("%d words: %s image has len %d cap %d", words, name, len(img), cap(img))
			}
		}
	}
}
