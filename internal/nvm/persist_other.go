//go:build !amd64

package nvm

// persistLines copies line lines[i] of src into the same line of dst, for
// every i. It is the portable form of the amd64 copy kernel: one plain
// copy per line, which needs no fence of its own.
func persistLines(dst, src []uint64, lines []uint32) {
	for _, line := range lines {
		base := int(line) * WordsPerLine
		copy(dst[base:base+WordsPerLine], src[base:base+WordsPerLine])
	}
}
