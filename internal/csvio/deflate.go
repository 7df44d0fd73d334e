package csvio

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The deflater writes one packaging segment as raw deflate blocks (RFC
// 1951), the encoding half of inflate.go. The window's positions go into a
// hash table and yield no output; the segment's own bytes come out as
// dynamic-Huffman blocks of a fixed number of tokens each. A single-probe
// greedy matcher finds the tokens, and each block's codes are built from its
// own token counts. All state is reset for every segment, so a segment's
// bytes depend only on its window and its own bytes (DESIGN.md §12).

// Encoder constants. Like the other packaging constants they fix the payload
// bytes, so none is an option (DESIGN.md §12).
const (
	// minMatch is the shortest match the matcher takes. A literal digit of
	// this CSV costs about 3.4 bits and a length plus a distance about 20, so
	// a shorter match codes longer than the literals it replaces.
	minMatch = 6
	// hashBits is the width of the matcher's hash of the next 4 bytes: the
	// table has 1<<hashBits entries, each the last position with that hash.
	hashBits = 15
	// blockTokens is how many literals and matches one block holds before
	// its codes are rebuilt.
	blockTokens = 1 << 16
)

const (
	maxMatch = 258 // deflate's longest match
	// endBlock is the literal/length code that ends a block.
	endBlock = 256
	// matchToken flags a token as a match: (distance-1)<<8 | (length-3).
	// A literal's token is its byte.
	matchToken = 1 << 31
	// tableOffset is added to a position before it enters the hash table,
	// so that an empty entry (0) lies more than windowSize before every
	// position and is never taken as a match.
	tableOffset = windowSize + 1
	// blockHeaderBytes bounds a block's bytes beside its tokens: its header
	// (3 + 14 + 19·3 bits, then 316 code lengths of at most 7 + 7 bits), the
	// bits left in the buffer before it, and a sync-flush marker.
	blockHeaderBytes = 600
)

// The symbols of each length and distance, and the distances' bases.
var (
	// lengthSym maps length-3 to its length symbol's index (symbol-257).
	lengthSym = func() (t [256]uint8) {
		for l := range t {
			for lengthBase[t[l]+1] <= uint32(l+3) && t[l] < 27 {
				t[l]++
			}
		}
		t[255] = 28 // length 258 has a symbol of its own, not 284's last extra value
		return t
	}()
	// distSymLow maps distance-1 below 256 to its distance symbol, and
	// distSymHigh maps (distance-1)>>7 to it above.
	distSymLow  = distSymbols(0)
	distSymHigh = distSymbols(7)
	// distBase1 and distExtraBits are each distance symbol's shortest distance,
	// minus 1, and its extra-bit count.
	distBase1, distExtraBits = func() (base, extra [30]uint32) {
		for s := range base {
			base[s], extra[s] = distBase(s)-1, distExtra(s)
		}
		return base, extra
	}()
)

// distSymbols maps d to the symbol of distance d<<shift + 1.
func distSymbols(shift uint) (t [256]uint8) {
	for d := range t {
		for int(t[d]) < 29 && distBase(int(t[d])+1)-1 <= uint32(d)<<shift {
			t[d]++
		}
	}
	return t
}

// distSym returns the symbol of distance d+1.
func distSym(d uint32) uint32 {
	if d < 256 {
		return uint32(distSymLow[d])
	}
	return uint32(distSymHigh[d>>7])
}

// deflater is one worker's encoder, kept across segments and captures in
// deflaterPool: the hash table, the block's tokens and counts, the Huffman
// codes and their scratch, and the bit writer. Nothing in it is allocated
// per segment or per block.
type deflater struct {
	head   [1 << hashBits]int32 // position+tableOffset of the last 4 bytes with each hash
	tokens [blockTokens]uint32
	nt     int // tokens in the block

	litFreq  [286]uint32
	distFreq [30]uint32
	// A block's codes: each entry is a bit-reversed code, ready to write, in
	// the low 16 bits and its length above.
	litCode  [286]uint32
	distCode [30]uint32
	clenCode [19]uint32
	lens     [286 + 30]uint8 // the block's code lengths, literal/length then distance
	clenLens [19]uint8
	clenFreq [19]uint32
	clens    [286 + 30]uint16 // the code lengths run-length coded: symbol | extra<<5
	huff     huffmanScratch

	out  []byte // the segment's output; out[:o] is written, the rest is room
	o    int
	bits uint64 // the low n bits are the stream's next bits
	n    uint
}

// deflate appends the deflate blocks of src[window:] to dst and returns it.
// src[:window] is the segment's window: the bytes before it, which its
// matches may reach back into. The blocks end on a sync-flush marker, an
// empty stored block, so the next segment's blocks can follow them in one
// stream; a last segment ends on a final block instead.
func (d *deflater) deflate(dst, src []byte, window int, last bool) []byte {
	clear(d.head[:])
	d.resetBlock()
	d.out, d.o, d.bits, d.n = dst[:cap(dst)], len(dst), 0, 0
	for p := 0; p < window && p+4 <= len(src); p++ {
		d.head[hash4(src, p)] = int32(p + tableOffset)
	}
	d.match(src, window)
	d.writeBlock(last)
	if !last {
		d.put(0, 3) // a stored block, not final
		d.align()
		d.grow(4)
		binary.LittleEndian.PutUint32(d.out[d.o:], 0xffff0000) // its length 0 and the length's complement
		d.o += 4
	}
	out := d.out[:d.o]
	d.out = nil
	return out
}

// hash4 hashes the 4 bytes at src[p:].
func hash4(src []byte, p int) uint32 {
	return binary.LittleEndian.Uint32(src[p:]) * hashMul >> (32 - hashBits)
}

// hashMul is the multiplier of the matcher's hash (LZ4's and snappy's).
const hashMul = 0x1e35a7bd

// match tokenizes src[start:] greedily, writing a block whenever blockTokens
// have gathered. At each position it probes the hash table of the next 4
// bytes once, and takes the match it finds when it is at least minMatch
// bytes long. Every position the matcher passes, inside a match or not,
// enters the table.
func (d *deflater) match(src []byte, start int) {
	p, nt := start, d.nt
	// The loop reads 8 bytes at each position; the last 7 positions go to
	// matchTail.
	for ; p+8 <= len(src); p++ {
		v := binary.LittleEndian.Uint64(src[p:])
		h := uint32(v) * hashMul >> (32 - hashBits)
		cand := int(d.head[h]) - tableOffset
		d.head[h] = int32(p + tableOffset)
		if p-cand <= windowSize && (binary.LittleEndian.Uint64(src[cand:])^v)<<(64-8*minMatch) == 0 {
			n := minMatch + matchLen(src, cand+minMatch, p+minMatch, min(maxMatch, len(src)-p)-minMatch)
			l, dm := uint32(n-3), uint32(p-cand-1)
			d.tokens[nt] = matchToken | dm<<8 | l
			d.litFreq[257+uint32(lengthSym[l])]++
			d.distFreq[distSym(dm)]++
			end := p + n
			for p++; p < end && p+4 <= len(src); p++ {
				d.head[hash4(src, p)] = int32(p + tableOffset)
			}
			p = end - 1
		} else {
			d.tokens[nt] = uint32(byte(v))
			d.litFreq[byte(v)]++
		}
		if nt++; nt == blockTokens {
			d.nt = nt
			d.writeBlock(false)
			nt = 0
		}
	}
	d.nt = nt
	d.matchTail(src, p)
}

// matchTail is match for the last positions, where fewer than 8 bytes are
// left: the same choices, a byte at a time.
func (d *deflater) matchTail(src []byte, p int) {
	for p < len(src) {
		if p+4 <= len(src) {
			h := hash4(src, p)
			cand := int(d.head[h]) - tableOffset
			d.head[h] = int32(p + tableOffset)
			if p-cand <= windowSize {
				if n := matchLen(src, cand, p, min(maxMatch, len(src)-p)); n >= minMatch {
					d.addToken(matchToken | uint32(p-cand-1)<<8 | uint32(n-3))
					for end := p + n; p < end; p++ {
						if p+4 <= len(src) {
							d.head[hash4(src, p)] = int32(p + tableOffset)
						}
					}
					continue
				}
			}
		}
		d.addToken(uint32(src[p]))
		p++
	}
}

// matchLen returns how many bytes, up to limit, src[a:] and src[b:] share.
func matchLen(src []byte, a, b, limit int) int {
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// addToken adds token t to the block.
func (d *deflater) addToken(t uint32) {
	d.tokens[d.nt] = t
	if t&matchToken == 0 {
		d.litFreq[t]++
	} else {
		d.litFreq[257+uint32(lengthSym[t&255])]++
		d.distFreq[distSym(t>>8&0x7fff)]++
	}
	if d.nt++; d.nt == blockTokens {
		d.writeBlock(false)
	}
}

// resetBlock empties the block's tokens and counts.
func (d *deflater) resetBlock() {
	d.nt = 0
	clear(d.litFreq[:])
	clear(d.distFreq[:])
}

// writeBlock writes the gathered tokens as one dynamic-Huffman block, final
// or not, and starts the next block.
func (d *deflater) writeBlock(final bool) {
	d.litFreq[endBlock] = 1
	if d.distFreq == ([30]uint32{}) {
		// A block without matches still sends a distance code: one code of
		// length 1, which every inflater accepts.
		d.distFreq[0] = 1
	}
	litLens, distLens := d.lens[:286], d.lens[286:]
	d.huff.lengths(d.litFreq[:], litLens, 15)
	d.huff.lengths(d.distFreq[:], distLens, 15)
	canonical(litLens, d.litCode[:])
	canonical(distLens, d.distCode[:])
	d.grow(blockHeaderBytes + d.tokenBits()/8)
	nlit := max(257, lastNonzero(litLens))
	ndist := max(1, lastNonzero(distLens))

	// The code lengths, run-length coded as one sequence.
	copy(d.lens[nlit:], distLens[:ndist]) // the distance lengths follow the last literal/length one
	nc := d.runLengths(d.lens[:nlit+ndist])
	d.huff.lengths(d.clenFreq[:], d.clenLens[:], 7)
	canonical(d.clenLens[:], d.clenCode[:])
	nclen := 19
	for nclen > 4 && d.clenLens[clenOrder[nclen-1]] == 0 {
		nclen--
	}

	var fin uint64
	if final {
		fin = 1
	}
	d.put(fin|2<<1, 3)
	d.put(uint64(nlit-257)|uint64(ndist-1)<<5|uint64(nclen-4)<<10, 14)
	for _, s := range clenOrder[:nclen] {
		d.put(uint64(d.clenLens[s]), 3)
	}
	for _, c := range d.clens[:nc] {
		e := d.clenCode[c&31]
		d.put(uint64(e&0xffff), uint(e>>16))
		d.put(uint64(c>>5), uint(clenExtraBits[c&31]))
	}
	d.writeTokens()
	e := d.litCode[endBlock]
	d.put(uint64(e&0xffff), uint(e>>16))
	if final {
		d.align()
	}
	d.resetBlock()
}

// clenExtraBits is each code-length symbol's extra-bit count.
var clenExtraBits = [19]uint8{16: 2, 17: 3, 18: 7}

// tokenBits returns how many bits the block's tokens and end code take
// with its codes.
func (d *deflater) tokenBits() int {
	n := 0
	for s, f := range d.litFreq {
		n += int(f) * int(d.litCode[s]>>16)
		if s > endBlock {
			n += int(f) * int(lengthExtra[s-endBlock-1])
		}
	}
	for s, f := range d.distFreq {
		n += int(f) * int(d.distCode[s]>>16+distExtraBits[s])
	}
	return n
}

// writeTokens writes the block's tokens with its codes. The bit buffer
// holds at most 48 bits between tokens. A literal adds at most 15 and a
// match at most 48, so before a match a buffer of more than 16 bits is
// flushed to fewer than 8.
func (d *deflater) writeTokens() {
	d.flush()
	out, o, acc, n := d.out, d.o, d.bits, d.n
	for _, t := range d.tokens[:d.nt] {
		if t&matchToken == 0 {
			e := d.litCode[t&255]
			acc |= uint64(e&0xffff) << n
			n += uint(e >> 16)
		} else {
			if n > 16 {
				binary.LittleEndian.PutUint64(out[o:], acc)
				o += int(n >> 3)
				acc >>= n &^ 7
				n &= 7
			}
			l := t & 255
			s := lengthSym[l]
			e := d.litCode[257+uint32(s)]
			acc |= uint64(e&0xffff) << n
			n += uint(e >> 16)
			acc |= uint64(l+3-lengthBase[s]) << n
			n += uint(lengthExtra[s])
			dm := t >> 8 & 0x7fff
			ds := distSym(dm)
			e = d.distCode[ds]
			acc |= uint64(e&0xffff) << n
			n += uint(e >> 16)
			acc |= uint64(dm-distBase1[ds]) << n
			n += uint(distExtraBits[ds])
		}
		if n > 48 {
			binary.LittleEndian.PutUint64(out[o:], acc)
			o += int(n >> 3)
			acc >>= n &^ 7
			n &= 7
		}
	}
	d.o, d.bits, d.n = o, acc, n
}

// runLengths codes lens with the code-length alphabet into d.clens, counts
// the symbols in d.clenFreq and returns how many there are: 16 repeats the
// previous length 3–6 times, 17 and 18 repeat zero 3–10 and 11–138 times.
func (d *deflater) runLengths(lens []uint8) int {
	clear(d.clenFreq[:])
	n := 0
	emit := func(sym, extra int) {
		d.clens[n] = uint16(sym | extra<<5)
		d.clenFreq[sym]++
		n++
	}
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			run--
			for ; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
	return n
}

// lastNonzero returns one past the last nonzero length.
func lastNonzero(lens []uint8) int {
	n := len(lens)
	for n > 0 && lens[n-1] == 0 {
		n--
	}
	return n
}

// put appends the low nb bits of v, nb at most 32, to the stream.
func (d *deflater) put(v uint64, nb uint) {
	d.bits |= v << d.n
	d.n += nb
	if d.n >= 32 {
		d.flush()
	}
}

// flush writes the bit buffer's whole bytes out, leaving fewer than 8 bits.
func (d *deflater) flush() {
	binary.LittleEndian.PutUint64(d.out[d.o:], d.bits)
	d.o += int(d.n >> 3)
	d.bits >>= d.n &^ 7
	d.n &= 7
}

// align pads the stream with zero bits to a byte boundary and writes it out.
func (d *deflater) align() {
	d.n = (d.n + 7) &^ 7
	d.flush()
}

// grow makes room for n more bytes, and the 8 that a flush writes.
func (d *deflater) grow(n int) {
	if len(d.out)-d.o >= n+8 {
		return
	}
	out := make([]byte, max(2*len(d.out), d.o+n+8))
	copy(out, d.out[:d.o])
	d.out = out
}

// canonical assigns the canonical Huffman code of lens (RFC 1951 §3.2.2),
// bit-reversed for an LSB-first stream, and packs each code with its length.
func canonical(lens []uint8, codes []uint32) {
	var count, next [16]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint32(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l == 0 {
			codes[s] = 0
			continue
		}
		codes[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l)) | uint32(l)<<16
		next[l]++
	}
}

// huffmanScratch is the room lengths needs; it lives in the deflater, so
// building a block's codes allocates nothing.
type huffmanScratch struct {
	sorted [286]uint32 // freq<<9 | symbol, ascending; a count is at most blockTokens+1
	depth  [286]uint32
}

// lengths sets lens to the code lengths of a Huffman code for freq, none
// longer than limit: Moffat and Katajainen's in-place construction over the
// symbols sorted by count, then the lengths past the limit pulled in by
// splitting the longest shorter codes (as miniz does), and the lengths dealt
// out again, shortest to the most frequent. A lone symbol gets length 1.
func (h *huffmanScratch) lengths(freq []uint32, lens []uint8, limit int) {
	n := 0
	for s, f := range freq {
		lens[s] = 0
		if f > 0 {
			h.sorted[n] = f<<9 | uint32(s)
			n++
		}
	}
	switch n {
	case 0:
		return
	case 1:
		lens[h.sorted[0]&511] = 1
		return
	}
	sorted := h.sorted[:n]
	slices.Sort(sorted)
	a := h.depth[:n]
	for i, v := range sorted {
		a[i] = v >> 9
	}
	minimumRedundancy(a)

	var count [32]int
	for _, l := range a {
		count[min(l, 31)]++
	}
	for l := limit + 1; l < len(count); l++ {
		count[limit] += count[l]
		count[l] = 0
	}
	total := 0
	for l := 1; l <= limit; l++ {
		total += count[l] << (limit - l)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	i := n
	for l := 1; l <= limit; l++ {
		for c := count[l]; c > 0; c-- {
			i--
			lens[sorted[i]&511] = uint8(l)
		}
	}
}

// minimumRedundancy replaces the weights a, sorted ascending and at least
// two, with the code lengths of a Huffman code for them (Moffat and
// Katajainen, "In-Place Calculation of Minimum-Redundancy Codes", 1995).
func minimumRedundancy(a []uint32) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
}
