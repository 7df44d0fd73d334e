package csvio

import (
	"archive/zip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// The inflater decodes a member's raw deflate stream (RFC 1951) straight
// out of the payload slice into the DecodeBuffer's chunk ring, on the
// decode's second goroutine. It accepts exactly the streams compress/flate
// accepts and yields the same bytes. Where a stream is corrupt or cut
// short it yields what compress/flate would have yielded before its error:
// every symbol whose bits are all in the input and precede the bad one
// (DESIGN.md §12). Its hot loop follows libdeflate: a 64-bit bit buffer
// refilled a word at a time, two-level tables whose entries carry a base
// and its extra-bit count, up to three literals per refill, and 8-byte
// match copies.

// Table widths: how many bits index each primary table. A code longer than
// its table's width continues in a subtable.
const (
	litBits  = 10 // literal/length codes
	distBits = 8  // distance codes
	clenBits = 7  // code-length codes, which are at most 7 bits long

	// A complete code's subtable of s index bits serves at least s+1
	// codes, so 286 literal/length codes (s ≤ 5) need at most 286·32/6
	// subtable entries and 30 distance codes (s ≤ 7) at most 30·128/8.
	litTableSize  = 1<<litBits + 1536
	distTableSize = 1<<distBits + 480
)

type (
	litTable  [litTableSize]uint32
	distTable [distTableSize]uint32
)

// A table entry packs, from the low bits up: the code's length (4 bits; 0
// for a subtable pointer), the extra-bit count of a length or distance, or
// a pointer's subtable index width (4 bits), four flags, and in the top 16
// bits the literal byte, the length or distance base, or the subtable's
// offset. A length or distance entry has no flag.
const (
	entLiteral = 1 << 8
	entEnd     = 1 << 9
	entSub     = 1 << 10
	entInvalid = 1 << 11 // an unassigned code, or symbol 286/287 or distance 30/31
)

// Symbol entries before their code length is added, per RFC 1951 §3.2.5.
var (
	litlenSyms [288]uint32
	distSyms   [32]uint32
	clenSyms   [19]uint32
)

// The fixed Huffman codes' tables (RFC 1951 §3.2.6), built once.
var (
	fixedLit                  litTable
	fixedDist                 distTable
	fixedLitMin, fixedDistMin uint
)

// Each length symbol's shortest length and extra-bit count, symbol 257 first.
var (
	lengthBase = [29]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
)

func init() {
	for s := range litlenSyms {
		switch {
		case s < 256:
			litlenSyms[s] = entLiteral | uint32(s)<<16
		case s == 256:
			litlenSyms[s] = entEnd
		case s < 286:
			litlenSyms[s] = lengthBase[s-257]<<16 | lengthExtra[s-257]<<4
		default:
			litlenSyms[s] = entInvalid
		}
	}
	for s := range distSyms {
		switch {
		case s < 30:
			distSyms[s] = distBase(s)<<16 | distExtra(s)<<4
		default:
			distSyms[s] = entInvalid
		}
	}
	for s := range clenSyms {
		clenSyms[s] = uint32(s) << 16
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLitMin, _ = buildTable(fixedLit[:], litBits, lens[:], litlenSyms[:])
	for s := range distSyms {
		lens[s] = 5
	}
	fixedDistMin, _ = buildTable(fixedDist[:], distBits, lens[:32], distSyms[:])
}

// distBase and distExtra are distance symbol s's shortest distance and its
// extra-bit count.
func distBase(s int) uint32 {
	if s < 4 {
		return uint32(s + 1)
	}
	extra := distExtra(s)
	return 1<<(extra+1) + 1 + uint32(s&1)<<extra
}

func distExtra(s int) uint32 { return uint32(max(s-2, 0)) >> 1 }

// buildTable fills t, whose primary part has 1<<primary entries, with the
// canonical Huffman code of the given code lengths, each symbol's entry
// taken from syms. It accepts exactly the lengths compress/flate accepts: a
// complete code, the empty code (every lookup is invalid), and a single
// code of length 1. It returns the shortest code length.
func buildTable(t []uint32, primary uint, lens []uint8, syms []uint32) (minLen uint, ok bool) {
	var count, next [16]int
	var maxLen uint
	for _, l := range lens {
		if l == 0 {
			continue
		}
		count[l]++
		if minLen == 0 || uint(l) < minLen {
			minLen = uint(l)
		}
		maxLen = max(maxLen, uint(l))
	}
	pt := t[:1<<primary]
	for i := range pt {
		pt[i] = entInvalid
	}
	if maxLen == 0 {
		return 0, true
	}
	code := 0
	for l := minLen; l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return 0, false
	}

	if maxLen > primary {
		// Each primary prefix that longer codes share gets one subtable,
		// wide enough for the longest of them.
		var width [1 << litBits]uint8
		nc := next
		for _, l := range lens {
			if uint(l) <= primary {
				continue
			}
			r := reverse(nc[l], l)
			nc[l]++
			p := r & (1<<primary - 1)
			width[p] = max(width[p], l-uint8(primary))
		}
		off := 1 << primary
		for p, w := range width[:1<<primary] {
			if w > 0 {
				t[p] = entSub | uint32(off)<<16 | uint32(w)<<4
				off += 1 << w
			}
		}
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		r := reverse(next[l], l)
		next[l]++
		e := syms[s] | uint32(l)
		if uint(l) <= primary {
			for i := r; i < 1<<primary; i += 1 << l {
				t[i] = e
			}
			continue
		}
		ptr := t[r&(1<<primary-1)]
		sub := t[ptr>>16 : ptr>>16+1<<(ptr>>4&15)]
		for i := r >> primary; i < len(sub); i += 1 << (uint(l) - primary) {
			sub[i] = e
		}
	}
	return minLen, true
}

// reverse returns the l-bit code with its bits reversed: deflate sends a
// Huffman code's most significant bit first into a stream read from the
// least significant bit up.
func reverse(code int, l uint8) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - l))
}

// A corruptError reports a deflate stream that compress/flate also rejects
// as corrupt. Its value is the input offset where the inflater stopped.
type corruptError int64

func (e corruptError) Error() string {
	return "csvio: corrupt deflate stream at input byte " + strconv.FormatInt(int64(e), 10)
}

// errQuit ends an inflater whose scan has stopped reading.
var errQuit = errors.New("csvio: decode stopped")

// inflater is the decode goroutine's state: its input and bit buffer, the
// ring chunk it fills, the member's size and CRC-32 records, and the
// Huffman tables. It lives in the DecodeBuffer, so a warmed buffer decodes
// without allocating any of it.
type inflater struct {
	in       []byte
	pos      int    // next input byte to load into bitbuf
	bitbuf   uint64 // its low bitsleft bits are the stream's next bits
	bitsleft uint

	ring  *ring
	c     *chunk // the chunk being filled, nil between hand-offs
	out   []byte // c.data: the window, then new bytes, then slack
	o     int    // write position in out
	start int    // where c's new bytes begin
	acct  int    // out[start:acct] has been checked and summed
	limit int    // c is handed over once o reaches it

	member
	// lit and dist are the current dynamic block's tables; clen and lens
	// are scratch for reading them.
	lit  litTable
	dist distTable
	clen [1 << clenBits]uint32
	lens [286 + 30]uint8
}

// member is what archive/zip checks a member's bytes against.
type member struct {
	stored  bool   // zip.Store: the bytes are the CSV itself
	size    uint64 // the uncompressed size record
	crc     uint32 // the CRC-32 record
	desc    bool   // the member ends in a data descriptor...
	descErr error  // ...and this is what reading it gives
	n       uint64 // bytes yielded so far
	sum     uint32 // their CRC-32
}

// open readies z for the member f of the payload data, failing where
// zip.File.Open fails: an unreadable local header or a method other than
// Store and Deflate (the two archive/zip registers itself).
func (z *inflater) open(data []byte, f *zip.File) error {
	off, err := f.DataOffset()
	if err != nil {
		return err
	}
	if f.Method != zip.Store && f.Method != zip.Deflate {
		return zip.ErrAlgorithm
	}
	size := int64(f.CompressedSize64)
	z.openRaw(section(data, off, size))
	z.member = member{
		stored: f.Method == zip.Store,
		size:   f.UncompressedSize64,
		crc:    f.CRC32,
		desc:   f.Flags&0x8 != 0,
	}
	if z.desc {
		// archive/zip's offset arithmetic, wraparound included.
		z.descErr = descriptorError(data, off+size, f.CRC32)
	}
	return nil
}

// openRaw readies z for a bare deflate stream, with no record to check.
func (z *inflater) openRaw(raw []byte) {
	z.in, z.pos, z.bitbuf, z.bitsleft = raw, 0, 0, 0
	z.member = member{size: math.MaxUint64}
}

// section returns the bytes an io.SectionReader of n bytes at off yields
// over data: it stops at the end of data, and its limit saturates as
// io.NewSectionReader's does.
func section(data []byte, off, n int64) []byte {
	end := int64(math.MaxInt64)
	if off <= math.MaxInt64-n {
		end = off + n
	}
	end = min(end, int64(len(data)))
	if off < 0 || off >= end {
		return nil
	}
	return data[off:end]
}

// descriptorError is what archive/zip's readDataDescriptor gives for the
// data descriptor at off, as the member's reader reports it: io.EOF becomes
// io.ErrUnexpectedEOF.
func descriptorError(data []byte, off int64, crc uint32) error {
	if off < 0 {
		return errNegativeOffset
	}
	d := section(data, off, 16)
	const signature = 0x08074b50
	if len(d) >= 4 && binary.LittleEndian.Uint32(d) == signature {
		d = d[4:]
	}
	if len(d) < 12 {
		return io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(d) != crc {
		return zip.ErrChecksum
	}
	return nil
}

// errNegativeOffset is bytes.Reader.ReadAt's error, which archive/zip
// passes on when a member's sizes put its data descriptor before the
// payload's first byte.
var errNegativeOffset = errors.New("bytes.Reader.ReadAt: negative offset")

// readMember yields the member's CSV and then checks it as archive/zip's
// reader does at its end: the size record, the data descriptor, the CRC-32.
func (z *inflater) readMember() error {
	var err error
	if z.stored {
		err = z.write(z.in)
	} else {
		err = z.inflate()
	}
	if err != nil {
		return err
	}
	if err := z.account(); err != nil {
		return err
	}
	switch {
	case z.n != z.size:
		return io.ErrUnexpectedEOF
	case z.desc && z.descErr != nil:
		return z.descErr
	case z.desc && z.sum != z.crc, z.crc != 0 && z.sum != z.crc:
		return zip.ErrChecksum
	}
	return nil
}

// account checks the bytes written since the last call against the size
// record and adds them to the CRC-32, as archive/zip checks each read.
// Bytes past the record are cut off, and the error is zip.ErrFormat.
func (z *inflater) account() error {
	p := z.out[z.acct:z.o]
	var err error
	if left := z.size - z.n; uint64(len(p)) > left {
		p = p[:left]
		z.o = z.acct + len(p)
		err = zip.ErrFormat
	}
	z.sum = crc32.Update(z.sum, crc32.IEEETable, p)
	z.n += uint64(len(p))
	z.acct = z.o
	return err
}

// use makes c the chunk being filled, its first w bytes the window.
func (z *inflater) use(c *chunk, w int) {
	z.c, z.out = c, c.data
	z.o, z.start, z.acct = w, w, w
	z.limit = w + chunkSize
}

// handOff passes the chunk being filled to the scan and starts the next one
// with the windowSize bytes before it, so every back-reference resolves
// inside one chunk. It returns errQuit once the scan has stopped.
func (z *inflater) handOff() error {
	if err := z.account(); err != nil {
		return err
	}
	c := z.c
	c.start, c.end, c.err = z.start, z.o, nil
	z.c = nil
	z.ring.full <- c
	next := z.ring.take()
	if next == nil {
		return errQuit
	}
	w := min(z.o, windowSize)
	copy(next.data, c.data[z.o-w:z.o])
	z.use(next, w)
	return nil
}

// write yields p as it is.
func (z *inflater) write(p []byte) error {
	for len(p) > 0 {
		if z.o >= z.limit {
			if err := z.handOff(); err != nil {
				return err
			}
		}
		n := copy(z.out[z.o:z.limit], p)
		z.o += n
		p = p[n:]
	}
	return nil
}

// corrupt reports the stream corrupt where the inflater stands.
func (z *inflater) corrupt() error {
	return corruptError(z.pos - int(z.bitsleft>>3))
}

// refill tops the bit buffer up to at least 56 bits, or to every bit left
// in the input. Bits above bitsleft are either zero or the stream's next
// bits, so a lookup past the input's end sees zeros, as compress/flate's
// does.
func (z *inflater) refill() {
	if z.pos+8 <= len(z.in) {
		z.bitbuf |= binary.LittleEndian.Uint64(z.in[z.pos:]) << (z.bitsleft & 63)
		z.pos += int(7 - (z.bitsleft&63)>>3)
		z.bitsleft |= 56
		return
	}
	for z.bitsleft <= 55 && z.pos < len(z.in) {
		z.bitbuf |= uint64(z.in[z.pos]) << z.bitsleft
		z.pos++
		z.bitsleft += 8
	}
}

// bits returns the stream's next n bits.
func (z *inflater) bits(n uint) (uint32, error) {
	z.refill()
	if z.bitsleft < n {
		return 0, io.ErrUnexpectedEOF
	}
	v := uint32(z.bitbuf & (1<<n - 1))
	z.bitbuf >>= n
	z.bitsleft -= n
	return v, nil
}

// sym decodes one symbol with table t exactly as compress/flate's huffSym
// does, near the input's end too: it needs the code's shortest length in
// bits before it looks (minLen, which compress/flate raises to the
// end-of-block code's length for literal/length codes), then the whole
// code.
func (z *inflater) sym(t []uint32, primary, minLen uint) (uint32, error) {
	z.refill()
	if z.bitsleft < minLen {
		return 0, io.ErrUnexpectedEOF
	}
	e := t[z.bitbuf&(1<<primary-1)]
	if e&entSub != 0 {
		e = t[e>>16+uint32(z.bitbuf>>primary)&(1<<(e>>4&15)-1)]
	}
	n := uint(e & 15)
	if n > z.bitsleft {
		return 0, io.ErrUnexpectedEOF
	}
	if e&entInvalid != 0 {
		return 0, z.corrupt()
	}
	z.bitbuf >>= n
	z.bitsleft -= n
	return e, nil
}

// value reads the extra bits of a length or distance entry and returns the
// value they pick.
func (z *inflater) value(e uint32) (int, error) {
	x, err := z.bits(uint(e >> 4 & 15))
	return int(e>>16) + int(x), err
}

// inflate decodes the deflate stream to the end of its final block.
func (z *inflater) inflate() error {
	for {
		header, err := z.bits(3)
		if err != nil {
			return err
		}
		switch header >> 1 {
		case 0:
			err = z.storedBlock()
		case 1:
			err = z.huffmanBlock(&fixedLit, &fixedDist, fixedLitMin, fixedDistMin)
		case 2:
			var litMin, distMin uint
			if litMin, distMin, err = z.readTables(); err == nil {
				err = z.huffmanBlock(&z.lit, &z.dist, litMin, distMin)
			}
		default:
			err = z.corrupt()
		}
		if err != nil || header&1 != 0 {
			return err
		}
	}
}

// storedBlock copies an uncompressed block: from the next byte boundary, a
// length, its complement, and that many bytes.
func (z *inflater) storedBlock() error {
	z.pos -= int(z.bitsleft >> 3)
	z.bitbuf, z.bitsleft = 0, 0
	if len(z.in)-z.pos < 4 {
		return io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(z.in[z.pos:]))
	if binary.LittleEndian.Uint16(z.in[z.pos+2:]) != ^uint16(n) {
		return corruptError(z.pos + 4)
	}
	z.pos += 4
	avail := min(n, len(z.in)-z.pos)
	if err := z.write(z.in[z.pos : z.pos+avail]); err != nil {
		return err
	}
	z.pos += avail
	if avail < n {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// clenOrder is the order in which a dynamic block lists the code-length
// code's lengths.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readTables reads a dynamic block's code lengths and builds its tables,
// checking them in compress/flate's order. It returns the bits each table
// needs before a lookup (see sym).
func (z *inflater) readTables() (litMin, distMin uint, err error) {
	counts, err := z.bits(14)
	if err != nil {
		return 0, 0, err
	}
	nlit := int(counts&31) + 257
	ndist := int(counts>>5&31) + 1
	nclen := int(counts>>10) + 4
	if nlit > 286 || ndist > 30 {
		return 0, 0, z.corrupt()
	}
	var clens [19]uint8
	for _, s := range clenOrder[:nclen] {
		l, err := z.bits(3)
		if err != nil {
			return 0, 0, err
		}
		clens[s] = uint8(l)
	}
	clenMin, ok := buildTable(z.clen[:], clenBits, clens[:], clenSyms[:])
	if !ok {
		return 0, 0, z.corrupt()
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.sym(z.clen[:], clenBits, clenMin)
		if err != nil {
			return 0, 0, err
		}
		s := e >> 16
		if s < 16 {
			lens[i] = uint8(s)
			i++
			continue
		}
		var rep int
		var fill uint8
		var x uint32
		switch s {
		case 16:
			if i == 0 {
				return 0, 0, z.corrupt()
			}
			fill = lens[i-1]
			x, err = z.bits(2)
			rep = 3 + int(x)
		case 17:
			x, err = z.bits(3)
			rep = 3 + int(x)
		default:
			x, err = z.bits(7)
			rep = 11 + int(x)
		}
		if err != nil {
			return 0, 0, err
		}
		if i+rep > len(lens) {
			return 0, 0, z.corrupt()
		}
		for range rep {
			lens[i] = fill
			i++
		}
	}
	litMin, okLit := buildTable(z.lit[:], litBits, lens[:nlit], litlenSyms[:])
	distMin, okDist := buildTable(z.dist[:], distBits, lens[nlit:], distSyms[:])
	if !okLit || !okDist {
		return 0, 0, z.corrupt()
	}
	return max(litMin, uint(lens[256])), distMin, nil
}

// huffmanBlock decodes one block's symbols, its end-of-block symbol
// included, with the literal/length table lt and the distance table dt.
// While at least 16 input bytes are left it runs the fast loop, which never
// runs out of bits; the last bytes go one symbol at a time through the
// exact end-of-input rules of sym.
func (z *inflater) huffmanBlock(lt *litTable, dt *distTable, litMin, distMin uint) error {
	for {
		if z.o >= z.limit {
			if err := z.handOff(); err != nil {
				return err
			}
		}
		var end bool
		var err error
		if z.pos+16 <= len(z.in) {
			end, err = z.fast(lt, dt)
		} else {
			end, err = z.slow(lt, dt, litMin, distMin)
		}
		if end || err != nil {
			return err
		}
	}
}

// fast decodes symbols until the block ends, the chunk reaches its limit
// or fewer than 16 input bytes are left. Each pass refills the bit buffer
// to at least 56 bits and decodes up to three literals, or up to two and a
// match: a match needs at most 48 bits, so it refills once more first. The
// chunk's slack takes the two literals, the match and the 8-byte copy past
// its end.
func (z *inflater) fast(lt *litTable, dt *distTable) (end bool, err error) {
	in, out := z.in, z.out
	pos, bitbuf, bitsleft := z.pos, z.bitbuf, z.bitsleft
	o, limit := z.o, z.limit
	for o < limit && pos+16 <= len(in) {
		bitbuf |= binary.LittleEndian.Uint64(in[pos:]) << (bitsleft & 63)
		pos += int(7 - (bitsleft&63)>>3)
		bitsleft |= 56
		e := lt[bitbuf&(1<<litBits-1)]
		if e&entLiteral != 0 {
			bitbuf >>= e & 15
			bitsleft -= uint(e & 15)
			out[o] = byte(e >> 16)
			o++
			e = lt[bitbuf&(1<<litBits-1)]
			if e&entLiteral != 0 {
				bitbuf >>= e & 15
				bitsleft -= uint(e & 15)
				out[o] = byte(e >> 16)
				o++
				e = lt[bitbuf&(1<<litBits-1)]
				if e&entLiteral != 0 {
					bitbuf >>= e & 15
					bitsleft -= uint(e & 15)
					out[o] = byte(e >> 16)
					o++
					continue
				}
			}
			bitbuf |= binary.LittleEndian.Uint64(in[pos:]) << (bitsleft & 63)
			pos += int(7 - (bitsleft&63)>>3)
			bitsleft |= 56
		}
		if e&entSub != 0 {
			e = lt[e>>16+uint32(bitbuf>>litBits)&(1<<(e>>4&15)-1)]
			if e&entLiteral != 0 {
				bitbuf >>= e & 15
				bitsleft -= uint(e & 15)
				out[o] = byte(e >> 16)
				o++
				continue
			}
		}
		if e&(entEnd|entInvalid) != 0 {
			if e&entInvalid != 0 {
				err = corruptError(pos - int(bitsleft>>3))
				break
			}
			bitbuf >>= e & 15
			bitsleft -= uint(e & 15)
			end = true
			break
		}
		n, x := e&15, e>>4&15
		length := int(e>>16) + int(bitbuf>>n&(1<<x-1))
		bitbuf >>= n + x
		bitsleft -= uint(n + x)
		d := dt[bitbuf&(1<<distBits-1)]
		if d&entSub != 0 {
			d = dt[d>>16+uint32(bitbuf>>distBits)&(1<<(d>>4&15)-1)]
		}
		n, x = d&15, d>>4&15
		dist := int(d>>16) + int(bitbuf>>n&(1<<x-1))
		bitbuf >>= n + x
		bitsleft -= uint(n + x)
		if d&entInvalid != 0 || dist > o {
			err = corruptError(pos - int(bitsleft>>3))
			break
		}
		if dist >= 8 {
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[o+i:], binary.LittleEndian.Uint64(out[o-dist+i:]))
			}
		} else {
			for i := o; i < o+length; i++ {
				out[i] = out[i-dist]
			}
		}
		o += length
	}
	z.pos, z.bitbuf, z.bitsleft, z.o = pos, bitbuf, bitsleft, o
	return end, err
}

// slow decodes one symbol, a literal, a match or the block's end, by the
// exact end-of-input rules.
func (z *inflater) slow(lt *litTable, dt *distTable, litMin, distMin uint) (end bool, err error) {
	e, err := z.sym(lt[:], litBits, litMin)
	switch {
	case err != nil:
		return false, err
	case e&entLiteral != 0:
		z.out[z.o] = byte(e >> 16)
		z.o++
		return false, nil
	case e&entEnd != 0:
		return true, nil
	}
	length, err := z.value(e)
	if err != nil {
		return false, err
	}
	d, err := z.sym(dt[:], distBits, distMin)
	if err != nil {
		return false, err
	}
	dist, err := z.value(d)
	if err != nil {
		return false, err
	}
	if dist > z.o {
		return false, z.corrupt()
	}
	for i := z.o; i < z.o+length; i++ {
		z.out[i] = z.out[i-dist]
	}
	z.o += length
	return false, nil
}

// run calls body on the ring's goroutine and returns how the member ended:
// io.EOF after its last byte, or the error that stopped it. A panic in body
// becomes that error, since the decode's caller cannot recover it here; the
// chunk being filled then yields nothing more.
func (z *inflater) run(body func(*inflater) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			z.o = z.start
			err = fmt.Errorf("csvio: inflating panicked: %v", v)
		}
	}()
	if err = body(z); err == errQuit {
		return err
	}
	if aerr := z.account(); aerr != nil {
		err = aerr
	}
	if err == nil {
		err = io.EOF
	}
	return err
}
