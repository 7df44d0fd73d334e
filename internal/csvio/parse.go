package csvio

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseFloat returns what strconv.ParseFloat(string(b), 64) returns. The
// fields a phone writes take an exact fast path: an optional '-', digits,
// an optional '.' and digits, and an optional exponent 'e' or 'E' with an
// optional sign and digits, at most 19 significant digits in all. Such a
// decimal is rounded to the nearest float64 by Clinger's exact path where
// its mantissa and power of ten are both exact float64s, and otherwise by
// Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", 2021).
// strconv.ParseFloat takes the rest: NaN and Inf, hex, underscores, a
// leading '+', more digits, an exponent past the power table, and the
// cases Eisel–Lemire leaves undecided. Every path rounds correctly, so the
// results are strconv's bit for bit.
func parseFloat(b []byte) (float64, error) {
	if f, ok := parseDecimal(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseDecimal is parseFloat's fast path; ok is false where it defers to
// strconv.
func parseDecimal(s []byte) (f float64, ok bool) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		i++
	}
	// The digits accumulate unchecked; past 19 significant digits man may
	// have wrapped, and strconv takes the field.
	var man uint64
	digitsStart := i
	for ; i < len(s) && s[i]-'0' < 10; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	digits := i - digitsStart
	exp := 0
	if i < len(s) && s[i] == '.' {
		i++
		fracStart := i
		for ; len(s)-i >= 8; i += 8 {
			v := binary.LittleEndian.Uint64(s[i:])
			if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
				break
			}
			man = man*1e8 + eightDigits(v)
		}
		for ; i < len(s) && s[i]-'0' < 10; i++ {
			man = man*10 + uint64(s[i]-'0')
		}
		exp = fracStart - i
		digits += i - fracStart
	}
	if digits == 0 || digits > 19 && significantDigits(s[digitsStart:i]) > 19 {
		return 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			expNeg = s[i] == '-'
			i++
		}
		expStart, e := i, 0
		for ; i < len(s) && s[i]-'0' < 10 && e < 1e4; i++ {
			e = e*10 + int(s[i]-'0')
		}
		if i == expStart {
			return 0, false
		}
		if expNeg {
			e = -e
		}
		exp += e
	}
	if i != len(s) {
		return 0, false
	}
	if man < 1<<53 && -22 <= exp && exp <= 22 {
		// Clinger: man and 10^|exp| are exact, so one rounding.
		f = float64(man)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp, neg)
}

// significantDigits counts the digits of a mantissa ("123.45") from its
// first non-zero one.
func significantDigits(m []byte) int {
	n, leading := 0, true
	for _, c := range m {
		if c == '.' || leading && c == '0' {
			continue
		}
		leading = false
		n++
	}
	return n
}

// eightDigits converts eight ASCII digits, the first in the low byte, to
// their value.
func eightDigits(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // pairs: 10a+b in every other byte
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return v & 0xFFFFFFFF
}

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// The power table spans the decimal exponents of every value from ~1e-45
// to ~1e64 written with up to 19 digits; strconv takes any other.
const (
	minPow10 = -64
	maxPow10 = 64
)

// pow10 holds, for each q in [minPow10, maxPow10], 10^q's 128 most
// significant bits, rounded down: {low, high}, the high word's top bit set.
var pow10 = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten := big.NewInt(10)
	for q := minPow10; q <= maxPow10; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			if shift := p.BitLen() - 128; shift > 0 {
				p.Rsh(p, uint(shift))
			} else {
				p.Lsh(p, uint(-shift))
			}
		} else {
			// 2^(127+L) / 10^-q, with 10^-q of L bits, lies in (2^127, 2^128).
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		words := p.Bits() // little-endian words
		if bits.UintSize == 64 {
			t[q-minPow10] = [2]uint64{uint64(words[0]), uint64(words[1])}
		} else {
			t[q-minPow10] = [2]uint64{uint64(words[1])<<32 | uint64(words[0]), uint64(words[3])<<32 | uint64(words[2])}
		}
	}
	return t
}()

// eiselLemire rounds man·10^exp10 to the nearest float64, as strconv's
// eiselLemire64 does; ok is false where it cannot decide.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10[exp10-minPow10]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false // halfway between two float64s
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, or overflow
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
