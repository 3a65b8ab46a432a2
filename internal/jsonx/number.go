package jsonx

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"
)

// maxMantDigits is how many significant digits a number's mantissa
// keeps: 10^19 − 1 fits in a uint64.
const maxMantDigits = 19

// number is one strict JSON number literal as scan read it. With
// nd ≤ maxMantDigits its value is exactly ±man × 10^exp; past that, man
// holds the first 19 significant digits and exp places them, the way
// strconv's own reader truncates.
type number struct {
	man   uint64
	exp   int  // decimal exponent of man; 0 when man is 0
	nd    int  // significant digits read (leading zeros are not)
	neg   bool // a leading '-'
	isInt bool // no fraction and no exponent
	trunc bool // a nonzero digit past the 19th was left out of man
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scan reads one strict JSON number literal at d.Pos (whitespace
// already skipped) and builds its value in the same pass. It stops at
// the first byte outside the number grammar ("01" scans as "0" leaving
// "1"), so callers must keep checking structure afterwards — a leftover
// byte fails the next Consume. On a grammar error d.Pos does not move.
func (d *Dec) scan() (n number, ok bool) {
	data, i := d.Data, d.Pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	if i >= len(data) || !isDigit(data[i]) {
		return n, false
	}
	var man uint64
	nd := 0
	trunc := false
	if data[i] == '0' {
		i++ // JSON allows no other leading zero
	} else {
		i, man, nd, trunc = digits(data, i, man, nd, trunc)
	}
	dp := nd // the decimal point's place among the significant digits
	n.isInt = true
	if i < len(data) && data[i] == '.' {
		n.isInt = false
		i++
		if i >= len(data) || !isDigit(data[i]) {
			return n, false
		}
		if nd == 0 {
			for i < len(data) && data[i] == '0' {
				dp--
				i++
			}
		}
		i, man, nd, trunc = digits(data, i, man, nd, trunc)
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		n.isInt = false
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return n, false
		}
		e := 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 { // strconv's cap, far past any float64's exponent
				e = e*10 + int(data[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	n.man, n.nd, n.trunc = man, nd, trunc
	if man != 0 {
		n.exp = dp - min(nd, maxMantDigits)
	}
	d.Pos = i
	return n, true
}

// digits reads the run of decimal digits at data[i:], all significant,
// into man (the first maxMantDigits of them) and nd, and returns where
// the run ends.
func digits(data []byte, i int, man uint64, nd int, trunc bool) (int, uint64, int, bool) {
	start := i
	for end := min(len(data), i+maxMantDigits-nd); i < end; i++ {
		c := data[i] - '0'
		if c > 9 {
			return i, man, nd + i - start, trunc
		}
		man = man*10 + uint64(c)
	}
	for ; i < len(data) && isDigit(data[i]); i++ {
		trunc = trunc || data[i] != '0'
	}
	return i, man, nd + i - start, trunc
}

// Int consumes an integer literal that fits in int64. Fractions,
// exponents and overflow fail, exactly where strconv.ParseInt errs, as
// encoding/json refuses them into Go ints. A literal that scans but
// fails leaves d.Pos past it.
func (d *Dec) Int() (v int64, ok bool) {
	d.SkipWS()
	n, ok := d.scan()
	if !ok || !n.isInt || n.nd > maxMantDigits {
		return 0, false
	}
	if n.neg {
		if n.man > 1<<63 {
			return 0, false
		}
		return -int64(n.man), true
	}
	if n.man > math.MaxInt64 {
		return 0, false
	}
	return int64(n.man), true
}

// Uint consumes a non-negative integer literal that fits in uint64.
func (d *Dec) Uint() (v uint64, ok bool) {
	d.SkipWS()
	n, ok := d.scan()
	if !ok || !n.isInt || n.neg || n.nd > maxMantDigits+1 {
		return 0, false
	}
	if n.nd <= maxMantDigits {
		return n.man, true
	}
	// A 20th digit is the token's last byte, which man left out.
	c := uint64(d.Data[d.Pos-1] - '0')
	if n.man > (math.MaxUint64-c)/10 {
		return 0, false
	}
	return n.man*10 + c, true
}

// Float consumes any strict JSON number and converts it in the pass
// that checks its grammar. Three conversions are tried in order: exact
// float64 arithmetic, Eisel–Lemire, and strconv.ParseFloat on the token
// (more than 19 significant digits, or a halfway case Eisel–Lemire
// declines). Each returns the correctly rounded value, so accepted
// values are bit-identical to strconv.ParseFloat's, the routine
// encoding/json uses; a range error fails, as it does there.
func (d *Dec) Float() (f float64, ok bool) {
	d.SkipWS()
	start := d.Pos
	n, ok := d.scan()
	if !ok {
		return 0, false
	}
	if !n.trunc {
		if f, ok := n.exact(); ok {
			return f, true
		}
		if f, ok := eiselLemire(n.man, n.exp, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(noCopyString(d.Data[start:d.Pos]), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exact converts n when float64 arithmetic is exact (strconv's
// atof64exact rule): a mantissa below 2^52 and a power of ten up to
// 10^22 are both exact float64s, so their product or quotient rounds
// once, to the correctly rounded value.
func (n number) exact() (float64, bool) {
	if n.man >= 1<<52 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	f := float64(n.man)
	if n.neg {
		f = -f
	}
	if n.exp >= 0 {
		return f * exactPow10[n.exp], true
	}
	return f / exactPow10[-n.exp], true
}

// pow10Min and pow10Max bound the powers of ten eiselLemire handles:
// beyond them a mantissa of at most 19 digits is 0 or ±Inf in float64.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds the top 128 bits of each 10^e, pow10Min ≤ e ≤
// pow10Max, rounded down, as {low, high} words with high's top bit set:
// the table strconv's Eisel–Lemire uses. It is computed with math/big
// once per process, on first use, instead of being listed as 696
// literals.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	t := new([pow10Max - pow10Min + 1][2]uint64)
	top128 := func(x *big.Int) [2]uint64 {
		y := new(big.Int)
		if n := x.BitLen(); n > 128 {
			y.Rsh(x, uint(n-128))
		} else {
			y.Lsh(x, uint(128-n))
		}
		var b [16]byte
		y.FillBytes(b[:])
		return [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	p := big.NewInt(1) // 10^e
	q := new(big.Int)
	for e := 0; e <= -pow10Min; e++ {
		if e <= pow10Max {
			t[e-pow10Min] = top128(p)
		}
		if e > 0 {
			// 10^-e scaled by 2^s is 2^s / 10^e; this s leaves at
			// least 128 quotient bits for top128 to truncate.
			q.Lsh(big.NewInt(1), uint(128+p.BitLen()))
			t[-e-pow10Min] = top128(q.Quo(q, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return t
})

// eiselLemire converts man × 10^exp10 (negated when neg) to the nearest
// float64 by the Eisel–Lemire algorithm, strconv's own fast path. It
// reports false when the 128-bit product cannot decide the rounding (a
// halfway case), when the result would be subnormal or infinite, and for
// man = 0 or exp10 outside the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 || exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10Min]
	// Normalize man to a set top bit. 217706/2^16 ≈ log2(10), so retExp2
	// is the biased binary exponent of the product's top bit.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, pow[1])
	// When the bits below the 54 kept ones are all set, the truncated
	// low word of the power could still carry into them: widen to 192
	// bits, and give up if that too is undecided.
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
	// Keep 54 bits; an exact halfway product needs the slow path's
	// round-half-even.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	// Round to 53 bits; a carry out renormalizes.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 or an underflow (subnormal) and 0x7FF or
	// more (infinite) both fail this one comparison.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// noCopyString views b as a string without copying. Safe only for
// immediate, non-retaining consumers (the strconv fallback); never store it.
func noCopyString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
