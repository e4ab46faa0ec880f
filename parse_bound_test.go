package floatprint

import (
	"math"
	"math/big"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Bounded-work tests for the exact reader, by count rather than wall
// clock: a token's cost must not grow with digits that cannot change
// its rounding.

// halfwayDigits returns the significant decimal digits and decimal
// exponent of the midpoint between v > 0 and its successor:
// value = 0.digits × 10^exp.  The digits end in 5.
func halfwayDigits(v float64) (string, int) {
	bits := math.Float64bits(v)
	m, e := bits&(1<<52-1), int(bits>>52)
	if e == 0 {
		e = 1
	} else {
		m |= 1 << 52
	}
	e -= 1075
	x := new(big.Int).SetUint64(2*m + 1)
	e-- // the midpoint is (2m+1)·2^(e−1)
	if e >= 0 {
		s := x.Lsh(x, uint(e)).String()
		return strings.TrimRight(s, "0"), len(s)
	}
	s := x.Mul(x, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-e)), nil)).String()
	return strings.TrimRight(s, "0"), len(s) + e
}

// nearHalfway returns a decimal token of nd significant digits (nd at
// least the midpoint's own length) a hair above the midpoint after v
// (its digits, zeros, a final 1) or a hair below it (its last digit 5
// lowered to 4, then nines).
func nearHalfway(v float64, nd int, above bool) string {
	digits, exp := halfwayDigits(v)
	var sb strings.Builder
	sb.Grow(nd + 8)
	sb.WriteString("0.")
	if above {
		sb.WriteString(digits)
		sb.WriteString(strings.Repeat("0", nd-len(digits)-1))
		sb.WriteByte('1')
	} else {
		sb.WriteString(digits[:len(digits)-1])
		sb.WriteByte('4')
		sb.WriteString(strings.Repeat("9", nd-len(digits)))
	}
	sb.WriteString("e")
	sb.WriteString(strconv.Itoa(exp))
	return sb.String()
}

var allReaderModes = []ReaderRounding{
	ReaderNearestEven, ReaderUnknown, ReaderNearestAway, ReaderNearestTowardZero,
	ReaderTowardNegInf, ReaderTowardPosInf,
}

// TestParseBoundedWork: near-halfway base-10 tokens of 1k, 10k, 100k and
// 400k digits decide their rounding within the first 768 digits, so every
// size must make the same number of allocations, under every reader
// mode, and read to the same value.  Before the reader cut its input at
// that bound, a 400k-digit token took about 20 s and one allocation per
// digit.
func TestParseBoundedWork(t *testing.T) {
	sizes := []int{1_000, 10_000, 100_000, 400_000}
	for _, v := range []float64{1, 0.1, 1e23, 3 * math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1.5e300} {
		for _, above := range []bool{false, true} {
			toks := make([]string, len(sizes))
			for i, nd := range sizes {
				toks[i] = nearHalfway(v, nd, above)
			}
			want, err := strconv.ParseFloat(toks[0], 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allReaderModes {
				opts := &Options{Reader: mode}
				var allocs0 float64
				var got0 float64
				for i, tok := range toks {
					got, err := Parse(tok, opts)
					if err != nil {
						t.Fatalf("Parse(%d-digit token near %g, %v): %v", sizes[i], v, mode, err)
					}
					if mode == ReaderNearestEven && got != want {
						t.Fatalf("%d-digit token near %g: Parse = %g, strconv = %g", sizes[i], v, got, want)
					}
					allocs := testing.AllocsPerRun(2, func() { _, _ = Parse(tok, opts) })
					if i == 0 {
						allocs0, got0 = allocs, got
						continue
					}
					if got != got0 {
						t.Fatalf("%v, near %g: %d digits read %g, %d digits read %g", mode, v, sizes[0], got0, sizes[i], got)
					}
					if allocs != allocs0 {
						t.Fatalf("%v, near %g (above=%v): %d digits make %v allocations, %d digits make %v",
							mode, v, above, sizes[0], allocs0, sizes[i], allocs)
					}
				}
			}
		}
	}
}

// bytesPerParse returns the fewest bytes one Parse of s allocates over
// three runs (the count is deterministic; the minimum drops any stray
// runtime allocation).
func bytesPerParse(s string, opts *Options) uint64 {
	var least uint64 = math.MaxUint64
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Parse(s, opts); err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestParseOddBaseGrowth pins how an odd base grows, where no digit
// prefix suffices and every digit is kept: doubling the digit count of a
// base-3 token may multiply the bytes one Parse allocates by at most
// 3.7.  Karatsuba multiplication and the power of the base grow as
// n^1.585 (a ratio of about 3.0–3.4 here); the per-digit accumulation
// the chunked one replaced allocated a fresh, growing integer per digit,
// quadratic bytes (a ratio of 4.0).
func TestParseOddBaseGrowth(t *testing.T) {
	opts := &Options{Base: 3}
	prev := uint64(0)
	for _, nd := range []int{8_000, 16_000, 32_000} {
		b := bytesPerParse("0."+strings.Repeat("12", nd/2), opts)
		if prev > 0 {
			if r := float64(b) / float64(prev); r > 3.7 {
				t.Errorf("base 3, %d → %d digits: bytes per Parse grew %.2f× (%d → %d), want ≤ 3.7×", nd/2, nd, r, prev, b)
			}
		}
		prev = b
	}
}
