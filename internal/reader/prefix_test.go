package reader

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// Tests of the bounded digit prefix: N(B, f) itself, checked two
// independent ways, and Convert on the cut prefix against roundRational
// on the whole, uncut rational.

var allModes = []RoundMode{NearestEven, NearestAway, NearestTowardZero, TowardNegInf, TowardPosInf}

// lessPow reports whether base^a < 2^s, for integers a and s of either
// sign, by cross-multiplying the negative powers away.
func lessPow(base, a, s int) bool {
	lhs, rhs := big.NewInt(1), big.NewInt(1)
	b := big.NewInt(int64(base))
	if a >= 0 {
		lhs.Exp(b, big.NewInt(int64(a)), nil)
	} else {
		rhs.Exp(b, big.NewInt(int64(-a)), nil)
	}
	if s >= 0 {
		rhs.Lsh(rhs, uint(s))
	} else {
		lhs.Lsh(lhs, uint(-s))
	}
	return lhs.Cmp(rhs) < 0
}

// exactLead is L*(E) of prefixDigits in exact integer arithmetic: the
// largest L with base^(L−1) < 2^s.
func exactLead(base, s int) int {
	l := int(math.Ceil(float64(s) / math.Log2(float64(base))))
	for !lessPow(base, l-1, s) {
		l--
	}
	for lessPow(base, l, s) {
		l++
	}
	return l
}

// TestPrefixDigitsExact recomputes N(B, f) = max over every boundary
// exponent E of L*(E) + c(E) in exact integer arithmetic — no float
// division, no window — and pins the published figures.
func TestPrefixDigitsExact(t *testing.T) {
	if got := prefixDigits(10, fpformat.Binary64); got != 768 {
		t.Errorf("N(10, binary64) = %d, want fast_float's 768", got)
	}
	if got := prefixDigits(10, fpformat.Binary32); got != 113 {
		t.Errorf("N(10, binary32) = %d, want 113", got)
	}
	if got := prefixDigits(2, fpformat.Binary64); got != 54 {
		t.Errorf("N(2, binary64) = %d, want p+1 = 54", got)
	}
	for _, f := range []*fpformat.Format{fpformat.Binary16, fpformat.BFloat16, fpformat.Binary32, fpformat.Binary64} {
		for base := 2; base <= 36; base++ {
			if base%2 != 0 {
				if got := prefixDigits(base, f); got != 0 {
					t.Errorf("N(%d, %s) = %d; odd bases must keep every digit (0)", base, f.Name, got)
				}
				continue
			}
			v := 0
			for base>>v&1 == 0 {
				v++
			}
			pow2 := base == 1<<v
			want := 0
			for e := f.MinExp - 1; e <= f.MaxExp+f.Precision-1; e++ {
				c := ceilDiv(-e, v)
				if !pow2 && c < 0 {
					c = 0
				}
				want = max(want, exactLead(base, f.Precision+1+e)+c)
			}
			if got := prefixDigits(base, f); got != want {
				t.Errorf("N(%d, %s) = %d, exact recomputation gives %d", base, f.Name, got, want)
			}
		}
	}
	decimal, err := fpformat.New("decimal64ish", 10, 16, -398, 369)
	if err != nil {
		t.Fatal(err)
	}
	if got := prefixDigits(10, decimal); got != 0 {
		t.Errorf("N(10, %s) = %d; a non-binary format must keep every digit", decimal.Name, got)
	}
}

// sigDigits returns the number of significant base-B digits of
// M·2^E (B even, so the expansion terminates): from the leading digit to
// the last nonzero one.
func sigDigits(m *big.Int, e, base int) int {
	x := new(big.Int).Set(m)
	if e >= 0 {
		x.Lsh(x, uint(e))
	} else {
		// Scale by base^k until the 2^-E denominator divides out.
		b := big.NewInt(int64(base))
		for {
			if x.TrailingZeroBits() >= uint(-e) {
				x.Rsh(x, uint(-e))
				break
			}
			x.Mul(x, b)
		}
	}
	s := x.Text(base)
	n := len(s)
	for n > 0 && s[n-1] == '0' {
		n--
	}
	return n
}

// TestPrefixDigitsCoverEveryBoundary is the definition checked head on,
// independent of the L*(E) derivation: no boundary of binary16 — no
// representable value and no midpoint between neighbours, up to the
// overflow midpoint — has more significant base-B digits than N(B, f),
// and N is attained (the bound is tight).
func TestPrefixDigitsCoverEveryBoundary(t *testing.T) {
	f := fpformat.Binary16
	p := f.Precision
	for _, base := range []int{2, 4, 6, 10, 12, 16, 24, 36} {
		n := prefixDigits(base, f)
		most := 0
		// Boundaries are M·2^E with M < 2^(p+1): every representable
		// m·2^e and midpoint (2m+1)·2^(e−1), e from MinExp to MaxExp.
		for e := f.MinExp; e <= f.MaxExp; e++ {
			for m := int64(0); m < 1<<p; m++ {
				if e > f.MinExp && m < 1<<(p-1) {
					continue // not normalized: the same value appears at a lower e
				}
				for _, b := range [][2]int64{{m, int64(e)}, {2*m + 1, int64(e - 1)}} {
					if b[0] == 0 {
						continue
					}
					most = max(most, sigDigits(big.NewInt(b[0]), int(b[1]), base))
				}
			}
		}
		if most != n {
			t.Errorf("base %d: the widest binary16 boundary has %d significant digits, N = %d", base, most, n)
		}
	}
}

// boundary is a value M·2^E where some rounding mode changes its answer.
type boundary struct {
	name string
	m    *big.Int
	e    int
}

// boundariesOf lists the edges the differential tests read around, for
// a binary format f with precision p: the largest-subnormal midpoint
// (just below the smallest normal), the widest midpoint of the bottom
// exponent (the one with N digits), half and one-and-a-half the smallest
// denormal, 1.0 and the midpoints either side of it, the largest finite
// value and the overflow midpoint above it.
func boundariesOf(f *fpformat.Format) []boundary {
	p := f.Precision
	pow2 := func(k int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(k)) }
	dec := func(x *big.Int) *big.Int { return x.Sub(x, big.NewInt(1)) }
	inc := func(x *big.Int) *big.Int { return x.Add(x, big.NewInt(1)) }
	e0 := f.MinExp - 1
	return []boundary{
		{"largest-subnormal midpoint", dec(pow2(p)), e0},
		{"widest bottom midpoint", dec(pow2(p + 1)), e0},
		{"half the smallest denormal", big.NewInt(1), e0},
		{"midpoint above the smallest denormal", big.NewInt(3), e0},
		{"1.0", big.NewInt(1), 0},
		{"midpoint above 1.0", inc(pow2(p)), -p},
		{"midpoint below 1.0", dec(pow2(p + 1)), -p - 1},
		{"largest finite", dec(pow2(p)), f.MaxExp},
		{"overflow midpoint", dec(pow2(p + 1)), f.MaxExp - 1},
	}
}

// numbersNear returns Numbers of nd significant base-B digits (nd+1
// after a carry) around b: the integers t = ⌊b·B^(nd−L)⌋ + off for each
// offset, read back as t × B^(L−nd), where B^(L−1) ≤ b < B^L.  An exact
// boundary with at most nd digits appears as itself (offset 0).
func numbersNear(b boundary, base, nd int, offsets []int) []Number {
	x := new(big.Rat).SetInt(b.m)
	two := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(b.e, -b.e))))
	if b.e >= 0 {
		x.Mul(x, two)
	} else {
		x.Quo(x, two)
	}
	// L from the digit count of ⌊x⌋ or of the leading zeros of x < 1.
	bigB := big.NewRat(int64(base), 1)
	l := 0
	y := new(big.Rat).Set(x)
	one := big.NewRat(1, 1)
	for y.Cmp(one) >= 0 {
		y.Quo(y, bigB)
		l++
	}
	for {
		z := new(big.Rat).Mul(y, bigB)
		if z.Cmp(one) >= 0 {
			break
		}
		y = z
		l--
	}
	scale := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(abs(nd-l))), nil))
	if nd-l >= 0 {
		x.Mul(x, scale)
	} else {
		x.Quo(x, scale)
	}
	fl := new(big.Int).Quo(x.Num(), x.Denom())
	var out []Number
	for _, off := range offsets {
		t := new(big.Int).Add(fl, big.NewInt(int64(off)))
		if t.Sign() <= 0 {
			continue
		}
		digits := []byte(t.Text(base))
		for i, c := range digits {
			d, _ := digitVal(c)
			digits[i] = byte(d)
		}
		out = append(out, Number{Digits: digits, Base: base, K: l - nd + len(digits)})
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// natOf converts a math/big integer to a bignat.Nat limb for limb.
func natOf(x *big.Int) bignat.Nat {
	n := make(bignat.Nat, len(x.Bits()))
	for i, w := range x.Bits() {
		n[i] = bignat.Word(w)
	}
	return n
}

// fullRational rounds n with every digit kept, straight through
// roundRational: the specification the cut prefix must reproduce.  It
// builds num/den in math/big, independent of Convert's accumulation.
func fullRational(n Number, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	num := new(big.Int)
	b := big.NewInt(int64(n.Base))
	for _, d := range n.Digits {
		num.Mul(num, b).Add(num, big.NewInt(int64(d)))
	}
	if num.Sign() == 0 {
		return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: n.Neg}, nil
	}
	den := big.NewInt(1)
	exp := n.K - len(n.Digits)
	p := new(big.Int).Exp(b, big.NewInt(int64(abs(exp))), nil)
	if exp >= 0 {
		num.Mul(num, p)
	} else {
		den = p
	}
	return roundRational(natOf(num), natOf(den), n.Neg, f, mode)
}

// sameResult reports how got and want differ, or "" when they agree on
// class, sign, mantissa, exponent and error identity.
func sameResult(got, want fpformat.Value, gerr, werr error) string {
	if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, ErrRange)) || (werr != nil && !errors.Is(werr, ErrRange)) {
		return fmt.Sprintf("error %v, want %v", gerr, werr)
	}
	if got.Class != want.Class || got.Neg != want.Neg {
		return fmt.Sprintf("class %v neg %v, want %v neg %v", got.Class, got.Neg, want.Class, want.Neg)
	}
	if (got.Class == fpformat.Normal || got.Class == fpformat.Denormal) &&
		(bignat.Cmp(got.F, want.F) != 0 || got.E != want.E) {
		return fmt.Sprintf("%v×2^%d, want %v×2^%d", got.F, got.E, want.F, want.E)
	}
	return ""
}

// checkPrefixVsRational compares Convert with the full rational under
// every mode and both signs.
func checkPrefixVsRational(t *testing.T, what string, n Number, f *fpformat.Format) {
	t.Helper()
	for _, neg := range []bool{false, true} {
		n.Neg = neg
		for _, mode := range allModes {
			got, gerr := Convert(n, f, mode)
			want, werr := fullRational(n, f, mode)
			if d := sameResult(got, want, gerr, werr); d != "" {
				t.Fatalf("%s, %d base-%d digits, neg=%v, %s, %s: Convert gives %s",
					what, len(n.Digits), n.Base, neg, f.Name, mode, d)
			}
		}
	}
}

// TestPrefixVsFullRational reads tokens of N−1, N, N+1, N+2 and 3N
// digits around each boundary — the exact boundary where it has that
// few digits, and the integers just below and above it — in bases 2, 6,
// 10 and 16 to binary64 and binary32, and requires the cut prefix with
// its sticky digit to round exactly as the whole rational does.
func TestPrefixVsFullRational(t *testing.T) {
	offsets := []int{-1, 0, 1, 2}
	for _, f := range []*fpformat.Format{fpformat.Binary64, fpformat.Binary32} {
		for _, base := range []int{2, 6, 10, 16} {
			n := prefixDigits(base, f)
			for _, b := range boundariesOf(f) {
				for _, nd := range []int{n - 1, n, n + 1, n + 2, 3 * n} {
					for _, num := range numbersNear(b, base, nd, offsets) {
						checkPrefixVsRational(t, b.name, num, f)
					}
				}
			}
		}
	}
}

// TestPrefixExactBoundaryHasNDigits pins that the bound is tight where
// the proof says it is: the widest bottom midpoint of binary64 has
// exactly 768 significant decimal digits, so one digit fewer would
// misread it.
func TestPrefixExactBoundaryHasNDigits(t *testing.T) {
	b := boundariesOf(fpformat.Binary64)[1]
	if got := sigDigits(b.m, b.e, 10); got != 768 {
		t.Fatalf("(2^54−1)·2^−1075 has %d significant decimal digits, want 768", got)
	}
	exact := numbersNear(b, 10, 768, []int{0})[0]
	cut := Number{Digits: exact.Digits[:767], Base: 10, K: exact.K}
	v1, _ := Convert(exact, fpformat.Binary64, NearestAway)
	v2, _ := Convert(cut, fpformat.Binary64, NearestAway)
	if bignat.Cmp(v1.F, v2.F) == 0 && v1.E == v2.E {
		t.Errorf("the exact midpoint and its 767-digit cut read alike under %s; the 768th digit should decide", NearestAway)
	}
}

// TestOddBaseKeepsEveryDigit: base 3 has no prefix bound (a dyadic
// boundary's base-3 expansion never terminates), so a token thousands of
// digits long must still round as its whole rational does — a cut with
// a sticky digit would misread the tokens just above each midpoint.
func TestOddBaseKeepsEveryDigit(t *testing.T) {
	for _, f := range []*fpformat.Format{fpformat.Binary64, fpformat.Binary32} {
		if n := prefixDigits(3, f); n != 0 {
			t.Fatalf("N(3, %s) = %d, want 0 (keep every digit)", f.Name, n)
		}
		for _, b := range boundariesOf(f) {
			for _, nd := range []int{800, 2400} {
				for _, num := range numbersNear(b, 3, nd, []int{0, 1}) {
					checkPrefixVsRational(t, b.name, num, f)
				}
			}
		}
	}
}

// FuzzReaderPrefixVsRational builds near-boundary tokens from
// fuzz-chosen bits — the value itself or the midpoint above it, in an
// even base, 700–4,000 digits, one of four integer offsets around the
// boundary — and diffs Convert against roundRational on the full
// rational, for a fuzz-chosen mode at binary64 or binary32.
func FuzzReaderPrefixVsRational(f *testing.F) {
	f.Add(uint64(0x3FF0000000000000), uint16(68), uint8(0), uint8(4), uint8(2))
	f.Add(uint64(0x000FFFFFFFFFFFFF), uint16(0), uint8(1), uint8(4), uint8(2))
	f.Add(uint64(0x7FEFFFFFFFFFFFFF), uint16(3000), uint8(3), uint8(7), uint8(6))
	f.Add(uint64(1), uint16(1234), uint8(4), uint8(2), uint8(9))
	f.Add(uint64(0x00800000), uint16(77), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, bits uint64, ndRaw uint16, modeRaw, baseRaw, shape uint8) {
		var v fpformat.Value
		format := fpformat.Binary64
		if shape&1 == 1 {
			format = fpformat.Binary32
			x := math.Float32frombits(uint32(bits))
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Skip()
			}
			v = fpformat.DecodeFloat32(float32(math.Abs(float64(x))))
		} else {
			x := math.Float64frombits(bits)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
			v = fpformat.DecodeFloat64(math.Abs(x))
		}
		m, _ := v.F.Uint64()
		b := boundary{name: "value", m: new(big.Int).SetUint64(m), e: v.E}
		if shape&2 == 2 || m == 0 {
			b = boundary{name: "midpoint above", m: new(big.Int).SetUint64(2*m + 1), e: v.E - 1}
		}
		base := 2 + 2*(int(baseRaw)%18)
		nd := 700 + int(ndRaw)%3301
		off := int(shape>>2)%4 - 1
		for _, num := range numbersNear(b, base, nd, []int{off}) {
			num.Neg = bits>>63 == 1
			mode := allModes[int(modeRaw)%len(allModes)]
			got, gerr := Convert(num, format, mode)
			want, werr := fullRational(num, format, mode)
			if d := sameResult(got, want, gerr, werr); d != "" {
				t.Fatalf("%s of %#x, %d base-%d digits, %s, %s: Convert gives %s",
					b.name, bits, len(num.Digits), base, format.Name, mode, d)
			}
		}
	})
}

// TestConcurrentConvertSharesPowers reads long tokens from several
// goroutines at once, so the per-base power caches grow and are read
// concurrently; every result must equal the sequential one (run under
// -race in CI).
func TestConcurrentConvertSharesPowers(t *testing.T) {
	var nums []Number
	for _, base := range []int{6, 10, 12, 36} {
		for _, b := range boundariesOf(fpformat.Binary64)[:3] {
			nums = append(nums, numbersNear(b, base, 900, []int{1})...)
		}
	}
	want := make([]fpformat.Value, len(nums))
	for i, n := range nums {
		want[i], _ = Convert(n, fpformat.Binary64, NearestEven)
	}
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			msg := ""
			for i := range nums {
				n := nums[(i+g)%len(nums)]
				got, gerr := Convert(n, fpformat.Binary64, NearestEven)
				if d := sameResult(got, want[(i+g)%len(nums)], gerr, nil); d != "" && msg == "" {
					msg = fmt.Sprintf("goroutine %d, token %d: %s", g, (i+g)%len(nums), d)
				}
			}
			errs <- msg
		}(g)
	}
	for g := 0; g < 4; g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}
