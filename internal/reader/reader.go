// Package reader implements correctly rounded floating-point *input*: the
// inverse of the printing algorithm, in the spirit of Clinger's "How to
// Read Floating-Point Numbers Accurately" (reference [1] of Burger &
// Dybvig).  Given a digit string in any base 2..36 it produces the
// floating-point value of a target format nearest the exact rational value
// of the string, under a selectable tie-breaking rule.
//
// The printing paper leans on the existence of such a reader twice: the
// free-format output is defined by what an accurate reader recovers, and
// the reader's rounding mode determines whether the rounding-range
// endpoints are admissible outputs.  This package lets the tests close
// that loop for every mode without relying on strconv (which only reads
// base 10 with ties-to-even).
//
// The implementation uses exact big-integer arithmetic throughout — the
// scaled comparison approach of Clinger's AlgorithmM, rounding on one
// integer quotient as in Jaffer's "Easy Accurate Reading and Writing" —
// so results are correctly rounded for all inputs.  The work is bounded
// by the format, not by the input: in an even base, only the first
// N(base, f) significant digits plus one sticky digit can decide how a
// number rounds to a binary format (prefixDigits proves the bound; 768
// for base 10 to binary64, fast_float's figure), so longer inputs are
// cut there after every digit has been validated, and a 400,000-digit
// token costs one linear scan plus the same bounded big-integer work as
// an 800-digit one.  Odd bases and non-binary formats keep every digit.
// Digits are folded into words a chunk at a time into one presized
// integer, and powers of the base come from a capped per-base cache (a
// shift for power-of-two bases).  Exponents so large the value provably
// overflows (or so small it provably rounds to zero) are decided by an
// O(1) magnitude bound instead.
package reader

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// RoundMode selects how an inexact value — one that falls between two
// representable numbers — is rounded.  The three nearest modes differ only
// on exact halfway ties; the two directed modes move every inexact value
// toward the named infinity (IEEE 754 roundTowardNegative and
// roundTowardPositive), which is what interval endpoints need: a lower
// bound read under TowardNegInf can only move down, an upper bound read
// under TowardPosInf can only move up, so the machine interval always
// encloses the written one.  The nearest names correspond to the printer's
// ReaderMode values: a printer told the reader uses mode M is only honest
// if the reader really does.
type RoundMode int

const (
	// NearestEven rounds ties to the candidate with an even mantissa
	// (IEEE 754 round-to-nearest default).
	NearestEven RoundMode = iota
	// NearestAway rounds ties away from zero.
	NearestAway
	// NearestTowardZero rounds ties toward zero.
	NearestTowardZero
	// TowardNegInf rounds every inexact value toward −∞ (IEEE 754
	// roundTowardNegative): positive magnitudes truncate, negative ones
	// grow.  Positive overflow saturates at the largest finite value,
	// negative overflow goes to −Inf.
	TowardNegInf
	// TowardPosInf rounds every inexact value toward +∞ (IEEE 754
	// roundTowardPositive), the mirror image of TowardNegInf.
	TowardPosInf
)

func (m RoundMode) String() string {
	switch m {
	case NearestEven:
		return "nearest-even"
	case NearestAway:
		return "nearest-away"
	case NearestTowardZero:
		return "nearest-toward-zero"
	case TowardNegInf:
		return "toward-neg-inf"
	case TowardPosInf:
		return "toward-pos-inf"
	}
	return fmt.Sprintf("RoundMode(%d)", int(m))
}

// directed reports whether m is one of the two directed modes.
func directed(m RoundMode) bool { return m == TowardNegInf || m == TowardPosInf }

// magnitudeUp reports whether mode rounds an inexact value of the given
// sign away from zero in magnitude: TowardPosInf pushes positive values up
// and TowardNegInf pushes negative values down, both of which grow |v|.
// The nearest modes answer false; their ties are resolved in roundQuotient.
func magnitudeUp(mode RoundMode, neg bool) bool {
	return (mode == TowardPosInf && !neg) || (mode == TowardNegInf && neg)
}

// ErrRange reports that a parsed value overflows the target format.  Under
// the nearest modes (and the directed mode pointing past the overflow) the
// returned value is ±Inf as IEEE prescribes; under the directed mode
// pointing back toward zero it is the largest finite value of the format
// (IEEE 754 §4.3.2: roundTowardNegative carries positive overflow to the
// most positive finite number, not to +Inf), still with ErrRange so
// callers can observe the saturation.
var ErrRange = errors.New("reader: value out of range")

// maxFinite is the largest finite value of f: (b^p − 1) × b^MaxExp, where
// the truncating directed modes saturate on overflow.
func maxFinite(f *fpformat.Format, neg bool) fpformat.Value {
	m := bignat.SubWord(bignat.PowUint(uint64(f.Base), uint(f.Precision)), 1)
	return fpformat.Value{Fmt: f, Class: fpformat.Normal, Neg: neg, F: m, E: f.MaxExp}
}

// minDenormal is the smallest positive value of f, 1 × b^MinExp.  The
// magnitude-growing directed modes land here instead of underflowing to
// zero: a nonzero value must never round below its own magnitude when the
// mode pushes outward, or interval enclosure would break at the origin.
func minDenormal(f *fpformat.Format, neg bool) fpformat.Value {
	return fpformat.Value{Fmt: f, Class: fpformat.Denormal, Neg: neg, F: bignat.Nat{1}, E: f.MinExp}
}

// overflow resolves a magnitude above the finite range of f: ±Inf for the
// nearest modes and the outward-pointing directed mode, the largest finite
// value for the truncating one.  Either way the result is out of range.
func overflow(f *fpformat.Format, neg bool, mode RoundMode) (fpformat.Value, error) {
	if directed(mode) && !magnitudeUp(mode, neg) {
		return maxFinite(f, neg), ErrRange
	}
	return fpformat.Value{Fmt: f, Class: fpformat.Inf, Neg: neg}, ErrRange
}

// Number is an unrounded textual number: ±0.d₁…dₙ × Bᴷ, mirroring the
// printer's Result so printed output can be fed straight back in.
type Number struct {
	Neg    bool
	Digits []byte // digit values 0..Base-1
	Base   int
	K      int
}

// Convert rounds the exact rational value of n to the value of format f
// prescribed by the rounding mode: the nearest representable value under
// the three nearest modes, the nearest value in the rounding direction
// under the two directed modes.  Overflow returns ErrRange alongside ±Inf
// or, for the directed mode truncating that sign, the largest finite
// value; underflow rounds through the denormal range to ±0, except that a
// directed mode pushing a nonzero magnitude outward stops at the smallest
// denormal rather than crossing zero.
func Convert(n Number, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	if n.Base < 2 || n.Base > 36 {
		return fpformat.Value{}, fmt.Errorf("reader: base %d out of range [2,36]", n.Base)
	}
	// Validate every digit, in order, so the first bad one names the
	// error even when the prefix cut below drops it.
	lead := -1
	for i, dig := range n.Digits {
		if int(dig) >= n.Base {
			return fpformat.Value{}, fmt.Errorf("reader: digit %d out of range for base %d", dig, n.Base)
		}
		if lead < 0 && dig != 0 {
			lead = i
		}
	}
	if lead < 0 {
		return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: n.Neg}, nil
	}
	// The value is 0.digits × Base^(K−lead) with a nonzero leading digit.
	// Past N(Base, f) digits only whether the tail is nonzero matters:
	// it becomes one sticky digit 1 (see prefixDigits).  Accumulate the
	// kept digits into one integer D, so the value is D × Base^exp.
	digits := n.Digits[lead:]
	sticky := false
	if lim := prefixDigits(n.Base, f); lim > 0 && len(digits) > lim {
		for _, dig := range digits[lim:] {
			if dig != 0 {
				sticky = true
				break
			}
		}
		digits = digits[:lim]
	}
	d := bignat.FromDigits(digits, n.Base)
	exp := n.K - lead - len(digits)
	if sticky {
		d = bignat.MulAddWordInPlace(d, bignat.Word(n.Base), 1)
		exp--
	}

	// Magnitude pre-check: the value is d × Base^exp, and d.BitLen()
	// pins log2(d) within one bit, so log2(value) is known to ±1 here
	// in O(1).  Astronomical exponents must be decided now — without
	// this, a stray "1e20000000" spends minutes raising the base to a
	// multi-megabit power on its way to the same ±Inf or ±0, a denial
	// of service every caller (and the batch parse engine especially)
	// would inherit.  The 16-bit margin keeps any case a float bound
	// cannot decide on the exact path; such borderline exponents are
	// small, so the exact path stays cheap for them.
	log2In := math.Log2(float64(n.Base))
	log2Out := math.Log2(float64(f.Base))
	log2Lo := float64(d.BitLen()-1) + float64(exp)*log2In // <= log2(value)
	log2Hi := float64(d.BitLen()) + float64(exp)*log2In   // >= log2(value)
	if log2Lo > float64(f.MaxExp+f.Precision)*log2Out+16 {
		return overflow(f, n.Neg, mode)
	}
	if log2Hi < float64(f.MinExp)*log2Out-16 {
		// Below half the smallest denormal by a wide margin: every
		// nearest mode takes it to zero, as roundRational would.  An
		// outward-pointing directed mode instead lands on the smallest
		// denormal, exactly as the exact path does for any nonzero
		// magnitude that floors to zero.
		if magnitudeUp(mode, n.Neg) {
			return minDenormal(f, n.Neg), nil
		}
		return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: n.Neg}, nil
	}

	// Exact rational x = num/den.
	num, den := d, bignat.Nat{1}
	if exp >= 0 {
		num = mulPow(num, n.Base, exp)
	} else {
		den = pow(n.Base, -exp)
	}
	return roundRational(num, den, n.Neg, f, mode)
}

// prefixDigits returns N(B, f) for B = base: how many significant base-B
// digits, counted from the leading nonzero one, can decide how a number
// rounds to the binary format f under any mode.  It returns 0, meaning
// "keep every digit", for odd B (whose expansions of f's boundaries do
// not terminate) and for formats whose own base is not 2.
//
// Proof.  A *boundary* is a value where some mode's answer changes: the
// representable values m·2^e (directed modes) and the midpoints
// (2m+1)·2^(e−1) between neighbours (nearest modes), e ≥ MinExp.  The
// largest is T = (2^(p+1)−1)·2^(MaxExp−1), the overflow midpoint; every
// value above T overflows alike in every mode.  Each boundary is
// b = M·2^E with M odd, M < 2^(p+1) and MinExp−1 ≤ E ≤ MaxExp+p−1.  All
// five modes — value, saturation and ErrRange alike — are constant on
// each open interval between neighbouring boundaries and on (T, ∞).
//
// Let B^(L−1) ≤ x < B^L, let x_N be x cut to N digits, so that
// x_N ≤ x < x_N + g with g = B^(L−N), and let x' = x_N if the cut
// digits are all zero, else x_N + B^(L−N−1) (the sticky digit 1).  If
// x' ≠ x, both lie in the open interval (x_N, x_N + g), whose ends are
// multiples of g within [B^(L−1), B^L].  So if every boundary in
// (B^(L−1), B^L) is a multiple of g, no boundary separates x from x',
// neither is exact, and they round identically in every mode; if x' = x
// there is nothing to show.
//
// Write B = 2^v·B' with B' odd and v ≥ 1.  b = M·2^E is a multiple of
// g = B^(L−N) when E + v·(N−L) ≥ 0 and, if B' > 1, also N ≥ L (for
// N < L the odd part B'^(L−N) would have to divide M).  A boundary in
// (B^(L−1), B^L) has B^(L−1) < b < 2^(p+1+E), so
// L ≤ L*(E) = ⌈(p+1+E)/log2 B⌉.  Hence it suffices that
//
//	N ≥ L*(E) + c(E) for every E,  c(E) = ⌈−E/v⌉, clamped at 0 if B' > 1.
//
// For B' = 1 the sum is periodic in E with period v.  For B' > 1 and
// E < 0 it lies in [h(E), h(E)+2) with h(E) = (p+1+E)/log2 B − E/v,
// which falls by 1/v − 1/log2 B per step of E, so the maximum lies
// within 2/(1/v − 1/log2 B) steps of E = MinExp−1; for E ≥ 0 it is
// L*(E), largest at the top E.  Binary64, base 10: E = −1075 gives
// L* = ⌈−1021/log2 10⌉ = −307 and c = 1075, so N = 768 — fast_float's
// bound.  Binary32: 113.  Base 2: p+1.
func prefixDigits(base int, f *fpformat.Format) int {
	if base%2 != 0 || f.Base != 2 {
		return 0
	}
	v := bits.TrailingZeros(uint(base))
	pow2 := base == 1<<v
	log2B := math.Log2(float64(base))
	// lead is L*(E).  For B' > 1, s/log2 B is irrational unless s == 0,
	// and float64 division puts it on the right side of every integer
	// over the formats' exponent ranges (pinned against exact integer
	// arithmetic in the tests).
	lead := func(e int) int {
		s := f.Precision + 1 + e
		if pow2 {
			return ceilDiv(s, v)
		}
		return int(math.Ceil(float64(s) / log2B))
	}
	e0, eMax := f.MinExp-1, f.MaxExp+f.Precision-1
	window := v
	if !pow2 {
		window = int(2/(1/float64(v)-1/log2B)) + 1
	}
	n := 0
	for e := e0; e < e0+window && e <= eMax; e++ {
		c := ceilDiv(-e, v)
		if !pow2 && c < 0 {
			c = 0
		}
		n = max(n, lead(e)+c)
	}
	if !pow2 {
		n = max(n, lead(eMax))
	}
	return n
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// pows caches the powers of each base up to powCap[base], the largest
// exponent a binary64 conversion cut to N digits can produce: N+1 digits
// of scale plus the magnitude pre-check's span of binary64 exponents.
// Larger exponents (wider formats, long odd-base inputs) compute their
// power directly, so the cache's memory stays bounded by binary64.
var (
	pows   [37]*bignat.PowCache
	powCap [37]int
)

func init() {
	for b := 2; b <= 36; b++ {
		pows[b] = bignat.NewPowCache(uint64(b))
		powCap[b] = prefixDigits(b, fpformat.Binary64) + 1 +
			int(math.Ceil(float64(17-fpformat.Binary64.MinExp)/math.Log2(float64(b))))
	}
}

// pow returns base^k for 2 <= base <= 36 and k >= 0: a shift for
// power-of-two bases, the shared cached power (read-only) within the cap.
func pow(base, k int) bignat.Nat {
	if base&(base-1) == 0 {
		return bignat.Shl(bignat.Nat{1}, uint(k*bits.TrailingZeros(uint(base))))
	}
	if k <= powCap[base] {
		return pows[base].Pow(uint(k))
	}
	return bignat.PowUint(uint64(base), uint(k))
}

// mulPow returns x·base^k, shifting instead of multiplying for
// power-of-two bases.
func mulPow(x bignat.Nat, base, k int) bignat.Nat {
	if base&(base-1) == 0 {
		return bignat.Shl(x, uint(k*bits.TrailingZeros(uint(base))))
	}
	return bignat.Mul(x, pow(base, k))
}

// roundRational returns the value of format f that num/den (> 0) rounds
// to under mode; neg carries the sign, which the directed modes need to
// orient their magnitude rounding.
func roundRational(num, den bignat.Nat, neg bool, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	b := f.Base
	// Estimate e with floor(log_b(x)) − (p−1) from the bit lengths, then
	// correct by iteration; the estimate is within a couple of units.
	logBx := float64(num.BitLen()-den.BitLen()) * math.Ln2 / math.Log(float64(f.Base))
	e := int(math.Floor(logBx)) - (f.Precision - 1)
	if e < f.MinExp {
		e = f.MinExp
	}

	lo := pow(b, f.Precision-1)
	hi := pow(b, f.Precision)
	for {
		// q = floor(x / bᵉ), computed exactly.  The binade — and therefore
		// the rounding grain — is chosen from the floor, NOT the rounded
		// value: a number just below b^(p−1)·bᵉ lives in the finer-grained
		// binade below even if rounding would carry it up.
		sNum, sDen := num, den
		if e > 0 {
			sDen = mulPow(sDen, b, e)
		} else if e < 0 {
			sNum = mulPow(sNum, b, -e)
		}
		q, rem := bignat.DivMod(sNum, sDen)
		if bignat.Cmp(q, hi) >= 0 {
			// Floor at or above b^p: grain too fine, raise e.
			e++
			if e > f.MaxExp {
				return overflow(f, neg, mode)
			}
			continue
		}
		if bignat.Cmp(q, lo) < 0 && e > f.MinExp {
			// Floor below b^(p−1): the value belongs to a finer binade.
			e--
			continue
		}

		m := roundQuotient(q, rem, sDen, mode, neg)
		if bignat.Cmp(m, hi) >= 0 {
			// Rounding carried into the next binade: the value is exactly
			// bᵖ·bᵉ = b^(p−1)·b^(e+1).
			m = lo.Clone()
			e++
		}
		if m.IsZero() {
			// Underflow to zero (only possible at e == MinExp, and never
			// under an outward-pointing directed mode, whose roundQuotient
			// lifts any nonzero remainder to at least 1).
			return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: neg}, nil
		}
		if e > f.MaxExp {
			return overflow(f, neg, mode)
		}
		if e == f.MaxExp && !rem.IsZero() && directed(mode) && !magnitudeUp(mode, neg) &&
			bignat.Cmp(bignat.AddWord(m, 1), hi) == 0 {
			// IEEE signals overflow from the unbounded-exponent result: a
			// value strictly above the largest finite number truncates onto
			// it under an inward directed mode, but still overflows.
			return overflow(f, neg, mode)
		}
		class := fpformat.Normal
		if bignat.Cmp(m, lo) < 0 {
			class = fpformat.Denormal
		}
		return fpformat.Value{Fmt: f, Class: class, Neg: neg, F: m, E: e}, nil
	}
}

// roundQuotient rounds q + rem/den to an integer under mode; neg is the
// sign of the value, which orients the directed modes.
func roundQuotient(q, rem, den bignat.Nat, mode RoundMode, neg bool) bignat.Nat {
	if rem.IsZero() {
		return q
	}
	if directed(mode) {
		// Directed rounding has no ties: any nonzero remainder moves away
		// from zero when the mode points outward for this sign, and
		// truncates otherwise.
		if magnitudeUp(mode, neg) {
			return bignat.AddWord(q, 1)
		}
		return q
	}
	switch bignat.Cmp(bignat.Shl(rem, 1), den) {
	case -1:
		return q
	case 1:
		return bignat.AddWord(q, 1)
	}
	// Exact tie.
	switch mode {
	case NearestAway:
		return bignat.AddWord(q, 1)
	case NearestTowardZero:
		return q
	default: // NearestEven
		if q.Bit(0) == 0 {
			return q
		}
		return bignat.AddWord(q, 1)
	}
}
