package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
)

// The oracle decides, for every response, whether it is right.  It
// never asks the code under test: base-10 nearest-even results are
// judged by strconv (read-back bits and digit count), every printed
// digit string also by the paper's exact algorithm (internal/core, the
// library's contract: it differs from strconv on 42 exact-halfway
// values of the corpus), values in other modes and bases by the exact
// reader (internal/reader), and intervals by exact rational comparison.
// Rendering core digits into text reuses floatprint.Digits.Append, the
// one formatter the service has.

// modes maps a reader-mode query value to the exact core's printing
// assumption and the exact reader's rounding.  "unknown" reads
// nearest-even, as floatprint.Parse does.
func modes(mode string) (core.ReaderMode, reader.RoundMode, floatprint.ReaderRounding) {
	switch mode {
	case "unknown":
		return core.ReaderUnknown, reader.NearestEven, floatprint.ReaderUnknown
	case "away":
		return core.ReaderNearestAway, reader.NearestAway, floatprint.ReaderNearestAway
	case "zero":
		return core.ReaderNearestTowardZero, reader.NearestTowardZero, floatprint.ReaderNearestTowardZero
	}
	return core.ReaderNearestEven, reader.NearestEven, floatprint.ReaderNearestEven
}

// options is the floatprint.Options the server builds for an op.
func (o *op) options() *floatprint.Options {
	_, _, r := modes(o.mode)
	return &floatprint.Options{Base: o.base, Reader: r}
}

// render turns an exact core result into response text, classifying an
// all-zero digit string as zero the way the service does.
func render(res core.Result, neg bool, base int) []byte {
	d := floatprint.Digits{Class: floatprint.IsZero, Neg: neg, Digits: res.Digits, K: res.K, NSig: res.NSig, Base: base}
	for _, c := range res.Digits {
		if c != 0 {
			d.Class = floatprint.Finite
			break
		}
	}
	out, _ := d.Append(nil, &floatprint.Options{Base: base})
	return out
}

// exactShortest is the paper's free-format output for v.
func exactShortest(v float64, base int, mode string) ([]byte, error) {
	cm, _, _ := modes(mode)
	val := fpformat.DecodeFloat64(math.Abs(v))
	if val.Class != fpformat.Normal && val.Class != fpformat.Denormal {
		return nil, fmt.Errorf("no exact oracle for %v in base %d", v, base)
	}
	res, err := core.FreeFormat(val, base, core.ScalingEstimate, cm)
	if err != nil {
		return nil, err
	}
	return render(res, math.Signbit(v), base), nil
}

// expectedValue is what a parse op must produce: strconv's reading of a
// base-10 nearest-even token, the exact reader's otherwise.
func (o *op) expectedValue() (float64, error) {
	if o.base == 10 && (o.mode == "" || o.mode == "unknown") {
		f, err := strconv.ParseFloat(o.text, 64)
		if err != nil && !isRange(err) {
			return 0, err
		}
		return f, nil
	}
	_, rm, _ := modes(o.mode)
	val, err := reader.Parse(o.text, o.base, fpformat.Binary64, rm)
	if err != nil {
		return 0, err
	}
	return val.Float64()
}

func isRange(err error) bool {
	ne, ok := err.(*strconv.NumError)
	return ok && ne.Err == strconv.ErrRange
}

// checkOp reports why resp (the response body, trailing newline
// included) is not the right answer to o, or nil.
func checkOp(o *op, resp []byte) error {
	text, ok := bytes.CutSuffix(resp, []byte("\n"))
	if !ok {
		return fmt.Errorf("%s: response %q lacks its newline", o.path, resp)
	}
	switch o.kind {
	case kShortest:
		if o.base == 10 && o.mode == "" {
			if err := checkStrconvShortest(o.v, string(text)); err != nil || !finiteNonzero(o.v) {
				return err
			}
		}
		want, err := exactShortest(o.v, o.base, o.mode)
		return compare(o, text, want, err)
	case kParse:
		want, err := o.expectedValue()
		if err != nil {
			return fmt.Errorf("%s: oracle cannot read the token: %v", o.path, err)
		}
		if o.base == 10 && o.mode == "" {
			got, err := strconv.ParseFloat(string(text), 64)
			if err != nil && !isRange(err) {
				return fmt.Errorf("%s: response %q does not parse: %v", o.path, text, err)
			}
			if !sameBits(got, want) {
				return fmt.Errorf("%s: parsed to %v, strconv says %v", o.path, got, want)
			}
			if !finiteNonzero(want) {
				return nil
			}
		}
		exp, err := exactShortest(want, o.base, o.mode)
		return compare(o, text, exp, err)
	case kFixed, kFixedPos:
		cm, _, _ := modes(o.mode)
		val := fpformat.DecodeFloat64(math.Abs(o.v))
		var res core.Result
		var err error
		if o.kind == kFixed {
			res, err = core.FixedFormatRelative(val, o.base, cm, o.n)
		} else {
			res, err = core.FixedFormat(val, o.base, cm, o.n)
		}
		var want []byte
		if err == nil {
			want = render(res, math.Signbit(o.v), o.base)
		}
		return compare(o, text, want, err)
	case kIntervalPrint:
		return checkEnclosure(o, string(text), ratOf(o.lo), ratOf(o.hi))
	case kIntervalParse:
		a, b, ok := strings.Cut(strings.Trim(o.text, "[]"), ",")
		if !ok {
			return fmt.Errorf("%s: malformed interval token", o.path)
		}
		lo, err1 := textRat(a, o.base)
		hi, err2 := textRat(b, o.base)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s: oracle cannot read the endpoints", o.path)
		}
		return checkEnclosure(o, string(text), lo, hi)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

func compare(o *op, got, want []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: oracle: %v", o.path, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: got %q, exact core says %q", o.path, got, want)
	}
	return nil
}

func finiteNonzero(v float64) bool { return v != 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkStrconvShortest checks a base-10 nearest-even shortest rendering:
// it must read back (by strconv) to v's exact bits, with as many
// significant digits as strconv's own shortest form has.
func checkStrconvShortest(v float64, text string) error {
	got, err := strconv.ParseFloat(text, 64)
	if err != nil && !isRange(err) {
		return fmt.Errorf("shortest %v: response %q does not parse: %v", v, text, err)
	}
	if !sameBits(got, v) {
		return fmt.Errorf("shortest %v: response %q reads back as %v", v, text, got)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) || v == 0 {
		return nil
	}
	if g, w := sigDigits(text), sigDigits(strconv.FormatFloat(v, 'e', -1, 64)); g != w {
		return fmt.Errorf("shortest %v: response %q has %d significant digits, strconv needs %d", v, text, g, w)
	}
	return nil
}

// sigDigits counts the significant digits of a decimal numeral.
func sigDigits(s string) int {
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimLeft(strings.Replace(strings.TrimLeft(s, "+-"), ".", "", 1), "0")
	return len(strings.TrimRight(s, "0"))
}

// ratOf is the exact value of a finite float.
func ratOf(f float64) *big.Rat {
	if math.IsInf(f, 0) {
		return nil
	}
	return new(big.Rat).SetFloat64(f)
}

// textRat is the exact value of a numeral in base, nil for ±Inf.
func textRat(s string, base int) (*big.Rat, error) {
	switch strings.ToLower(s) {
	case "+inf", "inf", "-inf":
		return nil, nil
	}
	n, err := reader.ParseText(s, base)
	if err != nil {
		return nil, err
	}
	num := new(big.Int)
	for _, d := range n.Digits {
		num.Mul(num, big.NewInt(int64(base)))
		num.Add(num, big.NewInt(int64(d)))
	}
	if n.Neg {
		num.Neg(num)
	}
	r := new(big.Rat).SetInt(num)
	e := n.K - len(n.Digits)
	p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(abs(e))), nil)
	if e >= 0 {
		return r.Mul(r, new(big.Rat).SetInt(p)), nil
	}
	return r.Quo(r, new(big.Rat).SetInt(p)), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkEnclosure checks that the interval text "[a,b]" (in the op's
// base) encloses [lo, hi]; a nil bound is the matching infinity.
func checkEnclosure(o *op, text string, lo, hi *big.Rat) error {
	inner, ok := strings.CutPrefix(text, "[")
	inner, ok2 := strings.CutSuffix(inner, "]")
	a, b, ok3 := strings.Cut(inner, ",")
	if !ok || !ok2 || !ok3 {
		return fmt.Errorf("%s: response %q is not an interval", o.path, text)
	}
	ra, err1 := textRat(a, o.base)
	rb, err2 := textRat(b, o.base)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("%s: response %q has an unreadable endpoint", o.path, text)
	}
	lowOK := a == "-Inf" || (ra != nil && lo != nil && ra.Cmp(lo) <= 0)
	highOK := b == "+Inf" || (rb != nil && hi != nil && rb.Cmp(hi) >= 0)
	if !lowOK || !highOK {
		return fmt.Errorf("%s: response %q does not enclose the request", o.path, text)
	}
	return nil
}

// expectBodies fills each bulk body's expected responses: strconv's bits
// for every token, then floatprint.AppendShortest of every value.
func expectBodies(bodies []body) {
	for bi := range bodies {
		b := &bodies[bi]
		b.packed = make([]byte, 0, 8*len(b.values))
		b.printed = make([]byte, 0, len(b.ndjson))
		for _, v := range b.values {
			b.packed = binary.LittleEndian.AppendUint64(b.packed, math.Float64bits(v))
			b.printed = append(floatprint.AppendShortest(b.printed, v), '\n')
		}
	}
}
