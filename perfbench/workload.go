package main

import (
	"math"
	"math/big"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"

	"floatprint/internal/schryer"
)

// kind is the conversion one single-value request asks for.
type kind int

const (
	kShortest      kind = iota // GET /v1/shortest?v=
	kParse                     // GET /v1/parse?s=
	kFixed                     // GET /v1/fixed?v=&n=
	kFixedPos                  // GET /v1/fixed?v=&pos=
	kIntervalPrint             // GET /v1/interval?lo=&hi=
	kIntervalParse             // GET /v1/interval?s=[a,b]
)

// op is one single-value request: what to convert, under which
// options, and the URL path (query escaped) that asks for it.
type op struct {
	kind   kind
	v      float64 // kShortest, kFixed, kFixedPos
	lo, hi float64 // kIntervalPrint
	text   string  // the v= token as sent (kShortest, kFixed*) or the s= token (kParse, kIntervalParse)
	base   int     // 10 unless the op names another base
	mode   string  // reader mode query value; "" is nearest-even
	n      int     // digit count (kFixed) or absolute position (kFixedPos)
	path   string  // request path with its escaped query
}

// route is the serve route an op's kind is sent to, as the
// fpserved_request_seconds route label spells it.
func (k kind) route() string {
	switch k {
	case kShortest:
		return "/v1/shortest"
	case kParse:
		return "/v1/parse"
	case kFixed, kFixedPos:
		return "/v1/fixed"
	}
	return "/v1/interval"
}

// print reports whether the op converts a binary value to text.
func (k kind) print() bool { return k != kParse && k != kIntervalParse }

// query returns the op's query parameters, from which path is built.
func (o *op) query() url.Values {
	q := url.Values{}
	switch o.kind {
	case kShortest:
		q.Set("v", o.text)
	case kParse:
		q.Set("s", o.text)
	case kFixed:
		q.Set("v", o.text)
		q.Set("n", strconv.Itoa(o.n))
	case kFixedPos:
		q.Set("v", o.text)
		q.Set("pos", strconv.Itoa(o.n))
	case kIntervalPrint:
		q.Set("lo", fmtG(o.lo))
		q.Set("hi", fmtG(o.hi))
	case kIntervalParse:
		q.Set("s", o.text)
	}
	if o.base != 10 {
		q.Set("base", strconv.Itoa(o.base))
	}
	if o.mode != "" {
		q.Set("mode", o.mode)
	}
	return q
}

// finish sets the op's path.  url.Values.Encode escapes every value,
// so strconv's "1e+300" reaches the server as 1e%2B300, not as a space.
func (o *op) finish() op {
	o.path = o.kind.route() + "?" + o.query().Encode()
	return *o
}

// fmtG is the shortest strconv token for v, the text a client sends.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// newRand is the workload generator's source: PCG is specified bit for
// bit, so a seed names the same inputs on every Go release.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// corpusValue draws a Schryer corpus value with a random sign.
func corpusValue(rng *rand.Rand, corpus []float64) float64 {
	v := corpus[rng.IntN(len(corpus))]
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// interactivePool is the number of distinct interactive requests; the
// open loop cycles through them in a seeded order.
const interactivePool = 4096

// genInteractive builds the interactive request mix: single-value GETs
// over the Schryer corpus, the four request families in equal shares —
// shortest, parse, fixed with 1–8 digits, and interval (its lo&hi print
// and s= parse forms alternating) — with 1 in 100 requests a shortest or
// parse of inf, nan, -0 or a subnormal.  The equal shares are an
// assumption, not a measurement of real traffic.  They do not depend on
// the seed, so runs with different seeds measure the same mix.
func genInteractive(seed uint64) []op {
	rng := newRand(seed, 1)
	corpus := schryer.Corpus()
	specials := []string{"inf", "-inf", "nan", "-0", "+Inf", "NaN"}
	ops := make([]op, 0, interactivePool)
	for i := 0; i < interactivePool; i++ {
		v := corpusValue(rng, corpus)
		o := op{base: 10}
		switch round := i / 4; {
		case i%200 < 2:
			o.kind = kShortest
			if i%200 == 1 {
				o.kind = kParse
			}
			if rng.IntN(3) == 0 {
				sub := math.Float64frombits(1 + rng.Uint64N(1<<52-1))
				o.text = fmtG(sub)
			} else {
				o.text = specials[rng.IntN(len(specials))]
			}
			o.v, _ = strconv.ParseFloat(o.text, 64)
		case i%4 == 0:
			o.kind, o.v, o.text = kShortest, v, fmtG(v)
		case i%4 == 1:
			o.kind, o.v, o.text = kParse, v, fmtG(v)
		case i%4 == 2:
			o.kind, o.v, o.text, o.n = kFixed, v, fmtG(v), 1+round%8
		case round%2 == 0:
			o.kind = kIntervalPrint
			o.lo, o.hi = orderedPair(v, rng)
		default:
			o.kind = kIntervalParse
			lo, hi := orderedPair(v, rng)
			o.text = "[" + fmtG(lo) + "," + fmtG(hi) + "]"
		}
		ops = append(ops, o.finish())
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// orderedPair returns v and a finite neighbour within a relative 1e-3,
// in order.
func orderedPair(v float64, rng *rand.Rand) (lo, hi float64) {
	w := v * (1 + rng.Float64()*1e-3)
	if math.IsInf(w, 0) {
		w = v
	}
	if w < v {
		return w, v
	}
	return v, w
}

// exactPool is the number of distinct exact_path requests.
const exactPool = 1024

// logGrid returns n sizes spaced evenly on a log scale from lo to hi.
func logGrid(lo, hi float64, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(n-1))))
	}
	return out
}

// Size grids for exact_path: each spans the range its request family
// names, log-spaced, and every op of a family takes the next grid entry
// in turn, so the size mix is the same for every seed; the seed picks
// the values.  All sizes stay well inside what a per-request cap on
// digits or positions would admit (a query of at most ~2 KB, at most
// 800 output digits).
var (
	fixedDigitGrid = logGrid(17, 800, 10)
	fixedPosGrid   = logGrid(20, 350, 6) // digits below the units place
	halfwayGrid    = logGrid(20, 2000, 9)
	hexDigitGrid   = logGrid(16, 40, 4)
	exactModes     = []string{"", "unknown", "away", "zero"}
	// shortestGrid is every base other than 10 under every nearest
	// reader mode.  Base 10 is left out: there the Ryū or Grisu fast
	// path serves all four modes.
	shortestGrid = func() [][2]int {
		var g [][2]int
		for b := 2; b <= 36; b++ {
			for m := range exactModes {
				if b != 10 {
					g = append(g, [2]int{b, m})
				}
			}
		}
		return g
	}()
)

// genExact builds the exact_path mix: only requests the certified fast
// paths decline or do not cover, the four request families in equal
// shares — shortest in a base other than 10 under one of the four
// nearest reader modes; fixed with 17–800 digits or at a far absolute
// position (alternating); parses of near-halfway decimal tokens of
// 20–2,000 digits; base-16 parses, interval prints and interval parses
// (in turn).  The equal shares are an assumption, not a measurement
// of real traffic.
func genExact(seed uint64) []op {
	rng := newRand(seed, 2)
	corpus := schryer.Corpus()
	ops := make([]op, 0, exactPool)
	for i := 0; i < exactPool; i++ {
		round := i / 4
		v := corpusValue(rng, corpus)
		o := op{base: 10}
		switch i % 4 {
		case 0:
			g := shortestGrid[round%len(shortestGrid)]
			o.kind, o.v, o.text = kShortest, v, fmtG(v)
			o.base, o.mode = g[0], exactModes[g[1]]
		case 1:
			if round%2 == 0 {
				o.kind, o.v, o.text = kFixed, v, fmtG(v)
				o.n = fixedDigitGrid[round/2%len(fixedDigitGrid)]
			} else {
				w := moderate(rng)
				o.kind, o.v, o.text = kFixedPos, w, fmtG(w)
				o.n = -fixedPosGrid[round/2%len(fixedPosGrid)]
			}
		case 2:
			o.kind = kParse
			o.text = nearHalfway(math.Abs(v), halfwayGrid[round%len(halfwayGrid)], v < 0)
		default:
			o.base = 16
			nd := hexDigitGrid[round/3%len(hexDigitGrid)]
			switch round % 3 {
			case 0:
				o.kind, o.text = kParse, hexToken(rng, nd)
			case 1:
				o.kind = kIntervalPrint
				o.lo, o.hi = orderedPair(v, rng)
			default:
				a, b := hexToken(rng, nd), hexToken(rng, nd)
				if ra, _ := textRat(a, 16); ra != nil {
					if rb, _ := textRat(b, 16); rb != nil && ra.Cmp(rb) > 0 {
						a, b = b, a
					}
				}
				o.kind, o.text = kIntervalParse, "["+a+","+b+"]"
			}
		}
		ops = append(ops, o.finish())
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// moderate draws a value of magnitude 2^-40..2^40, so that the far
// fixed positions of fixedPosGrid stay below its leading digit.
func moderate(rng *rand.Rand) float64 {
	v := math.Ldexp(1+rng.Float64(), rng.IntN(81)-40)
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// hexToken is a base-16 numeral of nd digits with a radix point: more
// hex digits than a float64 mantissa holds, so the reader must round.
func hexToken(rng *rand.Rand, nd int) string {
	const digs = "0123456789abcdef"
	var sb strings.Builder
	point := 1 + rng.IntN(6)
	sb.WriteByte(digs[1+rng.IntN(15)])
	for i := 1; i < nd; i++ {
		if i == point {
			sb.WriteByte('.')
		}
		sb.WriteByte(digs[rng.IntN(16)])
	}
	return sb.String()
}

// exactDecimal returns the significant decimal digits and the decimal
// exponent of m·2^e exactly (value = 0.digits × 10^exp).
func exactDecimal(m uint64, e int) (string, int) {
	n := new(big.Int).SetUint64(m)
	if e >= 0 {
		s := n.Lsh(n, uint(e)).String()
		return strings.TrimRight(s, "0"), len(s)
	}
	k := -e
	s := n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(k)), nil)).String()
	return strings.TrimRight(s, "0"), len(s) - k
}

// decompose returns m, e with v = m·2^e for a positive finite v.
func decompose(v float64) (uint64, int) {
	b := math.Float64bits(v)
	m, be := b&(1<<52-1), int(b>>52)
	if be == 0 {
		return m, -1074
	}
	return m | 1<<52, be - 1075
}

// sciToken renders 0.digits × 10^exp as d.ddd…e±x.
func sciToken(digits string, exp int, neg bool) string {
	var sb strings.Builder
	if neg {
		sb.WriteByte('-')
	}
	sb.WriteByte(digits[0])
	if len(digits) > 1 {
		sb.WriteByte('.')
		sb.WriteString(digits[1:])
	}
	sb.WriteByte('e')
	sb.WriteString(strconv.Itoa(exp - 1))
	return sb.String()
}

// nearHalfway returns a decimal token of exactly nd significant digits
// within a hair of the midpoint between v and its successor: the
// midpoint's own digits, truncated (just below the midpoint) or padded
// with zeros and a final 1 (just above).  Deciding which way such a
// token rounds needs all of its digits, so every fast path declines.
func nearHalfway(v float64, nd int, neg bool) string {
	m, e := decompose(v)
	digits, exp := exactDecimal(2*m+1, e-1)
	return sciToken(pinch(digits, nd), exp, neg)
}

// pinch cuts digits to nd places, or pads them to nd places ending in 1.
func pinch(digits string, nd int) string {
	if len(digits) >= nd {
		return digits[:nd]
	}
	return digits + strings.Repeat("0", nd-len(digits)-1) + "1"
}

// body is one bulk round trip: NDJSON text in, its packed float64s,
// and the NDJSON the print route returns for them.
type body struct {
	values  []float64
	ndjson  []byte // POST /v1/batch-parse request
	packed  []byte // expected batch-parse response, then the /v1/batch request
	printed []byte // expected /v1/batch response
}

// bulkSizes is one bulk cycle: body sizes in values, from 1k to 1M in
// steps of 4, so per-request overhead and streaming throughput both
// count.  The schedule is fixed; the seed picks the values.
var bulkSizes = []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}

// genBulk builds the bulk bodies: every token is strconv's shortest
// rendering of a Schryer corpus value with a random sign (17
// significant digits or fewer, the full exponent range).
func genBulk(seed uint64) []body {
	rng := newRand(seed, 3)
	corpus := schryer.Corpus()
	bodies := make([]body, len(bulkSizes))
	for bi, size := range bulkSizes {
		b := &bodies[bi]
		b.values = make([]float64, size)
		b.ndjson = make([]byte, 0, size*22)
		for i := range b.values {
			tok := fmtG(corpusValue(rng, corpus))
			b.values[i], _ = strconv.ParseFloat(tok, 64)
			b.ndjson = append(append(b.ndjson, tok...), '\n')
		}
	}
	return bodies
}
