package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/fastparse"
	"floatprint/internal/fastpath"
	"floatprint/internal/fpformat"
	"floatprint/internal/grisu"
	"floatprint/internal/reader"
	"floatprint/internal/ryu"
)

// The kernel layer of the request chains and of the batch rows runs the
// kernels the library itself chose.  The benchmark does not restate the
// library's dispatch rules: it makes the public call once, untimed, with
// telemetry on, and reads from the floatprint.Snapshot delta which fast
// kernel was tried and whether the exact core or reader ran.  A counter
// the benchmark has no kernel for fails the traced run, so a change to
// the dispatch cannot leave the kernel rows pricing calls the API no
// longer makes.

// kernelID names one kernel entry point.
type kernelID uint8

const (
	kNone          kernelID = iota
	kRyu                    // ryu.ShortestInto
	kGrisu                  // grisu.ShortestInto
	kRyuAbove               // ryu.ShortestAboveInto, on the magnitude
	kRyuBelow               // ryu.ShortestBelowInto, on the magnitude
	kCoreFree               // core.FreeFormat
	kCoreCeil               // core.CeilFormat
	kCoreFloor              // core.FloorFormat
	kGay                    // fastpath.TryFixed
	kCoreFixed              // core.FixedFormatRelative
	kCoreFixedPos           // core.FixedFormat
	kFastParse              // fastparse.Parse64
	kFastParseUp            // fastparse.ParseDirected64 toward +Inf
	kFastParseDown          // fastparse.ParseDirected64 toward -Inf
	kReader                 // reader.Parse
)

// plan is the kernels one conversion ran, in call order.
type plan [2]kernelID

// conv is one conversion of a request, as the public API sees it: an
// interval request is two, one per endpoint.
type conv struct {
	kind  kind // kShortest, kFixed, kFixedPos or kParse
	v     float64
	text  string
	base  int
	mode  string // nearest reader mode query value
	n     int
	dir   int  // 0 nearest; +1 above / toward +Inf; -1 below / toward -Inf
	batch bool // a value of a /v1/batch body: AppendShortest, as batch.Pool calls it

	abs float64
	val fpformat.Value
	cm  core.ReaderMode
	rm  reader.RoundMode
}

// convs splits an op into its conversions.
func convs(o *op) []conv {
	switch o.kind {
	case kIntervalPrint:
		return []conv{
			{kind: kShortest, v: o.lo, base: o.base, dir: -1},
			{kind: kShortest, v: o.hi, base: o.base, dir: +1},
		}
	case kIntervalParse:
		a, b, _ := strings.Cut(strings.Trim(o.text, "[]"), ",")
		return []conv{
			{kind: kParse, text: a, base: o.base, dir: -1},
			{kind: kParse, text: b, base: o.base, dir: +1},
		}
	}
	return []conv{{kind: o.kind, v: o.v, text: o.text, base: o.base, mode: o.mode, n: o.n}}
}

// options are the public-API options of the conversion.
func (c *conv) options() *floatprint.Options {
	_, _, r := modes(c.mode)
	switch c.dir {
	case -1:
		r = floatprint.ReaderTowardNegInf
	case +1:
		r = floatprint.ReaderTowardPosInf
	}
	return &floatprint.Options{Base: c.base, Reader: r}
}

// api makes the conversion's public call: the one the serve handler,
// the interval package or the batch engine makes for it.
func (c *conv) api() {
	opts := c.options()
	switch {
	case c.batch:
		floatprint.AppendShortest(nil, c.v)
	case c.kind == kShortest && c.dir < 0:
		floatprint.ShortestBelowDigits(c.v, opts)
	case c.kind == kShortest && c.dir > 0:
		floatprint.ShortestAboveDigits(c.v, opts)
	case c.kind == kShortest:
		floatprint.ShortestDigits(c.v, opts)
	case c.kind == kFixed:
		floatprint.FixedDigits(c.v, c.n, opts)
	case c.kind == kFixedPos:
		floatprint.FixedPositionDigits(c.v, c.n, opts)
	default:
		floatprint.Parse(c.text, opts)
	}
}

// statsDelta is the telemetry one call of f adds.
func statsDelta(f func()) floatprint.Stats {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)
	s0 := floatprint.Snapshot()
	f()
	return floatprint.Snapshot().Sub(s0)
}

// bookkeeping are the counters that name no kernel.
func bookkeeping(field string) bool {
	return strings.HasPrefix(field, "Trace") || strings.HasPrefix(field, "Interval") ||
		strings.HasPrefix(field, "Batch")
}

// unexplained returns the first counter of d that moved but is neither
// in used nor bookkeeping, or "".
func unexplained(d floatprint.Stats, used map[string]bool) string {
	rv, rt := reflect.ValueOf(d), reflect.TypeOf(d)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i).Name
		if rv.Field(i).Kind() == reflect.Uint64 && rv.Field(i).Uint() != 0 && !used[f] && !bookkeeping(f) {
			return f
		}
	}
	return ""
}

// derive makes c's public call and returns the kernels the library
// reports it ran, with c prepared for run.
func (c *conv) derive() (plan, error) {
	d := statsDelta(c.api)
	var p plan
	n := 0
	used := map[string]bool{}
	take := func(k kernelID, moved uint64, fields ...string) {
		if moved == 0 {
			return
		}
		for _, f := range fields {
			used[f] = true
		}
		if n < len(p) {
			p[n] = k
		}
		n++
	}
	// A directed print rounds the magnitude up when it rounds the value
	// away from zero.
	up := (c.dir > 0) != math.Signbit(c.v)
	switch {
	case c.kind == kShortest && c.dir == 0:
		take(kRyu, d.RyuHits+d.RyuMisses, "RyuHits", "RyuMisses")
		take(kGrisu, d.GrisuHits+d.GrisuMisses, "GrisuHits", "GrisuMisses")
		take(kCoreFree, d.ExactFree, "ExactFree")
	case c.kind == kShortest:
		take(pick(up, kRyuAbove, kRyuBelow), d.DirectedRyuHits+d.DirectedRyuMisses, "DirectedRyuHits", "DirectedRyuMisses")
		take(pick(up, kCoreCeil, kCoreFloor), d.ExactFree, "ExactFree")
	case c.kind == kFixed:
		take(kGay, d.GayHits+d.GayMisses, "GayHits", "GayMisses")
		take(kCoreFixed, d.ExactFixed, "ExactFixed")
	case c.kind == kFixedPos:
		take(kCoreFixedPos, d.ExactFixed, "ExactFixed")
	default:
		take(kFastParse, d.ParseFastHits+d.ParseFastMisses, "ParseFastHits", "ParseFastMisses")
		take(pick(c.dir > 0, kFastParseUp, kFastParseDown), d.DirectedFastHits+d.DirectedFastMisses, "DirectedFastHits", "DirectedFastMisses")
		take(kReader, d.ParseExact, "ParseExact")
	}
	what := c.text
	if c.kind != kParse {
		what = fmtG(c.v)
	}
	if f := unexplained(d, used); f != "" {
		return p, fmt.Errorf("kernel rows: the library advanced %s converting %s (base %d), and the benchmark has no kernel for it", f, what, c.base)
	}
	if n == 0 || n > len(p) {
		return p, fmt.Errorf("kernel rows: the library reported %d kernels converting %s (base %d)", n, what, c.base)
	}
	c.prepare()
	return p, nil
}

func pick(cond bool, a, b kernelID) kernelID {
	if cond {
		return a
	}
	return b
}

// prepare decodes what the kernels take, outside any timed call.
func (c *conv) prepare() {
	c.abs = math.Abs(c.v)
	c.val = fpformat.DecodeFloat64(c.abs)
	c.cm, c.rm, _ = modes(c.mode)
	switch c.dir {
	case -1:
		c.rm = reader.TowardNegInf
	case +1:
		c.rm = reader.TowardPosInf
	}
}

// run calls the plan's kernels on c; buf must hold ryu.BufLen bytes.
func (c *conv) run(p plan, buf []byte) {
	for _, k := range p {
		switch k {
		case kRyu:
			ryu.ShortestInto(buf, c.abs)
		case kGrisu:
			grisu.ShortestInto(buf, c.abs)
		case kRyuAbove:
			ryu.ShortestAboveInto(buf, c.abs)
		case kRyuBelow:
			ryu.ShortestBelowInto(buf, c.abs)
		case kCoreFree:
			core.FreeFormat(c.val, c.base, core.ScalingEstimate, c.cm)
		case kCoreCeil:
			core.CeilFormat(c.val, c.base, core.ScalingEstimate)
		case kCoreFloor:
			core.FloorFormat(c.val, c.base, core.ScalingEstimate)
		case kGay:
			fastpath.TryFixed(c.abs, c.n)
		case kCoreFixed:
			core.FixedFormatRelative(c.val, c.base, c.cm, c.n)
		case kCoreFixedPos:
			core.FixedFormat(c.val, c.base, c.cm, c.n)
		case kFastParse:
			fastparse.Parse64(c.text)
		case kFastParseUp, kFastParseDown:
			fastparse.ParseDirected64(c.text, k == kFastParseUp)
		case kReader:
			reader.Parse(c.text, c.base, fpformat.Binary64, c.rm)
		}
	}
}

// kernelCall returns the kernel work the library dispatches op o to.
func kernelCall(o *op) (func(), error) {
	cs := convs(o)
	ps := make([]plan, len(cs))
	for i := range cs {
		var err error
		if ps[i], err = cs[i].derive(); err != nil {
			return nil, err
		}
	}
	var buf [ryu.BufLen]byte
	return func() {
		for i := range cs {
			cs[i].run(ps[i], buf[:])
		}
	}, nil
}

// valuePlans derives, for each value of a /v1/batch body, the kernels
// floatprint.AppendShortest runs for it (batch.Pool calls it per
// value).  When the whole body shows Ryū hits only, every value's plan
// is Ryū and no value is derived alone.
func valuePlans(values []float64) ([]plan, error) {
	plans := make([]plan, len(values))
	d := statsDelta(func() {
		buf := make([]byte, 0, 32)
		for _, v := range values {
			buf = floatprint.AppendShortest(buf[:0], v)
		}
	})
	if d.RyuHits == uint64(len(values)) && unexplained(d, map[string]bool{"RyuHits": true}) == "" {
		for i := range plans {
			plans[i] = plan{kRyu}
		}
		return plans, nil
	}
	for i, v := range values {
		c := conv{kind: kShortest, v: v, base: 10, batch: true}
		var err error
		if plans[i], err = c.derive(); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// runValues runs each value's plan, as the kernel work under one batch
// print.  A Ryū-only plan skips prepare: decoding allocates, and the Ryū
// call the library makes needs the magnitude only.
func runValues(values []float64, plans []plan) {
	var buf [ryu.BufLen]byte
	for i, v := range values {
		if plans[i] == (plan{kRyu}) {
			ryu.ShortestInto(buf[:], math.Abs(v))
			continue
		}
		c := conv{kind: kShortest, v: v, base: 10}
		c.prepare()
		c.run(plans[i], buf[:])
	}
}

// parseFallbacks derives the kernel work of a /v1/batch-parse body:
// the block scanner over every token, and for each token the scanner
// declines, the kernels floatprint.Parse runs for it (the per-value
// path batch parsing falls back to), keyed by the token.  It fails when
// the library's own count of declined tokens differs from the
// scanner's.
func parseFallbacks(data []byte) (map[string]plan, map[string]*conv, error) {
	d := statsDelta(func() { floatprint.ParseBatch(data) })
	plans, cs := map[string]plan{}, map[string]*conv{}
	declined := 0
	var ferr error
	blockScan(data, func(tok []byte) {
		declined++
		if _, ok := plans[string(tok)]; ok || ferr != nil {
			return
		}
		c := &conv{kind: kParse, text: string(tok), base: 10}
		p, err := c.derive()
		plans[c.text], cs[c.text], ferr = p, c, err
	})
	if ferr != nil {
		return nil, nil, ferr
	}
	if uint64(declined) != d.BatchParseFallbacks {
		return nil, nil, fmt.Errorf("kernel rows: the block scanner declined %d tokens, the library reports %d fallbacks", declined, d.BatchParseFallbacks)
	}
	return plans, cs, nil
}
