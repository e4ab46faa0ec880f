package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"floatprint"
	"floatprint/interval"
)

// libCall runs op o through the public API the way the serve handler
// does, one direction only: print ops render to text (appended to buf),
// parse ops read their token.  It returns the grown buffer.
func libCall(o *op, opts *floatprint.Options, buf []byte) []byte {
	switch o.kind {
	case kShortest:
		if d, err := floatprint.ShortestDigits(o.v, opts); err == nil {
			buf, _ = d.Append(buf, opts)
		}
	case kFixed:
		if d, err := floatprint.FixedDigits(o.v, o.n, opts); err == nil {
			buf, _ = d.Append(buf, opts)
		}
	case kFixedPos:
		if d, err := floatprint.FixedPositionDigits(o.v, o.n, opts); err == nil {
			buf, _ = d.Append(buf, opts)
		}
	case kIntervalPrint:
		buf, _ = interval.AppendShortest(buf, interval.Interval{Lo: o.lo, Hi: o.hi}, opts)
	case kParse:
		f, _ := floatprint.Parse(o.text, opts)
		libSink += f
	case kIntervalParse:
		iv, _ := interval.Parse(o.text, opts)
		libSink += iv.Lo
	}
	return buf
}

// libSink keeps parse results live so no call is optimised away.
var libSink float64

// cpuNow is the process's CPU time (CLOCK_PROCESS_CPUTIME_ID).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// libText is libCall finished into the full response text a handler
// would send, for the oracle.
func libText(o *op, opts *floatprint.Options) ([]byte, error) {
	switch o.kind {
	case kParse:
		f, err := floatprint.Parse(o.text, opts)
		if err != nil && !errors.Is(err, floatprint.ErrRange) {
			return nil, err
		}
		d, err := floatprint.ShortestDigits(f, opts)
		if err != nil {
			return nil, err
		}
		out, err := d.Append(nil, opts)
		return append(out, '\n'), err
	case kIntervalParse:
		iv, err := interval.Parse(o.text, opts)
		if err != nil {
			return nil, err
		}
		out, err := interval.AppendShortest(nil, iv, opts)
		return append(out, '\n'), err
	}
	return append(libCall(o, opts, nil), '\n'), nil
}

// libResult is the public-API phase's outcome.
type libResult struct {
	printNs, parseNs float64 // median over passes, per value
	allocs           float64 // per value, both directions
	attempted        int
	failed           int
	why              []string
}

// libBench measures a workload's inputs through the public API in one
// goroutine, in rounds interleaved with the served phases: each round
// times whole passes per direction, and the result is each direction's
// median pass and the exact allocation count of one untimed pass of
// both.  Passes are timed in process CPU time, which counts the
// garbage collector's work on other threads but not the time a shared
// machine's hypervisor gives to other tenants: on a 2-vCPU VM with a
// noisy neighbour, wall time per pass swung by 40% between runs where
// CPU time moved by 7%.  Nothing else runs in the process meanwhile.
type libBench struct {
	printPass, parsePass func()
	nPrint, nParse       int
	pr, pa               []float64
	res                  libResult
}

func (b *libBench) round(dur time.Duration) {
	timed := func(pass func()) float64 {
		t := cpuNow()
		pass()
		return float64(cpuNow() - t)
	}
	start := time.Now()
	for first := true; first || time.Since(start) < dur; first = false {
		b.pr = append(b.pr, timed(b.printPass)/float64(b.nPrint))
		b.pa = append(b.pa, timed(b.parsePass)/float64(b.nParse))
	}
}

func (b *libBench) result() libResult {
	b.res.printNs, b.res.parseNs = median(b.pr), median(b.pa)
	b.res.allocs = allocsPer(func() { b.printPass(); b.parsePass() }, b.nPrint+b.nParse)
	return b.res
}

// newLibSingle prepares the single-value public API over ops: the calls
// the serve handlers make.  Outputs are checked first, on their own
// pass, and one pass per direction warms caches and lazily built tables.
func newLibSingle(ops []op) *libBench {
	b := &libBench{}
	opts := make([]*floatprint.Options, len(ops))
	for i := range ops {
		opts[i] = ops[i].options()
		if ops[i].kind.print() {
			b.nPrint++
		} else {
			b.nParse++
		}
		b.res.attempted++
		out, err := libText(&ops[i], opts[i])
		if err == nil {
			err = checkOp(&ops[i], out)
		}
		if err != nil {
			b.res.failed++
			if len(b.res.why) < 5 {
				b.res.why = append(b.res.why, "lib: "+err.Error())
			}
		}
	}
	buf := make([]byte, 0, 1024)
	pass := func(print bool) func() {
		return func() {
			for i := range ops {
				if ops[i].kind.print() == print {
					buf = libCall(&ops[i], opts[i], buf[:0])
				}
			}
		}
	}
	b.printPass, b.parsePass = pass(true), pass(false)
	b.printPass()
	b.parsePass()
	return b
}

// allocsPer is the heap allocation count of f divided by n: the median
// of three runs, so a stray runtime allocation cannot move it.
func allocsPer(f func(), n int) float64 {
	var runs []float64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		runs = append(runs, float64(ms.Mallocs-before))
	}
	return median(runs) / float64(n)
}

// newLibBulk prepares the public batch API over the bulk bodies:
// floatprint.ParseBatch over each NDJSON body and
// floatprint.BatchShortest over its values, checked against the same
// expected bytes the served round trip must produce.
func newLibBulk(bodies []body) *libBench {
	b := &libBench{}
	fail := func(msg string) {
		b.res.failed++
		b.res.why = append(b.res.why, "lib: "+msg)
	}
	for bi := range bodies {
		body := &bodies[bi]
		b.nPrint += len(body.values)
		b.nParse += len(body.values)
		b.res.attempted += 2
		vals, err := floatprint.ParseBatch(body.ndjson)
		if err == nil && len(vals) != len(body.values) {
			err = fmt.Errorf("ParseBatch returned %d values, want %d", len(vals), len(body.values))
		}
		for i := 0; err == nil && i < len(vals); i++ {
			if math.Float64bits(vals[i]) != math.Float64bits(body.values[i]) {
				err = fmt.Errorf("ParseBatch value %d is %v, strconv says %v", i, vals[i], body.values[i])
			}
		}
		if err != nil {
			fail(err.Error())
		}
		res := floatprint.BatchShortest(body.values)
		var got []byte
		for i := 0; i < res.Len(); i++ {
			got = append(append(got, res.Value(i)...), '\n')
		}
		if string(got) != string(body.printed) {
			fail(fmt.Sprintf("BatchShortest output differs on the %d-value body", len(body.values)))
		}
	}
	b.printPass = func() {
		for bi := range bodies {
			floatprint.BatchShortest(bodies[bi].values)
		}
	}
	b.parsePass = func() {
		for bi := range bodies {
			v, _ := floatprint.ParseBatch(bodies[bi].ndjson)
			libSink += v[0]
		}
	}
	b.printPass()
	b.parsePass()
	return b
}
