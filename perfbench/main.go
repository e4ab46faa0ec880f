// Command perfbench is the repository's benchmark.  It generates seeded
// inputs for one workload, sends them to a real fpserved process over
// loopback and, separately, through the public Go API in-process,
// checks every output against an independent oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ladder) with the
// last line of standard output one JSON object.
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
//
// run.sh builds fpserved and this command from the checkout first; see
// README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is one run's outcome.
type report struct {
	attempted int
	failed    int
	why       []string
	metrics   []metric
	invalid   string // non-empty when the measurement itself is not valid
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) fail(n int, why []string) {
	r.failed += n
	for _, w := range why {
		if len(r.why) < 10 {
			r.why = append(r.why, w)
		}
	}
}

// Load shape.
const (
	interactiveRate = 3000 // open-loop arrivals per second
	setupLaunches   = 15   // fpserved launches timed per run for setup_s
	// lagBound is the generator lag (p99) past which an open-loop run
	// is invalid: requests left late by the generator, not the server.
	lagBound = 50 * time.Millisecond
)

func main() {
	workload := flag.String("workload", "", "interactive, bulk or exact_path")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end metrics")
	bin := flag.String("fpserved", "", "fpserved binary")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	if *bin == "" {
		fatal("missing -fpserved")
	}
	conns := runtime.NumCPU()
	dur := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	var rep *report
	var err error
	switch {
	case *trace == 1:
		rep, err = runTrace(ctx, *workload, *seed, dur, *bin, conns, *outDir)
	case *workload == "interactive":
		rep, err = runInteractive(ctx, *seed, dur, *bin, conns)
	case *workload == "bulk":
		rep, err = runBulk(ctx, *seed, dur, *bin)
	case *workload == "exact_path":
		rep, err = runExact(ctx, *seed, dur, *bin, conns)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fatal(err.Error())
	}
	emit(rep)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// emit prints the human-readable table, then the JSON result line.  An
// invalid measurement prints no result and exits non-zero.
func emit(r *report) {
	for _, m := range r.metrics {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-40s %16.6g %s\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	fmt.Printf("attempted %d, failed %d\n", r.attempted, r.failed)
	for _, w := range r.why {
		fmt.Println("FAILED:", w)
	}
	if r.invalid != "" {
		fatal("invalid run: " + r.invalid)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		if printedOnly[m.name] {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1 // JSON has no NaN; -1 cannot pass for a measurement
		}
		ms[m.name] = value{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(out))
}

// printedOnly are end-to-end metrics the run prints but leaves out of
// its JSON result, and so out of BENCHMARK.json's regression gate.  On
// a shared 2-vCPU VM, served wall-clock figures move with the
// hypervisor's steal: in ten runs at 0.1-17% steal, interactive's
// capacity ranged from 7,645 to 14,328 req/s and its latency_p99 from
// 0.46 to 3.97 ms; at up to 33% steal, exact_path's capacity ranged from
// 2,161 to 7,241 req/s and bulk's p50 latency from 7.2 to 13.6 ms.  No
// bound a gate may carry (25%) covers that, so these are reported for
// reading, with the steal share beside them, and the gate keeps the
// metrics that hold still: CPU time, memory and allocations.
var printedOnly = map[string]bool{
	"latency_p50_ms":     true,
	"latency_p99_ms":     true,
	"capacity_rps":       true,
	"print_values_per_s": true,
	"parse_values_per_s": true,
	"values_per_s":       true,
}

// launch starts fpserved setupLaunches times, timing each from exec to
// its first correct conversion, and keeps the last one running.  It
// returns the median launch time in seconds.  Runs launch before they
// generate their inputs, so no garbage collection of the benchmark's own
// heap overlaps the launches.
func launch(bin string, args ...string) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < setupLaunches; i++ {
		srv.stop()
		s, d, err := startServer(bin, args...)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		times = append(times, d.Seconds())
	}
	return srv, median(times), nil
}

// serverFlags are the fpserved flags for a workload: interactive runs
// with 1-in-100 trace sampling, so building spans for requests that
// are then dropped stays on the measured path.
func serverFlags(workload string) []string {
	if workload == "interactive" {
		return []string{"-trace-sample", "100"}
	}
	return nil
}

// rounds is how many times a run alternates its phases.  Every metric
// is a median over windows, blocks or passes drawn from all rounds, so
// a slow minute on a shared machine weighs on every metric alike
// instead of on whichever phase it happened to hit.
const rounds = 5

// statWindow is the window of the latency statistics: percentiles are
// taken per window, and the median over windows is reported.
const statWindow = time.Second

// block is the samples of one closed- or open-loop phase of one round,
// with clocks relative to the phase start.
type block struct {
	samples []sample
	wall    time.Duration
}

// origin is the instant a request's latency is measured from.
type origin int

const (
	fromSend    origin = iota // the client started sending
	fromRelease               // the open-loop generator released it to the workers
	fromDue                   // the open-loop schedule said it was due
)

func (s *sample) from(o origin) int64 {
	switch o {
	case fromRelease:
		return s.dispatched
	case fromDue:
		return s.due
	}
	return s.sent
}

// windows splits a block's samples by the window their origin falls
// in, dropping windows too thin for a p99 with ten samples beyond it.
func windows(samples []sample, o origin) [][]sample {
	var out [][]sample
	for i := range samples {
		k := int(samples[i].from(o) / int64(statWindow))
		for len(out) <= k {
			out = append(out, nil)
		}
		out[k] = append(out[k], samples[i])
	}
	kept := out[:0]
	for _, w := range out {
		if len(w) >= 1000 {
			kept = append(kept, w)
		}
	}
	return kept
}

// latency returns the p50 and p99 latency in ms from origin o, each the
// median over windows of the window's percentile.  A failed request
// counts as infinitely late.
func latency(blocks []block, o origin) (p50, p99 float64) {
	var a, b []float64
	for _, bl := range blocks {
		for _, w := range windows(bl.samples, o) {
			lat := latencies(w, o)
			a = append(a, quantile(lat, 0.50))
			b = append(b, quantile(lat, 0.99))
		}
	}
	return median(a), median(b)
}

// latencies returns the sorted millisecond latencies of samples.
func latencies(samples []sample, o origin) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		s := &samples[i]
		out[i] = math.Inf(1)
		if s.err == nil && s.status == 200 {
			out[i] = float64(s.done-s.from(o)) / 1e6
		}
	}
	sort.Float64s(out)
	return out
}

// throughput reports, for closed-loop blocks over conns connections, the
// values completed per second in each direction and overall, each the
// median over blocks.  A direction's rate is its values over the
// connection-time its requests held (their summed durations over
// conns), so a slower parse shows in parse_values_per_s and not in
// print_values_per_s.
func throughput(ops []op, blocks []block, conns int) (printRate, parseRate, all float64) {
	var pr, pa, al []float64
	for _, bl := range blocks {
		var nPrint, nParse, ok, tPrint, tParse float64
		for _, s := range bl.samples {
			d := float64(s.done-s.sent) / 1e9
			good := s.err == nil && s.status == 200
			if ops[s.op].kind.print() {
				tPrint += d
				if good {
					nPrint++
				}
			} else {
				tParse += d
				if good {
					nParse++
				}
			}
			if good {
				ok++
			}
		}
		c := float64(conns)
		pr = append(pr, nPrint*c/tPrint)
		pa = append(pa, nParse*c/tParse)
		al = append(al, ok/bl.wall.Seconds())
	}
	return median(pr), median(pa), median(al)
}

// count is the number of samples in blocks.
func count(blocks []block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.samples)
	}
	return n
}

// check runs the oracle over every block.
func check(r *report, ops []op, blocks []block) {
	for _, b := range blocks {
		r.attempted += len(b.samples)
		r.fail(verify(ops, b.samples))
	}
}

// serverCost adds the server-side metrics over a served window.
func serverCost(r *report, srv *server, before time.Duration, values int) error {
	after, err := srv.cpu()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	r.add("server_cpu_us_per_value", "us", float64(after-before)/1e3/float64(values))
	r.add("server_peak_rss_mb", "MB", rss)
	return nil
}

func addLib(r *report, l libResult) {
	r.add("lib_print_ns_per_value", "ns", l.printNs)
	r.add("lib_parse_ns_per_value", "ns", l.parseNs)
	r.add("lib_allocs_per_value", "allocs", l.allocs)
	r.attempted += l.attempted
	r.fail(l.failed, l.why)
}

// stealMeter reports the share of machine CPU time the hypervisor took
// while it ran.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := machineCPU()
	return stealMeter{s, t}
}

func (m stealMeter) percent() float64 {
	s, t := machineCPU()
	return 100 * (s - m.steal) / math.Max(t-m.total, 1)
}

// runInteractive: per round, an open loop at interactiveRate (50% of the
// run in all), a closed loop over nproc connections for capacity (20%),
// and the public API (20%).
func runInteractive(ctx context.Context, seed uint64, dur time.Duration, bin string, conns int) (*report, error) {
	srv, setup, err := launch(bin, serverFlags("interactive")...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ops := genInteractive(seed)
	lib := newLibSingle(ops)
	r := &report{}
	r.add("setup_s", "s", setup)
	before, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	var open, capacity []block
	var lag []float64
	for k := 0; k < rounds; k++ {
		t := time.Now()
		s := openLoop(ctx, srv.base, ops, interactiveRate, dur*50/100/rounds, conns)
		open = append(open, block{s, time.Since(t)})
		for _, x := range s {
			lag = append(lag, float64(x.dispatched-x.due)/1e6)
		}
		s, wall := closedLoop(ctx, srv.base, ops, dur*20/100/rounds, conns)
		capacity = append(capacity, block{s, wall})
		lib.round(dur * 20 / 100 / rounds)
	}
	p50, p99 := latency(open, fromSend)
	r.add("latency_p50_ms", "ms", p50)
	r.add("latency_p99_ms", "ms", p99)
	pr, pa, all := throughput(ops, capacity, conns)
	r.add("capacity_rps", "req/s", all)
	r.add("print_values_per_s", "values/s", pr)
	r.add("parse_values_per_s", "values/s", pa)
	r.add("values_per_s", "values/s", all)
	if err := serverCost(r, srv, before, count(open)+count(capacity)); err != nil {
		return nil, err
	}
	lag = sortedCopy(lag)
	d50, d99 := latency(open, fromDue)
	r50, r99 := latency(open, fromRelease)
	fmt.Printf("open loop: %d requests at %d/s over %d connections; per %v window, from due p50 %.3f ms p99 %.3f ms, from release p50 %.3f ms p99 %.3f ms, from send p50 %.3f ms p99 %.3f ms; generator lag p50 %.3f ms p99 %.3f ms\n",
		count(open), interactiveRate, conns, statWindow, d50, d99, r50, r99, p50, p99, quantile(lag, 0.5), quantile(lag, 0.99))
	fmt.Printf("capacity: %d requests over %d connections in %d blocks; cpu stolen by the hypervisor %.1f%%\n", count(capacity), conns, rounds, steal.percent())
	if l := quantile(lag, 0.99); l > float64(lagBound)/1e6 {
		r.invalid = fmt.Sprintf("generator lag p99 %.2f ms exceeds %v", l, lagBound)
	}
	check(r, ops, open)
	check(r, ops, capacity)
	addLib(r, lib.result())
	return r, nil
}

// runExact: per round, a closed loop over nproc connections (60% of the
// run in all) and the public API (25%).
func runExact(ctx context.Context, seed uint64, dur time.Duration, bin string, conns int) (*report, error) {
	srv, setup, err := launch(bin, serverFlags("exact_path")...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ops := genExact(seed)
	lib := newLibSingle(ops)
	r := &report{}
	r.add("setup_s", "s", setup)
	before, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	var blocks []block
	for k := 0; k < rounds; k++ {
		s, wall := closedLoop(ctx, srv.base, ops, dur*60/100/rounds, conns)
		blocks = append(blocks, block{s, wall})
		lib.round(dur * 25 / 100 / rounds)
	}
	p50, p99 := latency(blocks, fromSend)
	r.add("latency_p50_ms", "ms", p50)
	r.add("latency_p99_ms", "ms", p99)
	pr, pa, all := throughput(ops, blocks, conns)
	r.add("capacity_rps", "req/s", all)
	r.add("print_values_per_s", "values/s", pr)
	r.add("parse_values_per_s", "values/s", pa)
	r.add("values_per_s", "values/s", all)
	if err := serverCost(r, srv, before, count(blocks)); err != nil {
		return nil, err
	}
	fmt.Printf("closed loop: %d requests over %d connections in %d blocks; cpu stolen by the hypervisor %.1f%%\n", count(blocks), conns, rounds, steal.percent())
	check(r, ops, blocks)
	addLib(r, lib.result())
	return r, nil
}

// runBulk: per round, the ETL round trip with one client (55% of the
// run in all) and the public batch API (30%).  Latency percentiles are
// over every request of whole cycles; rates are per block, median over
// blocks.
func runBulk(ctx context.Context, seed uint64, dur time.Duration, bin string) (*report, error) {
	srv, setup, err := launch(bin, serverFlags("bulk")...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	bodies := genBulk(seed)
	expectBodies(bodies)
	lib := newLibBulk(bodies)
	r := &report{}
	r.add("setup_s", "s", setup)
	before, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	var lat, rps, prs, pas, all []float64
	served, n := 0, 0
	for k := 0; k < rounds; k++ {
		reqs, why := bulkLoop(ctx, srv.base, bodies, dur*55/100/rounds)
		var busy, tPrint, tParse, nPrint, nParse float64
		for _, q := range reqs {
			d := q.dur.Seconds()
			busy += d
			ms := math.Inf(1)
			if q.ok {
				ms = d * 1e3
			} else {
				r.failed++
			}
			lat = append(lat, ms)
			if q.parse {
				tParse += d
				if q.ok {
					nParse += float64(q.values)
				}
			} else {
				tPrint += d
				if q.ok {
					nPrint += float64(q.values)
				}
			}
			served += q.values
		}
		r.fail(0, why)
		r.attempted += len(reqs)
		n += len(reqs)
		rps = append(rps, float64(len(reqs))/busy)
		prs = append(prs, nPrint/tPrint)
		pas = append(pas, nParse/tParse)
		all = append(all, (nPrint+nParse)/busy)
		lib.round(dur * 30 / 100 / rounds)
	}
	lat = sortedCopy(lat)
	r.add("latency_p50_ms", "ms", quantile(lat, 0.50))
	r.add("latency_p99_ms", "ms", quantile(lat, 0.99))
	r.add("capacity_rps", "req/s", median(rps))
	r.add("print_values_per_s", "values/s", median(prs))
	r.add("parse_values_per_s", "values/s", median(pas))
	r.add("values_per_s", "values/s", median(all))
	if err := serverCost(r, srv, before, served); err != nil {
		return nil, err
	}
	fmt.Printf("bulk: %d requests in whole cycles of %d bodies (1k–1M values) over %d blocks; cpu stolen by the hypervisor %.1f%%\n",
		n, len(bodies), rounds, steal.percent())
	addLib(r, lib.result())
	return r, nil
}

// sortedCopy returns xs sorted, for order statistics.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median is the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
