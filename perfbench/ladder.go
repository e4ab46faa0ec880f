package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"floatprint"
	"floatprint/batch"
	"floatprint/internal/core"
	"floatprint/internal/fastparse"
	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
	"floatprint/internal/ryu"
	"floatprint/serve"
)

// The traced run prices every layer on the workload's own inputs.
//
// Layer rows time each layer's public function in whole passes over
// one matched input set (the strconv rows run the same inputs as a
// reference) and give the per-layer metrics.
//
// Request chains then replay each request at every layer — loopback
// HTTP to fpserved, the serve handler in-process, the batch engine
// (bulk), the public API, the kernel the API dispatches to — each call
// in its own span, linked to the same request's span one layer up.  A span's self time is its duration minus its child's, so
// the self times of one chain add up to its HTTP round trip; comparing
// that with the service time under load shows how much of a workload's
// end-to-end time the layers account for.  Spans stay in memory and
// are written out at the end.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, id, parent, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) dur(id int64) float64 {
	s := t.spans[id-1]
	return float64(s.End - s.Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeRow runs pass once to warm up, then repeatedly for about budget
// (at least three times), and returns the median pass time in ns.
func timeRow(budget time.Duration, pass func()) float64 {
	pass()
	var runs []float64
	start := time.Now()
	for len(runs) < 3 || time.Since(start) < budget {
		t := time.Now()
		pass()
		runs = append(runs, float64(time.Since(t)))
	}
	return median(runs)
}

// step is one layer's call for one request of a chain.
type step struct {
	layer string // http, serve, batch, api or kernel
	name  string
	call  func()
}

// ladderInputs is the matched input set of a workload's traced run.
type ladderInputs struct {
	ops       []op // single-value requests, finite inputs only
	printBody body // values every batch print row converts
	parseBody body // NDJSON every batch parse row reads
	bodies    []body
}

func byKind(ops []op, ks ...kind) []int {
	var idx []int
	for i := range ops {
		for _, k := range ks {
			if ops[i].kind == k {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// finiteOps drops the special-value requests: the ladder's kernels are
// defined on finite nonzero inputs only.  The served phases still send
// and check the specials.
func finiteOps(ops []op) []op {
	var out []op
	for _, o := range ops {
		switch o.kind {
		case kShortest, kFixed, kFixedPos:
			if o.v == 0 || math.IsInf(o.v, 0) || math.IsNaN(o.v) {
				continue
			}
		case kParse:
			if f, err := o.expectedValue(); err != nil || f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				continue
			}
		}
		out = append(out, o)
	}
	return out
}

// deriveOps builds single-value requests from bulk inputs in the
// interactive proportions, so every single-value row has bulk's own
// values and tokens to run on.
func deriveOps(values []float64, tokens []string) []op {
	var ops []op
	for i := 0; i+1 < len(values); i++ {
		v, w := values[i], values[i+1]
		o := op{base: 10}
		switch slot := i % 20; {
		case slot < 8:
			o.kind, o.v, o.text = kShortest, v, fmtG(v)
		case slot < 14:
			o.kind, o.text = kParse, tokens[i]
		case slot < 17:
			o.kind, o.v, o.text, o.n = kFixed, v, fmtG(v), 1+i%8
		case slot < 19:
			o.kind, o.lo, o.hi = kIntervalPrint, math.Min(v, w), math.Max(v, w)
		default:
			a, b := tokens[i], tokens[i+1]
			if v > w {
				a, b = b, a
			}
			o.kind, o.text = kIntervalParse, "["+a+","+b+"]"
		}
		ops = append(ops, o.finish())
	}
	return ops
}

// bodyOf builds a batch body (and its expected responses) from values,
// or from NDJSON tokens when tokens is non-nil.
func bodyOf(values []float64, tokens []string) body {
	var b body
	if tokens == nil {
		b.values = values
		for _, v := range values {
			b.ndjson = append(append(b.ndjson, fmtG(v)...), '\n')
		}
	} else {
		for _, t := range tokens {
			f, _ := strconv.ParseFloat(t, 64)
			b.values = append(b.values, f)
			b.ndjson = append(append(b.ndjson, t...), '\n')
		}
	}
	bs := []body{b}
	expectBodies(bs)
	return bs[0]
}

func buildInputs(workload string, seed uint64) (ladderInputs, error) {
	var in ladderInputs
	var ops []op
	switch workload {
	case "interactive":
		ops = genInteractive(seed)
	case "exact_path":
		ops = genExact(seed)
	case "bulk":
		in.bodies = genBulk(seed)
		expectBodies(in.bodies)
		sample := in.bodies[3] // the 64k-value body
		tokens := strings.Split(strings.TrimSuffix(string(sample.ndjson), "\n"), "\n")
		in.ops = finiteOps(deriveOps(sample.values[:2048], tokens[:2048]))
		in.printBody, in.parseBody = sample, sample
		return in, nil
	default:
		return in, fmt.Errorf("unknown workload %q", workload)
	}
	in.ops = finiteOps(ops)
	var vals []float64
	var toks []string
	for _, o := range in.ops {
		switch o.kind {
		case kShortest, kFixed, kFixedPos:
			vals = append(vals, o.v)
		case kIntervalPrint:
			vals = append(vals, o.lo, o.hi)
		case kParse:
			if o.base == 10 {
				toks = append(toks, o.text)
			}
		}
	}
	in.printBody, in.parseBody = bodyOf(vals, nil), bodyOf(nil, toks)
	return in, nil
}

// inProcess is the serve handler stack, configured as fpserved runs it.
type inProcess struct {
	h http.Handler
}

func newInProcess(workload string) *inProcess {
	sample := 0
	if workload == "interactive" {
		sample = 100
	}
	s := serve.New(serve.Config{
		Addr:        "127.0.0.1:0",
		Logger:      log.New(io.Discard, "", 0),
		Slog:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceSample: sample,
	})
	return &inProcess{h: s.Handler()}
}

func (p *inProcess) do(method, path, ctype string, payload []byte) (int, []byte) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req := httptest.NewRequest(method, path, rd)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// route names as metric name parts.
var routeNames = []struct{ name, path string }{
	{"shortest", "/v1/shortest"},
	{"parse", "/v1/parse"},
	{"fixed", "/v1/fixed"},
	{"interval", "/v1/interval"},
	{"batch", "/v1/batch"},
	{"batch_parse", "/v1/batch-parse"},
}

// runTrace is the traced run of one workload.
func runTrace(ctx context.Context, workload string, seed uint64, dur time.Duration, bin string, conns int, outDir string) (*report, error) {
	in, err := buildInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	r := &report{}
	tr := &tracer{t0: time.Now()}
	srv, _, err := startServer(bin, serverFlags(workload)...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}

	// Load phase, as in the untraced run but shorter: its service time is
	// what the request chains below must account for.
	load := traceLoad(ctx, r, tr, workload, seed, in, srv, dur*15/100, conns)

	rowBudget := dur * 2 / 100
	ip := newInProcess(workload)
	client := newClient(1)
	defer client.CloseIdleConnections()
	checkLadder(ctx, r, in, ip, srv, client)
	kernelRows(r, in, rowBudget)
	apiRows(r, in, rowBudget)
	if err := batchRows(r, in, rowBudget); err != nil {
		return nil, err
	}
	serveRows(r, in, ip, rowBudget)
	httpRows(ctx, r, in, srv, client, rowBudget)

	// Request chains.
	chains, err := singleChains(ctx, in.ops, ip, srv, client)
	if err != nil {
		return nil, err
	}
	if workload == "bulk" {
		bc, err := bodyChains(ctx, in.bodies, ip, srv, client)
		if err != nil {
			return nil, err
		}
		chains = append(chains, bc...)
	}
	tax := runChains(tr, chains)
	nativeLayers := tax.self
	if workload == "bulk" {
		nativeLayers = tax.bodySelf
	}

	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var reqs float64
	for _, rt := range routeNames {
		label := `{route="` + rt.path + `"}`
		n := after["fpserved_request_seconds_count"+label] - before["fpserved_request_seconds_count"+label]
		sum := after["fpserved_request_seconds_sum"+label] - before["fpserved_request_seconds_sum"+label]
		reqs += n
		r.add("fpserved."+rt.name+".server_mean_us", "us", 1e6*sum/math.Max(n, 1))
	}
	r.add("fpserved.gc_cycles_per_kreq", "cycles/kreq", 1e3*(after["fpserved_gc_cycles_total"]-before["fpserved_gc_cycles_total"])/math.Max(reqs, 1))

	// A layer's tax over the one below is its self time.
	r.add("floatprint.tax_over_kernel_ns", "ns", tax.self["api"])
	r.add("serve.tax_over_floatprint_us", "us", tax.self["serve"]/1e3)
	r.add("fpserved.tax_over_serve_us", "us", tax.self["http"]/1e3)
	r.add("trace.overhead_api_ns_per_value", "ns", tax.apiOverhead)
	r.add("trace.overhead_http_us_per_req", "us", tax.httpOverhead/1e3)
	sum := 0.0
	for _, l := range []string{"http", "serve", "batch", "api", "kernel"} {
		r.add("path."+l+"_self_us", "us", nativeLayers[l]/1e3)
		sum += nativeLayers[l]
	}
	r.add("path.chain_us", "us", sum/1e3)
	r.add("path.load_service_us", "us", load.service)
	r.add("path.contention_us", "us", load.service-sum/1e3)
	r.add("path.coverage", "ratio", sum/1e3/load.service)
	r.add("load.latency_p50_ms", "ms", load.p50)
	r.add("load.latency_p99_ms", "ms", load.p99)
	r.add("gen.lag_p50_ms", "ms", quantile(load.lag, 0.5))
	r.add("gen.lag_p99_ms", "ms", quantile(load.lag, 0.99))
	fastRatios(r, in)

	fmt.Printf("layer self times per %s request (us): http %.2f + serve %.2f + batch %.2f + api %.2f + kernel %.2f = chain %.2f; service under load %.2f (contention %.2f)\n",
		workload, nativeLayers["http"]/1e3, nativeLayers["serve"]/1e3, nativeLayers["batch"]/1e3, nativeLayers["api"]/1e3, nativeLayers["kernel"]/1e3, sum/1e3, load.service, load.service-sum/1e3)
	path := filepath.Join(outDir, "spans", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	sortMetrics(r)
	return r, nil
}

// sortMetrics orders the per-layer metrics by name, so the ladder
// prints layer by layer.
func sortMetrics(r *report) {
	sort.SliceStable(r.metrics, func(i, j int) bool { return r.metrics[i].name < r.metrics[j].name })
}

// loadStats is what the traced run's load phase measured.
type loadStats struct {
	service  float64 // mean service time from send, µs
	p50, p99 float64 // latency from send, ms
	lag      []float64
}

// traceLoad runs the workload's load shape briefly, checks it, and
// records each request as a client-side span (with the open loop's
// generator lag as a child).
func traceLoad(ctx context.Context, r *report, tr *tracer, workload string, seed uint64, in ladderInputs, srv *server, dur time.Duration, conns int) loadStats {
	var st loadStats
	if workload == "bulk" {
		reqs, why := bulkLoop(ctx, srv.base, in.bodies, dur)
		var lat []float64
		for i, q := range reqs {
			st.service += float64(q.dur.Nanoseconds()) / 1e3 / float64(len(reqs))
			ms := math.Inf(1)
			if q.ok {
				ms = q.dur.Seconds() * 1e3
			} else {
				r.failed++
			}
			lat = append(lat, ms)
			name := "http.batch"
			if q.parse {
				name = "http.batch_parse"
			}
			tr.record("load."+name, 0, int64(i), q.start, q.start.Add(q.dur))
		}
		r.attempted += len(reqs)
		r.fail(0, why)
		lat = sortedCopy(lat)
		st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
		return st
	}
	var ops []op
	var samples []sample
	t0 := time.Now()
	if workload == "interactive" {
		ops = genInteractive(seed)
		samples = openLoop(ctx, srv.base, ops, interactiveRate, dur, conns)
	} else {
		ops = genExact(seed)
		samples, _ = closedLoop(ctx, srv.base, ops, dur, conns)
	}
	r.attempted += len(samples)
	r.fail(verify(ops, samples))
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	for i, s := range samples {
		st.service += float64(s.done-s.sent) / 1e3 / float64(len(samples))
		route := strings.TrimPrefix(ops[s.op].kind.route(), "/v1/")
		if workload == "interactive" {
			root := tr.record("load.request", 0, int64(i), at(s.due), at(s.done))
			tr.record("gen.lag", root, int64(i), at(s.due), at(s.dispatched))
			tr.record("load.http."+route, root, int64(i), at(s.sent), at(s.done))
			st.lag = append(st.lag, float64(s.dispatched-s.due)/1e6)
		} else {
			tr.record("load.http."+route, 0, int64(i), at(s.sent), at(s.done))
		}
	}
	lat := latencies(samples, fromSend)
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lag = sortedCopy(st.lag)
	return st
}

// checkLadder checks, outside every timed pass, the output of each
// distinct call the layer rows and request chains time: the serve
// handler in-process, fpserved over loopback, the public API and the
// batch engine.  The timed passes repeat the same calls, whose answers
// do not change.  A non-200 status or a wrong output counts as a failed
// operation.
func checkLadder(ctx context.Context, r *report, in ladderInputs, ip *inProcess, srv *server, client *http.Client) {
	check := func(layer, what string, status int, err error, got []byte, verdict func([]byte) error) {
		r.attempted++
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("status %d %q", status, got)
		default:
			err = verdict(got)
		}
		if err != nil {
			r.fail(1, []string{fmt.Sprintf("%s %s: %v", layer, what, err)})
		}
	}
	for i := range in.ops {
		o := &in.ops[i]
		verdict := func(got []byte) error { return checkOp(o, got) }
		code, got := ip.do(http.MethodGet, o.path, "", nil)
		check("serve", o.path, code, nil, got, verdict)
		code, got, err := do(ctx, client, srv.base+o.path)
		check("http", o.path, code, err, got, verdict)
		got, err = libText(o, o.options())
		check("api", o.path, http.StatusOK, err, got, verdict)
	}
	bodies := append([]body{in.printBody, in.parseBody}, in.bodies...)
	pool := batch.New(batch.Config{Sep: []byte{'\n'}})
	for bi := range bodies {
		b := &bodies[bi]
		if len(b.values) == 0 {
			continue
		}
		what := fmt.Sprintf("%d-value body", len(b.values))
		equal := func(want []byte) func([]byte) error {
			return func(got []byte) error {
				if !bytes.Equal(got, want) {
					return fmt.Errorf("%d bytes differ from the %d expected", len(got), len(want))
				}
				return nil
			}
		}
		code, got := ip.do(http.MethodPost, "/v1/batch-parse", "application/x-ndjson", b.ndjson)
		check("serve batch-parse", what, code, nil, got, equal(b.packed))
		code, got = ip.do(http.MethodPost, "/v1/batch", "application/octet-stream", b.packed)
		check("serve batch", what, code, nil, got, equal(b.printed))
		code, got, err := postBody(ctx, client, srv.base+"/v1/batch-parse", "application/x-ndjson", b.ndjson)
		check("http batch-parse", what, code, err, got, equal(b.packed))
		code, got, err = postBody(ctx, client, srv.base+"/v1/batch", "application/octet-stream", b.packed)
		check("http batch", what, code, err, got, equal(b.printed))
		var out bytes.Buffer
		_, err = pool.ParseAll(ctx, bytes.NewReader(b.ndjson), &out)
		check("batch.Pool.ParseAll", what, http.StatusOK, err, out.Bytes(), equal(b.packed))
		out.Reset()
		_, err = pool.WriteAll(ctx, b.values, &out)
		check("batch.Pool.WriteAll", what, http.StatusOK, err, out.Bytes(), equal(b.printed))
	}
}

// kernelRows: the kernels and the strconv reference over matched inputs.
func kernelRows(r *report, in ladderInputs, budget time.Duration) {
	ops := in.ops
	sh := byKind(ops, kShortest)
	pa := byKind(ops, kParse)
	fx := byKind(ops, kFixed, kFixedPos)
	var buf [64]byte
	perValue := func(idx []int, f func(o *op)) float64 {
		return timeRow(budget, func() {
			for _, i := range idx {
				f(&ops[i])
			}
		}) / float64(max(len(idx), 1))
	}
	r.add("strconv.print.ns_per_value", "ns", perValue(sh, func(o *op) { strconv.AppendFloat(buf[:0], o.v, 'g', -1, 64) }))
	r.add("ryu.print.ns_per_value", "ns", perValue(sh, func(o *op) { ryu.ShortestInto(buf[:], math.Abs(o.v)) }))
	r.add("core.print.ns_per_value", "ns", perValue(sh, func(o *op) {
		cm, _, _ := modes(o.mode)
		core.FreeFormat(fpformat.DecodeFloat64(math.Abs(o.v)), o.base, core.ScalingEstimate, cm)
	}))
	r.add("core.fixed.ns_per_value", "ns", perValue(fx, func(o *op) {
		cm, _, _ := modes(o.mode)
		val := fpformat.DecodeFloat64(math.Abs(o.v))
		if o.kind == kFixed {
			core.FixedFormatRelative(val, o.base, cm, o.n)
		} else {
			core.FixedFormat(val, o.base, cm, o.n)
		}
	}))
	r.add("strconv.parse.ns_per_value", "ns", perValue(pa, func(o *op) { strconv.ParseFloat(o.text, 64) }))
	r.add("fastparse.parse.ns_per_value", "ns", perValue(pa, func(o *op) { fastparse.Parse64(o.text) }))
	r.add("reader.parse.ns_per_value", "ns", perValue(pa, func(o *op) {
		_, rm, _ := modes(o.mode)
		reader.Parse(o.text, o.base, fpformat.Binary64, rm)
	}))
	blob := in.parseBody.ndjson
	r.add("fastparse.block.mb_per_s", "MB/s", float64(len(blob))/timeRow(budget, func() { blockScan(blob, nil) })*1e3)
}

// blockScan runs the fused block scanner over data and hands each
// token it declines to declined (nil skips them).
func blockScan(data []byte, declined func(tok []byte)) int {
	n := 0
	for i := 0; i < len(data); {
		for i < len(data) && fastparse.IsSep(data[i]) {
			i++
		}
		if i >= len(data) {
			break
		}
		if _, k, ok := fastparse.ParseToken64(data[i:]); ok {
			i += k
			n++
			continue
		}
		start := i
		for i < len(data) && !fastparse.IsSep(data[i]) {
			i++
		}
		if declined != nil {
			declined(data[start:i])
		}
	}
	return n
}

// apiRows: the public API (floatprint and interval) per kind.
func apiRows(r *report, in ladderInputs, budget time.Duration) {
	ops := in.ops
	opts := make([]*floatprint.Options, len(ops))
	for i := range ops {
		opts[i] = ops[i].options()
	}
	buf := make([]byte, 0, 1024)
	for _, row := range []struct {
		name   string
		kinds  []kind
		allocs bool
	}{
		{"floatprint.shortest", []kind{kShortest}, true},
		{"floatprint.parse", []kind{kParse}, true},
		{"floatprint.fixed", []kind{kFixed, kFixedPos}, true},
		{"interval.print", []kind{kIntervalPrint}, false},
		{"interval.parse", []kind{kIntervalParse}, false},
	} {
		idx := byKind(ops, row.kinds...)
		pass := func() {
			for _, i := range idx {
				buf = libCall(&ops[i], opts[i], buf[:0])
			}
		}
		n := float64(max(len(idx), 1))
		r.add(row.name+".ns_per_value", "ns", timeRow(budget, pass)/n)
		if row.allocs {
			r.add(row.name+".allocs_per_value", "allocs", allocsPer(pass, int(n)))
		}
	}
}

// batchRows: the batch engine as the server configures it.  The kernel
// pass runs, per value, the kernels the library reports for it, sharded
// over the pool's workers as WriteAll spreads the values.
func batchRows(r *report, in ladderInputs, budget time.Duration) error {
	pool := batch.New(batch.Config{Sep: []byte{'\n'}})
	ctx := context.Background()
	vals := in.printBody.values
	blob := in.parseBody.ndjson
	plans, err := valuePlans(vals)
	if err != nil {
		return err
	}
	wa := timeRow(budget, func() { pool.WriteAll(ctx, vals, io.Discard) })
	shards, n := pool.Shards(), len(vals)
	kern := timeRow(budget, func() {
		sharded(shards, func(s int) {
			lo, hi := n*s/shards, n*(s+1)/shards
			runValues(vals[lo:hi], plans[lo:hi])
		})
	})
	pa := timeRow(budget, func() { pool.ParseAll(ctx, bytes.NewReader(blob), io.Discard) })
	nv := float64(max(n, 1))
	r.add("batch.write_all.values_per_s", "values/s", nv/wa*1e9)
	r.add("batch.parse_all.mb_per_s", "MB/s", float64(len(blob))/pa*1e3)
	r.add("batch.tax_over_kernel_ns", "ns", (wa-kern)/nv)
	return nil
}

// serveRows: the handler stack in-process, per route.
func serveRows(r *report, in ladderInputs, ip *inProcess, budget time.Duration) {
	prev := floatprint.SetStatsEnabled(true) // fpserved's default
	defer floatprint.SetStatsEnabled(prev)
	for _, rt := range routeNames {
		pass, n := servePass(in, rt.path, func(method, path, ctype string, payload []byte) {
			ip.do(method, path, ctype, payload)
		})
		bare, _ := servePass(in, rt.path, func(method, path, ctype string, payload []byte) {
			var rd io.Reader
			if payload != nil {
				rd = bytes.NewReader(payload)
			}
			httptest.NewRequest(method, path, rd)
			httptest.NewRecorder()
		})
		r.add("serve."+rt.name+".us_per_req", "us", timeRow(budget, pass)/float64(n)/1e3)
		// The request and recorder the benchmark builds are not the
		// handler's allocations.
		r.add("serve."+rt.name+".allocs_per_req", "allocs", allocsPer(pass, n)-allocsPer(bare, n))
	}
}

// servePass returns a pass that sends every request of one route
// through send, and the number of requests in it.  Batch routes send
// the workload's print body (packed, as the bulk round trip does) or
// parse body once per pass.
func servePass(in ladderInputs, route string, send func(method, path, ctype string, payload []byte)) (func(), int) {
	switch route {
	case "/v1/batch":
		return func() { send(http.MethodPost, route, "application/octet-stream", in.printBody.packed) }, 1
	case "/v1/batch-parse":
		return func() { send(http.MethodPost, route, "application/x-ndjson", in.parseBody.ndjson) }, 1
	}
	var paths []string
	for _, o := range in.ops {
		if o.kind.route() == route {
			paths = append(paths, o.path)
		}
	}
	return func() {
		for _, p := range paths {
			send(http.MethodGet, p, "", nil)
		}
	}, max(len(paths), 1)
}

// httpRows: loopback requests to fpserved, one connection, one at a
// time; the median per-request service time per route.  checkLadder
// has checked each request's answer.
func httpRows(ctx context.Context, r *report, in ladderInputs, srv *server, client *http.Client, budget time.Duration) {
	for _, rt := range routeNames {
		var lat []float64
		pass, _ := servePass(in, rt.path, func(method, path, ctype string, payload []byte) {
			t := time.Now()
			if method == http.MethodGet {
				do(ctx, client, srv.base+path)
			} else {
				postBody(ctx, client, srv.base+path, ctype, payload)
			}
			lat = append(lat, float64(time.Since(t)))
		})
		timeRow(budget, pass)
		r.add("fpserved."+rt.name+".service_ms", "ms", median(lat)/1e6)
	}
}

// chain is one request's call into each layer, outermost first.
type chain struct {
	steps []step
	body  bool // a bulk body rather than a single value
}

// singleChains builds the request chains of the single-value ops.
func singleChains(ctx context.Context, ops []op, ip *inProcess, srv *server, client *http.Client) ([]chain, error) {
	var out []chain
	buf := make([]byte, 0, 1024)
	for i := range ops {
		o := &ops[i]
		opts := o.options()
		route := strings.TrimPrefix(o.kind.route(), "/v1/")
		api := "floatprint"
		if o.kind == kIntervalPrint || o.kind == kIntervalParse {
			api = "interval"
		}
		kernel, err := kernelCall(o)
		if err != nil {
			return nil, err
		}
		out = append(out, chain{steps: []step{
			{"http", "http." + route, func() { do(ctx, client, srv.base+o.path) }},
			{"serve", "serve." + route, func() { ip.do(http.MethodGet, o.path, "", nil) }},
			{"api", api, func() { buf = libCall(o, opts, buf[:0]) }},
			{"kernel", "kernel", kernel},
		}})
	}
	return out, nil
}

// bodyChains builds the request chains of the bulk round trip: every
// body of one cycle, parse then print.  Below the batch engine, the API
// and kernel layers run sharded the way batch.Pool spreads a body over
// GOMAXPROCS workers, so each layer's span covers the same parallel
// work as the layer above it.  The kernel layer runs the kernels the
// library reports for each value: the block scanner, with the per-value
// parser's kernels for the tokens it declines, and each value's print
// kernels.
func bodyChains(ctx context.Context, bodies []body, ip *inProcess, srv *server, client *http.Client) ([]chain, error) {
	pool := batch.New(batch.Config{Sep: []byte{'\n'}})
	shards := pool.Shards()
	var out []chain
	for bi := range bodies {
		b := &bodies[bi]
		pieces := splitLines(b.ndjson, shards)
		plans, cs, err := parseFallbacks(b.ndjson)
		if err != nil {
			return nil, err
		}
		out = append(out, chain{body: true, steps: []step{
			{"http", "http.batch_parse", func() {
				postBody(ctx, client, srv.base+"/v1/batch-parse", "application/x-ndjson", b.ndjson)
			}},
			{"serve", "serve.batch_parse", func() { ip.do(http.MethodPost, "/v1/batch-parse", "application/x-ndjson", b.ndjson) }},
			{"batch", "batch.parse_all", func() { pool.ParseAll(ctx, bytes.NewReader(b.ndjson), io.Discard) }},
			{"api", "floatprint.parse_batch", func() {
				sharded(len(pieces), func(s int) { floatprint.ParseBatch(pieces[s]) })
			}},
			{"kernel", "fastparse.block", func() {
				sharded(len(pieces), func(s int) {
					var buf [ryu.BufLen]byte
					blockScan(pieces[s], func(tok []byte) {
						cs[string(tok)].run(plans[string(tok)], buf[:])
					})
				})
			}},
		}})
		n := len(b.values)
		vplans, err := valuePlans(b.values)
		if err != nil {
			return nil, err
		}
		out = append(out, chain{body: true, steps: []step{
			{"http", "http.batch", func() {
				postBody(ctx, client, srv.base+"/v1/batch", "application/octet-stream", b.packed)
			}},
			{"serve", "serve.batch", func() { ip.do(http.MethodPost, "/v1/batch", "application/octet-stream", b.packed) }},
			{"batch", "batch.write_all", func() { pool.WriteAll(ctx, b.values, io.Discard) }},
			{"api", "floatprint.append_shortest", func() {
				sharded(shards, func(s int) {
					buf := make([]byte, 0, 32)
					for _, v := range b.values[n*s/shards : n*(s+1)/shards] {
						buf = floatprint.AppendShortest(buf[:0], v)
					}
				})
			}},
			{"kernel", "print_kernels", func() {
				sharded(shards, func(s int) {
					lo, hi := n*s/shards, n*(s+1)/shards
					runValues(b.values[lo:hi], vplans[lo:hi])
				})
			}},
		}})
	}
	return out, nil
}

// sharded runs f(0..n-1) on n goroutines and waits for them.
func sharded(n int, f func(shard int)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(s)
		}()
	}
	wg.Wait()
}

// splitLines cuts NDJSON into n pieces at line ends.
func splitLines(data []byte, n int) [][]byte {
	var out [][]byte
	for s := n; s > 0; s-- {
		cut := len(data) / s
		for cut < len(data) && cut > 0 && data[cut-1] != '\n' {
			cut++
		}
		out = append(out, data[:cut])
		data = data[cut:]
	}
	return out
}

// chainTax is what the request chains measured, in ns per request.
type chainTax struct {
	self         map[string]float64 // mean self time per single-value request, by layer
	bodySelf     map[string]float64 // the same per bulk request
	apiOverhead  float64            // traced minus untraced api pass, per call
	httpOverhead float64            // traced minus untraced http pass, per call
}

// chainReps is how often each request is replayed at each layer; the
// fastest call of each layer is the one its span records, so a stall
// from outside the benchmark does not land in one layer's self time.
const chainReps = 3

// runChains replays every chain: for each request, layer by layer from
// the innermost, each layer's call chainReps times in a row, keeping
// the fastest as the layer's span, parented to the same request's span
// one layer up.
func runChains(tr *tracer, chains []chain) chainTax {
	prev := floatprint.SetStatsEnabled(false)
	defer floatprint.SetStatsEnabled(prev)
	tax := chainTax{self: map[string]float64{}, bodySelf: map[string]float64{}}
	var nSingle, nBody float64
	for ci, c := range chains {
		best := make([][2]time.Time, len(c.steps))
		for level := len(c.steps) - 1; level >= 0; level-- {
			for rep := 0; rep < chainReps; rep++ {
				s := time.Now()
				c.steps[level].call()
				e := time.Now()
				if rep == 0 || e.Sub(s) < best[level][1].Sub(best[level][0]) {
					best[level] = [2]time.Time{s, e}
				}
			}
		}
		self := tax.self
		if c.body {
			self, nBody = tax.bodySelf, nBody+1
		} else {
			nSingle++
		}
		var parent int64
		for level, st := range c.steps {
			parent = tr.record(st.name, parent, int64(ci), best[level][0], best[level][1])
			d := float64(best[level][1].Sub(best[level][0]))
			if level+1 < len(c.steps) {
				d -= float64(best[level+1][1].Sub(best[level+1][0]))
			}
			self[st.layer] += d
		}
	}
	for l := range tax.self {
		tax.self[l] /= math.Max(nSingle, 1)
	}
	for l := range tax.bodySelf {
		tax.bodySelf[l] /= math.Max(nBody, 1)
	}
	tax.apiOverhead = spanOverhead(chains, "api")
	tax.httpOverhead = spanOverhead(chains, "http")
	return tax
}

// spanOverhead is the tracing overhead per call at one layer of the
// single-value chains: a pass with a span per call minus a pass with one
// clock pair for the whole pass, each the fastest of chainReps.
func spanOverhead(chains []chain, layer string) float64 {
	var calls []func()
	for _, c := range chains {
		for _, st := range c.steps {
			if !c.body && st.layer == layer {
				calls = append(calls, st.call)
			}
		}
	}
	if len(calls) == 0 {
		return 0
	}
	scratch := &tracer{t0: time.Now()}
	untraced, traced := math.Inf(1), math.Inf(1)
	for rep := 0; rep < chainReps; rep++ {
		t := time.Now()
		for _, f := range calls {
			f()
		}
		untraced = math.Min(untraced, float64(time.Since(t)))
		scratch.spans = scratch.spans[:0]
		t = time.Now()
		for i, f := range calls {
			s := time.Now()
			f()
			scratch.record(layer, 0, int64(i), s, time.Now())
		}
		traced = math.Min(traced, float64(time.Since(t)))
	}
	return (traced - untraced) / float64(len(calls))
}

// fastRatios counts, from floatprint.Snapshot deltas over one pass of
// the public API, the share of conversions a fast kernel decided.
func fastRatios(r *report, in ladderInputs) {
	prev := floatprint.SetStatsEnabled(true)
	s0 := floatprint.Snapshot()
	buf := make([]byte, 0, 1024)
	for i := range in.ops {
		buf = libCall(&in.ops[i], in.ops[i].options(), buf[:0])
	}
	floatprint.BatchShortest(in.printBody.values)
	floatprint.ParseBatch(in.parseBody.ndjson)
	d := floatprint.Snapshot().Sub(s0)
	floatprint.SetStatsEnabled(prev)
	printFast := float64(d.RyuHits + d.GrisuHits + d.GayHits + d.DirectedRyuHits)
	parseFast := float64(d.ParseFastHits + d.DirectedFastHits + d.BatchParseValues - d.BatchParseFallbacks)
	r.add("floatprint.print_fast_ratio", "ratio", printFast/math.Max(printFast+float64(d.ExactFree+d.ExactFixed), 1))
	r.add("floatprint.parse_fast_ratio", "ratio", parseFast/math.Max(parseFast+float64(d.ParseExact), 1))
}
