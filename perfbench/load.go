package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one single-value request as the client saw it.  Times are
// nanoseconds from the phase start; due and dispatched are set only in
// the open loop.
type sample struct {
	op         int32 // index into the op pool
	due        int64
	dispatched int64
	sent       int64
	done       int64
	status     int
	body       []byte
	err        error
}

// do sends one GET and reads the whole response.
func do(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openLoop sends rate requests per second for dur, cycling through ops,
// from a schedule fixed in advance: request j is due at j/rate whether
// or not earlier requests have finished, so a stall shows up in the
// latency of every request due during it.  One dispatcher hands due
// requests to conns workers, each holding one keep-alive connection.
// The dispatcher never sleeps less than 1 ms (shorter sleeps overshoot
// by about a millisecond), so it releases requests in small batches;
// how late it released each one is reported as generator lag.
func openLoop(ctx context.Context, base string, ops []op, rate int, dur time.Duration, conns int) []sample {
	total := int(int64(rate) * int64(dur) / int64(time.Second))
	out := make([]sample, total)
	jobs := make(chan int, total) // sized to the number of sends: the dispatcher never blocks
	client := newClient(conns)
	defer client.CloseIdleConnections()
	due := func(j int) int64 { return int64(j) * int64(time.Second) / int64(rate) }

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := &out[j]
				o := &ops[j%len(ops)]
				s.sent = int64(time.Since(start))
				s.status, s.body, s.err = do(ctx, client, base+o.path)
				s.done = int64(time.Since(start))
			}
		}()
	}
	for j := 0; j < total; {
		now := int64(time.Since(start))
		for ; j < total && due(j) <= now; j++ {
			out[j].op, out[j].due, out[j].dispatched = int32(j%len(ops)), due(j), now
			jobs <- j
		}
		if j == total {
			break
		}
		wait := time.Duration(due(j) - now)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs conns clients, each sending its next request as soon
// as the previous one completes, cycling through ops in order, until
// dur has passed.  It returns the samples and the wall time the phase
// took.
func closedLoop(ctx context.Context, base string, ops []op, dur time.Duration, conns int) ([]sample, time.Duration) {
	client := newClient(conns)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	per := make([][]sample, conns)
	start := time.Now()
	deadline := int64(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				now := int64(time.Since(start))
				if now >= deadline {
					return
				}
				s := sample{op: int32(j % len(ops)), sent: now}
				s.status, s.body, s.err = do(ctx, client, base+ops[s.op].path)
				s.done = int64(time.Since(start))
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}

// verify checks every sample against the oracle, outside any timed
// window.  Expected answers are computed once per distinct op.  It
// returns the number of failed requests and the first few reasons.
func verify(ops []op, samples []sample) (int, []string) {
	good := make([][]byte, len(ops)) // a checked response per op, once one passes
	failed := 0
	var why []string
	fail := func(msg string) {
		failed++
		if len(why) < 5 {
			why = append(why, msg)
		}
	}
	for i := range samples {
		s := &samples[i]
		switch {
		case s.err != nil:
			fail(fmt.Sprintf("transport: %v", s.err))
			continue
		case s.status != http.StatusOK:
			fail(fmt.Sprintf("%s: status %d %q", ops[s.op].path, s.status, s.body))
			continue
		}
		if good[s.op] != nil && bytes.Equal(good[s.op], s.body) {
			continue
		}
		if err := checkOp(&ops[s.op], s.body); err != nil {
			fail(err.Error())
			continue
		}
		good[s.op] = s.body
	}
	return failed, why
}

// postBody sends one bulk request and reads the whole response.
func postBody(ctx context.Context, client *http.Client, url, ctype string, payload []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// bulkRequest is one bulk request as the client saw it.
type bulkRequest struct {
	parse  bool // /v1/batch-parse rather than /v1/batch
	values int
	start  time.Time
	dur    time.Duration
	ok     bool
}

// bulkLoop runs the ETL round trip with one client: NDJSON body →
// /v1/batch-parse → packed float64s → /v1/batch (binary) → NDJSON,
// checking each reply against the body's expected bytes between
// requests.  Only whole cycles through bulkSizes run; the loop stops at
// the first cycle boundary after dur.  A failed parse skips its print.
func bulkLoop(ctx context.Context, base string, bodies []body, dur time.Duration) ([]bulkRequest, []string) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	var out []bulkRequest
	var why []string
	note := func(msg string) {
		if len(why) < 5 {
			why = append(why, msg)
		}
	}
	start := time.Now()
	for time.Since(start) < dur {
		for bi := range bodies {
			b := &bodies[bi]
			t := time.Now()
			st, resp, err := postBody(ctx, client, base+"/v1/batch-parse", "application/x-ndjson", b.ndjson)
			r := bulkRequest{parse: true, values: len(b.values), start: t, dur: time.Since(t)}
			r.ok = err == nil && st == http.StatusOK && bytes.Equal(resp, b.packed)
			out = append(out, r)
			if !r.ok {
				note(fmt.Sprintf("batch-parse of %d values: status %d, err %v, %d bytes", len(b.values), st, err, len(resp)))
				out = append(out, bulkRequest{values: len(b.values), start: time.Now()})
				continue
			}
			t = time.Now()
			st, resp, err = postBody(ctx, client, base+"/v1/batch", "application/octet-stream", resp)
			r = bulkRequest{values: len(b.values), start: t, dur: time.Since(t)}
			r.ok = err == nil && st == http.StatusOK && bytes.Equal(resp, b.printed)
			out = append(out, r)
			if !r.ok {
				note(fmt.Sprintf("batch of %d values: status %d, err %v, %d bytes", len(b.values), st, err, len(resp)))
			}
		}
	}
	return out, why
}
