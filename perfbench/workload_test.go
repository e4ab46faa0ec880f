package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"testing"
)

// testSeeds are two seeds every generator test runs on.
var testSeeds = []uint64{1, 20261017}

func singleWorkloads() map[string]func(uint64) []op {
	return map[string]func(uint64) []op{
		"interactive": genInteractive,
		"exact_path":  genExact,
	}
}

// TestURLsDecodeToTheirTokens pins the request encoding: every query
// value is escaped, so the server decodes exactly the token meant.  An
// unescaped '+' in strconv's "1e+300" would decode as a space and draw
// a 400.
func TestURLsDecodeToTheirTokens(t *testing.T) {
	for name, gen := range singleWorkloads() {
		for _, seed := range testSeeds {
			plus := 0
			for _, o := range gen(seed) {
				u, err := url.ParseRequestURI(o.path)
				if err != nil {
					t.Fatalf("%s seed %d: %q: %v", name, seed, o.path, err)
				}
				if u.Path != o.kind.route() {
					t.Fatalf("%s seed %d: %q goes to %s, want %s", name, seed, o.path, u.Path, o.kind.route())
				}
				q := u.Query()
				want := map[string]string{}
				switch o.kind {
				case kShortest, kFixed, kFixedPos:
					want["v"] = o.text
				case kParse, kIntervalParse:
					want["s"] = o.text
				case kIntervalPrint:
					want["lo"], want["hi"] = fmtG(o.lo), fmtG(o.hi)
				}
				for k, w := range want {
					if got := q.Get(k); got != w {
						t.Fatalf("%s seed %d: %q decodes %s=%q, want %q", name, seed, o.path, k, got, w)
					}
					if bytes.ContainsRune([]byte(w), '+') {
						plus++
					}
				}
				if o.kind == kFixed && q.Get("n") != strconv.Itoa(o.n) {
					t.Fatalf("%s: %q decodes n=%q, want %d", name, o.path, q.Get("n"), o.n)
				}
			}
			if name == "interactive" && plus == 0 {
				t.Errorf("%s seed %d: no token with '+'; the escaping is untested", name, seed)
			}
		}
	}
}

// TestSameSeedSameStream pins reproducibility: one seed gives a
// byte-identical request stream, and another seed a different one.
func TestSameSeedSameStream(t *testing.T) {
	digest := func(name string, seed uint64) [32]byte {
		h := sha256.New()
		if name == "bulk" {
			for _, b := range genBulk(seed) {
				h.Write(b.ndjson)
			}
		} else {
			for _, o := range singleWorkloads()[name](seed) {
				fmt.Fprintln(h, o.path)
			}
		}
		var d [32]byte
		copy(d[:], h.Sum(nil))
		return d
	}
	for _, name := range []string{"interactive", "exact_path", "bulk"} {
		a, b := digest(name, testSeeds[0]), digest(name, testSeeds[0])
		if a != b {
			t.Errorf("%s: seed %d gave two different streams", name, testSeeds[0])
		}
		if c := digest(name, testSeeds[1]); c == a {
			t.Errorf("%s: seeds %d and %d gave the same stream", name, testSeeds[0], testSeeds[1])
		}
	}
}

// TestMixDoesNotDependOnSeed pins the workload shape: the count of each
// request kind (and bulk's body sizes) is the same for every seed.
func TestMixDoesNotDependOnSeed(t *testing.T) {
	for name, gen := range singleWorkloads() {
		var mixes []map[string]int
		for _, seed := range testSeeds {
			mix := map[string]int{}
			for _, o := range gen(seed) {
				mix[fmt.Sprintf("%d/%d", o.kind, o.n)]++
			}
			mixes = append(mixes, mix)
		}
		if fmt.Sprint(mixes[0]) != fmt.Sprint(mixes[1]) {
			t.Errorf("%s: mix differs between seeds:\n%v\n%v", name, mixes[0], mixes[1])
		}
	}
	for _, seed := range testSeeds {
		for i, b := range genBulk(seed) {
			if len(b.values) != bulkSizes[i] || bytes.Count(b.ndjson, []byte("\n")) != bulkSizes[i] {
				t.Errorf("bulk seed %d body %d: %d values, want %d", seed, i, len(b.values), bulkSizes[i])
			}
		}
	}
}

// TestExactTokensAreHard checks the exact_path near-halfway generator:
// tokens have the digit counts of their grid and read as the float or
// its successor, so the reader must decide them exactly.
func TestExactTokensAreHard(t *testing.T) {
	for _, nd := range halfwayGrid {
		tok := nearHalfway(0.1, nd, false)
		if got := sigDigits(tok); got > nd || got < nd-1 {
			t.Errorf("nearHalfway(0.1, %d) = %q has %d digits", nd, tok, got)
		}
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatal(err)
		}
		if f != 0.1 && f != math.Nextafter(0.1, 1) {
			t.Errorf("nearHalfway(0.1, %d) = %q reads as %v, not 0.1 or its successor", nd, tok, f)
		}
	}
}

// TestOracleRejectsWrongAnswers makes sure the oracle can fail: a
// correct answer passes, a perturbed one does not.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	for name, gen := range singleWorkloads() {
		ops := gen(testSeeds[0])
		for i := 0; i < 200; i++ {
			o := &ops[i]
			good, err := libText(o, o.options())
			if err != nil {
				t.Fatalf("%s %s: %v", name, o.path, err)
			}
			if err := checkOp(o, good); err != nil {
				t.Fatalf("%s: correct answer rejected: %v", name, err)
			}
			bad := wrongAnswer(o, good)
			if bad == nil {
				continue
			}
			if checkOp(o, bad) == nil {
				t.Errorf("%s %s: wrong answer %q accepted (right: %q)", name, o.path, bad, good)
			}
		}
	}
}

// wrongAnswer perturbs a response into a wrong one, or returns nil when
// the response has no digit to perturb.
func wrongAnswer(o *op, good []byte) []byte {
	bad := append([]byte(nil), good...)
	if o.kind == kIntervalPrint || o.kind == kIntervalParse {
		// Replace the lower endpoint with one far above any request.
		i := bytes.IndexByte(bad, ',')
		if i < 0 || o.base != 10 || bytes.Contains(bad, []byte("Inf")) {
			return nil
		}
		return append([]byte("[9e300"), bad[i:]...)
	}
	for i := len(bad) - 2; i >= 0; i-- {
		c := bad[i]
		if c >= '1' && c <= '8' {
			bad[i] = c + 1
			return bad
		}
	}
	return nil
}
