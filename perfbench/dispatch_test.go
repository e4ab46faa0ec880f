package main

import (
	"testing"

	"floatprint/internal/schryer"
)

// TestKernelPlansFollowTheLibrary checks that the kernel plan of every
// request is derived from the library's telemetry, and spot-checks what
// the library reports: Ryū for a base-10 shortest, the exact core for
// other bases, the reader for near-halfway parses.
func TestKernelPlansFollowTheLibrary(t *testing.T) {
	for name, gen := range singleWorkloads() {
		for _, o := range finiteOps(gen(testSeeds[0])) {
			if _, err := kernelCall(&o); err != nil {
				t.Fatalf("%s %s: %v", name, o.path, err)
			}
		}
	}
	cases := []struct {
		c    conv
		want plan
	}{
		{conv{kind: kShortest, v: 0.3, base: 10}, plan{kRyu}},
		{conv{kind: kShortest, v: 0.3, base: 3}, plan{kCoreFree}},
		{conv{kind: kShortest, v: -0.3, base: 10, dir: -1}, plan{kRyuAbove}},
		{conv{kind: kParse, text: nearHalfway(0.1, 200, false), base: 10}, plan{kFastParse, kReader}},
		{conv{kind: kParse, text: "ff.8", base: 16}, plan{kReader}},
	}
	for _, tc := range cases {
		got, err := tc.c.derive()
		if err != nil || got != tc.want {
			t.Errorf("%+v: plan %v, %v; want %v", tc.c, got, err, tc.want)
		}
	}
}

// TestValuePlans checks the batch print plans over the Schryer corpus:
// Ryū for every value, followed by the exact core exactly where Ryū
// declines (the corpus's exact-halfway ties).
func TestValuePlans(t *testing.T) {
	plans, err := valuePlans(schryer.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i, p := range plans {
		switch p {
		case plan{kRyu}:
		case plan{kRyu, kCoreFree}:
			ties++
		default:
			t.Fatalf("value %d: plan %v", i, p)
		}
	}
	if ties == 0 {
		t.Error("no value fell back to the exact core; the per-value derivation is untested")
	}
}
