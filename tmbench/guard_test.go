package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"tmcheck/internal/job"
)

// TestDeterminismGuard runs every small check of the workloads twice in
// a row and compares its verdict and work counts with the pins.
func TestDeterminismGuard(t *testing.T) {
	var specs []job.Spec
	for _, pool := range []func() []job.Spec{otfPool, matPool} {
		for _, sp := range pool() {
			if sp.Vars <= 2 {
				specs = append(specs, sp)
			}
		}
	}
	specs = append(specs,
		job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive", Threads: 2, Vars: 1, Workers: 1},
		job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 2, Vars: 1, Workers: 1})
	o := newOracle(false)
	for round := 0; round < 2; round++ {
		for _, sp := range specs {
			sp.Normalize()
			res, err := job.Run(context.Background(), sp)
			o.job(specName(sp), verdictsOf(res), err)
		}
	}
	if o.failed > 0 {
		t.Fatalf("%d of %d jobs missed:\n%s", o.failed, o.attempted, strings.Join(o.misses, "\n"))
	}
}

// TestServiceTraceTwice runs the traced service workload twice; each
// run checks its per-layer totals against the pins and exits non-zero
// on any miss.
func TestServiceTraceTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process daemon")
	}
	for i := 0; i < 2; i++ {
		args := []string{"--workload", "service-snap", "--seed", "7", "--seconds", "0.5", "--trace", "1", "--dir", t.TempDir()}
		if code := run(args, io.Discard); code != 0 {
			t.Fatalf("run %d exited %d", i+1, code)
		}
	}
}
