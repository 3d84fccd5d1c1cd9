package safety

import (
	"reflect"
	"testing"

	"tmcheck/internal/parbfs"
)

// TestTable2ParallelMatchesSequential runs the materialized table with
// parallel builds and spec enumerations and checks the rows — verdicts,
// sizes, and counterexamples — against a one-worker run.
func TestTable2ParallelMatchesSequential(t *testing.T) {
	systems := PaperSystems(2, 1)
	seq := Table2(systems, Options{Workers: 1})
	par := Table2(systems, Options{Workers: 4})
	if len(par) != len(seq) {
		t.Fatalf("row count: parallel %d, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		for _, c := range []struct {
			name     string
			seq, par Result
		}{
			{"ss", seq[i].SS, par[i].SS},
			{"op", seq[i].OP, par[i].OP},
		} {
			if c.par.Holds != c.seq.Holds || c.par.TMStates != c.seq.TMStates ||
				c.par.SpecStates != c.seq.SpecStates {
				t.Errorf("row %d %s: parallel (%v,%d,%d) != sequential (%v,%d,%d)",
					i, c.name, c.par.Holds, c.par.TMStates, c.par.SpecStates,
					c.seq.Holds, c.seq.TMStates, c.seq.SpecStates)
			}
			if !reflect.DeepEqual(c.par.Counterexample, c.seq.Counterexample) {
				t.Errorf("row %d %s: counterexamples diverge:\n  sequential: %v\n  parallel:   %v",
					i, c.name, c.seq.Counterexample, c.par.Counterexample)
			}
		}
	}
}

// TestTable2DispatchesOnWorkerCount checks that an unset
// Options.Workers takes the process-wide worker count, in both engines,
// and that a multi-worker setting still returns the one-worker rows.
func TestTable2DispatchesOnWorkerCount(t *testing.T) {
	defer parbfs.SetWorkers(0)
	systems := PaperSystems(2, 1)
	for _, engine := range []Engine{EngineOnTheFly, EngineMaterialized} {
		parbfs.SetWorkers(1)
		seq := Table2(systems, Options{Engine: engine})
		parbfs.SetWorkers(3)
		par := Table2(systems, Options{Engine: engine})
		for i := range seq {
			if par[i].SS.Holds != seq[i].SS.Holds || par[i].OP.Holds != seq[i].OP.Holds {
				t.Fatalf("engine %v row %d: verdicts diverge between worker counts", engine, i)
			}
		}
	}
}
