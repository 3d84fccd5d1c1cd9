package liveness

import (
	"testing"

	"tmcheck/internal/explore"
	"tmcheck/internal/tm"
)

// The general Streett engine and the probe-schedule checks must agree
// on every property of every system we can build.
func TestStreettBackendAgreesWithLoopSearch(t *testing.T) {
	var systems []System
	for _, name := range []string{"seq", "2pl", "dstm", "tl2", "norec", "etl"} {
		for _, cmName := range []string{"", "aggressive", "polite", "karma", "timid"} {
			alg, err := tm.NewAlgorithm(name, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := tm.NewContentionManager(cmName)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, System{Alg: alg, CM: cm})
		}
	}
	for _, sys := range systems {
		ts := explore.Build(sys.Alg, sys.CM)
		for _, p := range Props {
			loop, str := checkTS(ts, p), CheckStreett(ts, p)
			if loop.Holds != str.Holds {
				t.Errorf("%s: %v loop=%v streett=%v", ts.Name(), p, loop.Holds, str.Holds)
			}
			if str.Holds {
				continue
			}
			// Witnesses from the Streett engine must have the right shape.
			switch p {
			case ObstructionFreedom:
				validateObstructionLoop(t, ts.Name(), str)
			case LivelockFreedom:
				validateLivelockLoop(t, ts.Name(), str)
			case WaitFreedom:
				validateWaitLoop(t, ts.Name(), str)
			}
		}
	}
}

func validateObstructionLoop(t *testing.T, name string, res Result) {
	t.Helper()
	if len(res.Loop) == 0 {
		t.Errorf("%s: empty obstruction loop", name)
		return
	}
	th := res.Loop[0].T
	hasAbort := false
	for _, e := range res.Loop {
		if e.T != th {
			t.Errorf("%s: obstruction loop mixes threads: %q", name, explore.FormatRun(res.Loop))
			return
		}
		if e.X.Kind == tm.XCommit {
			t.Errorf("%s: obstruction loop has a commit", name)
		}
		if e.X.Kind == tm.XAbort {
			hasAbort = true
		}
	}
	if !hasAbort {
		t.Errorf("%s: obstruction loop lacks an abort", name)
	}
}

func validateLivelockLoop(t *testing.T, name string, res Result) {
	t.Helper()
	if len(res.Loop) == 0 {
		t.Errorf("%s: empty livelock loop", name)
		return
	}
	stmts := map[int]bool{}
	aborts := map[int]bool{}
	for _, e := range res.Loop {
		if e.X.Kind == tm.XCommit {
			t.Errorf("%s: livelock loop has a commit", name)
		}
		stmts[int(e.T)] = true
		if e.X.Kind == tm.XAbort {
			aborts[int(e.T)] = true
		}
	}
	for th := range stmts {
		if !aborts[th] {
			t.Errorf("%s: thread %d participates without aborting: %q",
				name, th+1, explore.FormatRun(res.Loop))
		}
	}
}

func validateWaitLoop(t *testing.T, name string, res Result) {
	t.Helper()
	aborts := map[int]bool{}
	commits := map[int]bool{}
	for _, e := range res.Loop {
		switch e.X.Kind {
		case tm.XAbort:
			aborts[int(e.T)] = true
		case tm.XCommit:
			commits[int(e.T)] = true
		}
	}
	for th := range aborts {
		if !commits[th] {
			return
		}
	}
	t.Errorf("%s: wait loop has no thread that aborts without committing: %q",
		name, explore.FormatRun(res.Loop))
}

// Agreement must also hold at (2,2) and (3,1), where the graphs are larger
// and the subset-enumeration shortcut of the loop search differs most from
// the polynomial Streett decomposition.
func TestStreettBackendLargerInstances(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 1}} {
		for _, sys := range PaperSystems(dims[0], dims[1]) {
			ts := explore.Build(sys.Alg, sys.CM)
			for _, p := range []Prop{ObstructionFreedom, LivelockFreedom} {
				if a, b := checkTS(ts, p), CheckStreett(ts, p); a.Holds != b.Holds {
					t.Errorf("%s at %v: %v loop=%v streett=%v", ts.Name(), dims, p, a.Holds, b.Holds)
				}
			}
		}
	}
}
