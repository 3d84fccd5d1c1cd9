package safety

import (
	"errors"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Table2 reproduces the paper's Table 2 on the given systems with
// opts.Engine: for each, the transition-system size and the verdicts
// for strict serializability and opacity with counterexamples.
//
// The driver keeps going: every check runs under the options' context
// and budgets, and a check that hits a limit — or panics inside the TM
// algorithm — yields a Result whose Limit field carries the
// *guard.LimitError instead of aborting the table. The remaining
// checks still run, so one oversized or broken system costs its own
// rows and nothing else.
//
// The on-the-fly engine fans the rows out over the worker pool, each
// check running the sequential search, so rows are bit-identical for
// every worker count — including the early-exit sizes of failing
// rows. The materialized engine runs the rows in
// order, spending the workers inside each build, with one TM build per
// row and one specification automaton per (prop, n, k).
func Table2(systems []System, opts Options) []Table2Row {
	if opts.Engine == EngineOnTheFly {
		return table2OnTheFly(systems, opts)
	}
	return table2Materialized(systems, opts)
}

// table2OnTheFly runs the rows through parbfs.For, which runs them
// inline at one worker. The obs phase stack assumes a single-threaded
// spine, so per-check phases open only when the rows run inline.
func table2OnTheFly(systems []System, opts Options) []Table2Row {
	workers := opts.workers()
	inline := workers <= 1 || len(systems) <= 1
	if !inline && !opts.NoPhases {
		done := obs.Phase("safety:table2-onthefly-parallel")
		defer done()
	}
	phase := inline && !opts.NoPhases
	rows := make([]Table2Row, len(systems))
	parbfs.For(len(systems), workers, func(i int) {
		sys := systems[i]
		check := func(prop spec.Property) Result {
			return resilientCheck(func() (Result, error) {
				return checkOnTheFly(sys.Alg, sys.CM, prop, opts.guard(), phase)
			}, sys.Alg, sys.CM, prop, EngineOnTheFly)
		}
		rows[i] = Table2Row{SS: check(spec.StrictSerializability), OP: check(spec.Opacity)}
	})
	return rows
}

// table2Materialized runs the stages of verifyMaterialized row by row:
// one TM build serves both properties, and a specification automaton
// enumerated for one row is reused by later rows of the same (n, k).
// Each check's state budget is charged exactly as a standalone
// VerifyOpts check charges it: TM states, then spec states, then
// inclusion pairs.
func table2Materialized(systems []System, opts Options) []Table2Row {
	workers := opts.workers()
	pf := func(name string) func() {
		if opts.NoPhases {
			return func() {}
		}
		return obs.Phase(name)
	}
	type dfaKey struct {
		prop spec.Property
		n, k int
	}
	dfas := map[dfaKey]*automata.DFA{}
	rows := make([]Table2Row, 0, len(systems))
	for _, sys := range systems {
		doneSys := pf("safety:" + systemName(sys.Alg, sys.CM))
		g := opts.guard()
		doneBuild := pf("build-tm")
		buildStart := time.Now()
		ts, buildErr := explore.BuildProviderGuarded(sys.Alg, sys.CM, workers, g, opts.Persist)
		buildElapsed := time.Since(buildStart)
		doneBuild()
		check := func(prop spec.Property) Result {
			return resilientCheck(func() (Result, error) {
				if buildErr != nil {
					return Result{}, buildErr
				}
				key := dfaKey{prop, sys.Alg.Threads(), sys.Alg.Vars()}
				dfa, specElapsed := dfas[key], time.Duration(0)
				// A shared automaton is reused only when it fits the
				// budget this row's TM left; otherwise enumerating it
				// again reports the limit a standalone check would.
				if budget := g.MaxStates(); dfa == nil || (budget > 0 && ts.NumStates()+dfa.NumStates() > budget) {
					done := pf("build-spec:" + prop.Key())
					var err error
					dfa, specElapsed, err = enumerateSpec(prop, key.n, key.k, workers, g, ts.NumStates())
					done()
					if err != nil {
						return Result{}, err
					}
					dfas[key] = dfa
				}
				res, err := include(ts, prop, dfa, g, !opts.NoPhases)
				res.BuildSpecElapsed = specElapsed
				return res, err
			}, sys.Alg, sys.CM, prop, EngineMaterialized)
		}
		row := Table2Row{SS: check(spec.StrictSerializability), OP: check(spec.Opacity)}
		row.SS.BuildTMElapsed = buildElapsed
		rows = append(rows, row)
		doneSys()
	}
	return rows
}

// resilientCheck runs one guarded check and converts a limit into a
// Limit-carrying Result. Every error on the table paths is a
// *guard.LimitError already; anything else (defensively) is reported
// as an isolated panic.
func resilientCheck(run func() (Result, error), alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, engine Engine) Result {
	start := time.Now()
	res, err := run()
	if err != nil {
		var le *guard.LimitError
		if !errors.As(err, &le) {
			le = &guard.LimitError{Kind: guard.KindPanic, Value: err}
		}
		res = Result{
			System:   systemName(alg, cm),
			Prop:     prop,
			Threads:  alg.Threads(),
			Vars:     alg.Vars(),
			TMStates: le.Visited,
			Elapsed:  time.Since(start),
			Engine:   engine,
			Limit:    le,
		}
	}
	recordDriverRow(res)
	return res
}

// recordDriverRow writes one keep-going check's vitals under
// "driver.table2.<system>.<prop>.*": a limit_<label> counter when the
// check was stopped, plus its elapsed time and the states it reached.
func recordDriverRow(r Result) {
	if !obs.Enabled() {
		return
	}
	key := "driver.table2." + r.System + "." + r.Prop.Key()
	if r.Limit != nil {
		obs.Inc(key+".limit_"+r.Limit.Kind.Label(), 1)
	} else {
		obs.Inc(key+".completed", 1)
	}
	obs.SetGauge(key+".states", int64(r.TMStates))
	obs.AddTime(key+".elapsed", r.Elapsed)
}
