package liveness

import (
	"errors"
	"time"

	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// CheckAll checks the three properties of one system with the selected
// engine and fails fast: a resource limit, or a panic inside the TM
// algorithm, returns its *guard.LimitError. The on-the-fly engine runs
// one shared exploration and returns, with the error, the row it
// learned before the stop — violations its probes already found keep
// their Results and only the unresolved properties carry Result.Limit.
// The materialized engine builds the system (a "build-tm" phase) and
// runs the three checks on it ("check:<prop>" phases); a limited build
// returns an empty row.
func CheckAll(alg tm.Algorithm, cm tm.ContentionManager, engine space.Engine, opts Options) (Table3Row, error) {
	phase := func(name string) func() {
		if opts.NoPhases {
			return func() {}
		}
		return obs.Phase(name)
	}
	if engine == space.EngineOnTheFly {
		res, err := checkLazy(alg, cm, Props, opts.workers(), opts.guard(), !opts.NoPhases)
		if len(res) != 3 {
			return Table3Row{}, err
		}
		return Table3Row{Obstruction: res[0], Livelock: res[1], Wait: res[2]}, err
	}
	buildStart := time.Now()
	done := phase("build-tm")
	ts, err := explore.BuildProviderGuarded(alg, cm, opts.workers(), opts.guard(), opts.Persist)
	done()
	if err != nil {
		return Table3Row{}, err
	}
	buildElapsed := time.Since(buildStart)
	check := func(p Prop) Result {
		defer phase("check:" + p.Key())()
		return checkTS(ts, p)
	}
	row := Table3Row{
		Obstruction: check(ObstructionFreedom),
		Livelock:    check(LivelockFreedom),
		Wait:        check(WaitFreedom),
	}
	// The shared exploration is charged to the first check; the build
	// and check times of a row then add up to its wall-clock.
	row.Obstruction.BuildElapsed = buildElapsed
	row.Obstruction.Resumed = ts.Resumed
	return row, nil
}

// Table3 reproduces the paper's Table 3 on the given systems with the
// selected engine. It keeps going: every row runs under the options'
// context and budgets, and a row that hits a limit — or panics inside
// the TM algorithm — reports what it learned instead of aborting the
// table. With the on-the-fly engine a limited row keeps the violations
// its probes found before the stop and marks only the unresolved
// properties with Result.Limit; with the materialized engine a limited
// build marks all three.
//
// The rows fan out over the worker pool (parbfs.For runs them inline
// at one worker), each row exploring with one worker, so rows are
// bit-identical for every worker count. The obs phase stack assumes a
// single-threaded spine, so per-row phases open only when the rows run
// inline.
func Table3(systems []System, engine space.Engine, opts Options) []Table3Row {
	workers := opts.workers()
	inline := workers <= 1 || len(systems) <= 1
	if !inline && !opts.NoPhases {
		phase := "liveness:table3-onthefly-parallel"
		if engine == space.EngineMaterialized {
			phase = "liveness:table3-parallel"
		}
		done := obs.Phase(phase)
		defer done()
	}
	rowOpts := opts
	rowOpts.Workers = 1
	rowOpts.NoPhases = opts.NoPhases || !inline
	rows := make([]Table3Row, len(systems))
	parbfs.For(len(systems), workers, func(i int) {
		sys := systems[i]
		if !rowOpts.NoPhases && engine == space.EngineMaterialized {
			// Group the row's build-tm and check:* phases by system, as
			// checkLazy's liveness-otf:<name> span does on the fly.
			defer obs.Phase("liveness:" + systemName(sys.Alg, sys.CM))()
		}
		start := time.Now()
		row, err := CheckAll(sys.Alg, sys.CM, engine, rowOpts)
		if err != nil && row.Obstruction.System == "" {
			// Nothing resolved before the stop: every cell is limited.
			row = limitedRow(sys, engine, time.Since(start), err)
		}
		recordDriverRow3(row)
		rows[i] = row
	})
	return rows
}

// limitedRow marks all three properties of one system limited. Every
// error on the table path is a *guard.LimitError already; anything
// else (defensively) is reported as an isolated panic.
func limitedRow(sys System, engine space.Engine, elapsed time.Duration, err error) Table3Row {
	var le *guard.LimitError
	if !errors.As(err, &le) {
		le = &guard.LimitError{Kind: guard.KindPanic, Value: err}
	}
	cell := func(p Prop) Result {
		return Result{
			System:   systemName(sys.Alg, sys.CM),
			Prop:     p,
			Threads:  sys.Alg.Threads(),
			Vars:     sys.Alg.Vars(),
			TMStates: le.Visited,
			Engine:   engine,
			Limit:    le,
		}
	}
	row := Table3Row{
		Obstruction: cell(ObstructionFreedom),
		Livelock:    cell(LivelockFreedom),
		Wait:        cell(WaitFreedom),
	}
	row.Obstruction.Elapsed = elapsed
	return row
}

// recordDriverRow3 writes one keep-going row's vitals under
// "driver.table3.<system>.<prop>.*": a limit_<label> counter when the
// cell was stopped, plus its elapsed time and the states it reached.
func recordDriverRow3(row Table3Row) {
	if !obs.Enabled() {
		return
	}
	for _, r := range []Result{row.Obstruction, row.Livelock, row.Wait} {
		key := "driver.table3." + r.System + "." + r.Prop.Key()
		if r.Limit != nil {
			obs.Inc(key+".limit_"+r.Limit.Kind.Label(), 1)
		} else {
			obs.Inc(key+".completed", 1)
		}
		obs.SetGauge(key+".states", int64(r.TMStates))
		obs.AddTime(key+".elapsed", r.Elapsed)
	}
}
