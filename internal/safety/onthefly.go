package safety

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strconv"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
	"tmcheck/internal/pack"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/space"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Engine selects how an inclusion check is executed. The type lives in
// internal/space (it is shared with the liveness checker); the aliases
// here keep the original safety API intact. For safety the engines are:
//
//   - EngineMaterialized: explore the full TM system, enumerate the
//     full specification DFA, then run the product inclusion check. Its
//     peak memory is the sum of both full automata even when a
//     counterexample is shallow.
//   - EngineOnTheFly: interleave TM exploration with specification
//     stepping — the product BFS constructs TM and spec states only as
//     the product reaches them and stops at the first violation. It is
//     the default engine of cmd/tmcheck.
type Engine = space.Engine

const (
	EngineMaterialized = space.EngineMaterialized
	EngineOnTheFly     = space.EngineOnTheFly
)

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) { return space.ParseEngine(s) }

// Options configures VerifyOpts and Table2.
type Options struct {
	// Workers is the worker count; <= 0 takes the process-wide
	// parbfs.Workers(). The materialized engine spends it inside the
	// TM build and spec enumeration (one worker runs them
	// sequentially). The on-the-fly search is sequential at every
	// count; Table2 spends the workers on rows instead.
	Workers int
	// MaxStates bounds the total states constructed (see VerifyOpts);
	// <= 0 means unbounded.
	MaxStates int
	// MaxMem is the heap cap in bytes; 0 means uncapped.
	MaxMem uint64
	// Engine selects the pipeline; the zero value is EngineMaterialized.
	Engine Engine
	// Ctx carries the check's deadline and cancellation; nil means no
	// deadline. The engines consult it at the same points where they
	// check the state budget.
	Ctx context.Context
	// NoPhases suppresses the obs phase spans (the phase stack assumes a
	// single-threaded spine); counters and bus events still record.
	// Front-ends running checks concurrently (tmcheckd) set it.
	NoPhases bool
	// Persist supplies checkpoint/resume and disk-spill wiring for the
	// TM exploration (see explore.PersistProvider); nil runs plain.
	// Only the materialized engine interns the canonical prefix a
	// snapshot records, so setting this with EngineOnTheFly is an error.
	Persist explore.PersistProvider
}

// guard builds one check's guard from the options.
func (opts Options) guard() *guard.Guard {
	return guard.New(opts.Ctx, opts.MaxStates, opts.MaxMem)
}

// workers resolves the worker count, defaulting to parbfs.Workers().
func (opts Options) workers() int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return parbfs.Workers()
}

// VerifyOpts checks L(alg×cm) ⊆ L(Σd prop) with the selected engine.
//
// A positive Options.MaxStates bounds the total number of states
// constructed — TM states + spec states + product pairs for the
// on-the-fly engine; TM states, then the full spec DFA, then inclusion
// pairs cumulatively for the materialized one — and the check stops
// with a *space.BudgetError instead of exhausting memory. The
// on-the-fly search and the sequential materialized stages trip the
// budget exactly; parallel materialized stages check at BFS level
// barriers and may overshoot by one level.
//
// Both engines return identical verdicts and identical counterexample
// words (the on-the-fly search orders each state's edges ε-first then
// by letter, matching the product order of the materialized inclusion
// check — TestEngineAgreement asserts this across the registry).
func VerifyOpts(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, opts Options) (Result, error) {
	workers := opts.workers()
	g := opts.guard()
	if opts.Engine == EngineOnTheFly {
		if opts.Persist != nil {
			return Result{}, errors.New("safety: checkpoint/resume requires the materialized engine (the on-the-fly product does not intern a resumable prefix)")
		}
		return checkOnTheFly(alg, cm, prop, g, !opts.NoPhases)
	}
	return verifyMaterialized(alg, cm, prop, workers, g, !opts.NoPhases, opts.Persist)
}

// checkEvents brackets one inclusion check on the telemetry bus:
// EvCheckStart now, then EvCheckDone (verdict in Detail, product pairs
// in States) — plus an EvViolation when a counterexample was found —
// when the returned func is called with the outcome. With the bus
// disabled it is a no-op closure.
func checkEvents(name string) func(res Result, err error) {
	if !obs.EventsEnabled() {
		return func(Result, error) {}
	}
	obs.Emit(obs.Event{Kind: obs.EvCheckStart, Name: name})
	start := time.Now()
	return func(res Result, err error) {
		e := obs.Event{Kind: obs.EvCheckDone, Name: name, DurNS: time.Since(start).Nanoseconds()}
		switch {
		case err != nil:
			e.Detail = "ERROR: " + err.Error()
		case res.Holds:
			e.Detail = "SAFE"
			e.States = int64(res.Inclusion.PairsVisited)
		default:
			e.Detail = "UNSAFE"
			e.States = int64(res.Inclusion.PairsVisited)
			obs.Emit(obs.Event{Kind: obs.EvViolation, Name: name,
				Detail: "counterexample of length " + strconv.Itoa(res.Inclusion.CexLen)})
		}
		obs.Emit(e)
	}
}

// verifyMaterialized is the classic pipeline, build → enumerate →
// include, with the guard threaded through its three stages; the state
// budget of each stage is charged against what the previous stages
// already constructed (the context and heap watchdog are shared across
// all three unchanged). phase=false suppresses the obs span for
// callers off the single-threaded spine.
func verifyMaterialized(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, g *guard.Guard, phase bool, prov explore.PersistProvider) (res Result, err error) {
	fin := checkEvents("dfa:" + systemName(alg, cm) + ":" + prop.Key())
	defer func() { fin(res, err) }()
	buildStart := time.Now()
	ts, err := explore.BuildProviderGuarded(alg, cm, workers, g, prov)
	if err != nil {
		return Result{}, err
	}
	buildElapsed := time.Since(buildStart)
	dfa, specElapsed, err := enumerateSpec(prop, alg.Threads(), alg.Vars(), workers, g, ts.NumStates())
	if err != nil {
		return Result{}, err
	}
	if res, err = include(ts, prop, dfa, g, phase); err != nil {
		return Result{}, err
	}
	res.BuildTMElapsed, res.BuildSpecElapsed = buildElapsed, specElapsed
	return res, nil
}

// chargeStates re-bases a staged state-budget error onto the whole
// pipeline's budget, adding the states the earlier stages already
// constructed; every other limit kind passes through untouched.
func chargeStates(err error, maxStates, already int) error {
	var le *guard.LimitError
	if errors.As(err, &le) && le.Kind == guard.KindStates {
		return &guard.LimitError{Kind: guard.KindStates, Budget: maxStates, Visited: already + le.Visited}
	}
	return err
}

// checkOnTheFly runs the on-the-fly product search, stopping at the
// first undefined spec transition (the inclusion counterexample) or the
// fixpoint. phase=false suppresses the obs span for callers off the
// single-threaded spine.
func checkOnTheFly(alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, g *guard.Guard, phase bool) (Result, error) {
	det := spec.NewDet(prop, alg.Threads(), alg.Vars())
	name := "otf:" + systemName(alg, cm) + ":" + prop.Key()
	fin := checkEvents(name)
	var res Result
	start := time.Now()
	err := guard.Capture(func() error {
		var ierr error
		res, ierr = otfSearch(name, alg, cm, det, g, phase)
		return ierr
	})
	if err != nil {
		fin(Result{}, err)
		return Result{}, err
	}
	// Exploration and checking are interleaved, so the whole search is
	// charged to Elapsed and the build fields stay zero.
	res.Elapsed = time.Since(start)
	res.recordOTF()
	fin(res, nil)
	return res, nil
}

// otfEdge is the part of a TM edge the product search reads.
type otfEdge struct {
	to   space.State
	emit space.Letter
}

// edgeCache memoizes the edges of each TM state, stable-sorted
// ε-first, then by letter. This is exactly the successor order of the
// materialized inclusion check (which walks ε-successors first and then
// the letters in ascending order, each in edge-insertion order), so the
// product BFS — and hence the counterexample word — is bit-identical
// across engines. Distinct product pairs sharing a TM state re-use its
// expansion; rows live in chunks of a shared arena, so caching a state
// allocates nothing per state.
type edgeCache struct {
	sp      *explore.Space
	rows    [][]otfEdge
	chunk   []otfEdge
	scratch []otfEdge
	collect func(explore.Edge)
}

func newEdgeCache(sp *explore.Space) *edgeCache {
	c := &edgeCache{sp: sp, chunk: make([]otfEdge, 0, 64)}
	c.collect = func(e explore.Edge) { c.scratch = append(c.scratch, otfEdge{e.To, e.Emit}) }
	return c
}

// of returns the sorted edges of TM state s.
func (c *edgeCache) of(s space.State) []otfEdge {
	if int(s) < len(c.rows) && c.rows[s] != nil {
		return c.rows[s]
	}
	c.scratch = c.scratch[:0]
	c.sp.SuccEdges(s, c.collect)
	slices.SortStableFunc(c.scratch, func(a, b otfEdge) int { return cmp.Compare(a.emit, b.emit) })
	if len(c.chunk)+len(c.scratch) > cap(c.chunk) {
		c.chunk = make([]otfEdge, 0, max(len(c.scratch), min(2*cap(c.chunk), 8192)))
	}
	start := len(c.chunk)
	c.chunk = append(c.chunk, c.scratch...)
	for len(c.rows) < c.sp.NumStates() {
		c.rows = append(c.rows, nil)
	}
	c.rows[s] = c.chunk[start:len(c.chunk):len(c.chunk)]
	return c.rows[s]
}

// otfProgressEvery is the heartbeat granularity of the on-the-fly
// search on the telemetry bus: one EvProgress per this many expanded
// product pairs.
const otfProgressEvery = 4096

// otfSearch is the product BFS over pairs (TM state, spec state): it
// expands the TM space and steps the lazy specification in lockstep.
// It is sequential at every worker count, so budget trips, early-exit
// sizes and the counterexample never depend on scheduling.
func otfSearch(name string, alg tm.Algorithm, cm tm.ContentionManager, det *spec.Det, g *guard.Guard, phase bool) (Result, error) {
	if phase {
		done := obs.Phase(name)
		defer done()
	}
	events := obs.EventsEnabled()
	emitLevel := explore.NewLevelEmitter(name)
	tmsp := explore.NewSpace(alg, cm)
	lz := spec.NewLazy(det)
	edges := newEdgeCache(tmsp)

	type node struct {
		p      uint64 // tm<<32 | spec
		parent int32
		letter int16 // letter that discovered this pair; -1 for root and ε
	}
	nodes := []node{{parent: -1, letter: -1}}
	seen := pack.NewSet()
	seen.Add(0)
	push := func(tmS, specS space.State, parent int32, letter int16) {
		p := uint64(tmS)<<32 | uint64(specS)
		if seen.Add(p) {
			nodes = append(nodes, node{p: p, parent: parent, letter: letter})
		}
	}
	buildWord := func(idx int32, last int16) []int {
		rev := []int{int(last)}
		for idx > 0 {
			if nodes[idx].letter >= 0 {
				rev = append(rev, int(nodes[idx].letter))
			}
			idx = nodes[idx].parent
		}
		slices.Reverse(rev)
		return rev
	}

	frontierPeak := 1
	result := func(holds bool, cexLetters []int) Result {
		res := Result{
			System:       tmsp.Name(),
			Prop:         det.Prop,
			Threads:      alg.Threads(),
			Vars:         alg.Vars(),
			TMStates:     tmsp.NumStates(),
			SpecStates:   lz.NumStates(),
			Holds:        holds,
			Engine:       EngineOnTheFly,
			FrontierPeak: frontierPeak,
			Inclusion:    automata.InclusionStats{PairsVisited: len(nodes), CexLen: len(cexLetters)},
		}
		if !holds {
			res.Counterexample = tmsp.Alphabet.DecodeWord(cexLetters)
		}
		return res
	}

	guarded := g.Active()
	levelEnd := 1
	for qi := int32(0); int(qi) < len(nodes); qi++ {
		if guarded {
			if err := g.Check(len(nodes) + tmsp.NumStates() + lz.NumStates()); err != nil {
				return Result{}, err
			}
		}
		if emitLevel != nil && int(qi) == levelEnd {
			emitLevel(len(nodes), levelEnd)
			levelEnd = len(nodes)
		}
		if f := len(nodes) - int(qi); f > frontierPeak {
			frontierPeak = f
		}
		if events && qi > 0 && qi%otfProgressEvery == 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: name,
				States: int64(len(nodes)), Frontier: int64(len(nodes) - int(qi)),
				HeapBytes: obs.SampledHeap(),
			})
		}
		p := nodes[qi].p
		specS := space.State(uint32(p))
		for _, e := range edges.of(space.State(p >> 32)) {
			if e.emit < 0 {
				push(e.to, specS, qi, -1)
				continue
			}
			d2 := lz.Step(specS, int(e.emit))
			if d2 == space.None {
				if emitLevel != nil {
					emitLevel(len(nodes), int(qi))
				}
				return result(false, buildWord(qi, e.emit)), nil
			}
			push(e.to, d2, qi, e.emit)
		}
	}
	if emitLevel != nil {
		emitLevel(len(nodes), len(nodes))
	}
	return result(true, nil), nil
}

// systemName names the system without constructing anything.
func systemName(alg tm.Algorithm, cm tm.ContentionManager) string {
	if cm == nil {
		return alg.Name()
	}
	return alg.Name() + "+" + cm.Name()
}

// recordOTF writes the on-the-fly vitals into the obs registry, keyed
// "safety.<system>.<prop>.otf.*": product pairs visited, TM and spec
// states actually constructed (compare spec_states against a full
// "spec.det.*.states" to see the laziness win), peak frontier, and the
// early-exit depth when a counterexample stopped the search.
func (r Result) recordOTF() {
	if !obs.Enabled() {
		return
	}
	key := "safety." + r.System + "." + r.Prop.Key() + ".otf"
	obs.Inc(key+".checks", 1)
	obs.Inc(key+".product_pairs", int64(r.Inclusion.PairsVisited))
	obs.SetGauge(key+".tm_states", int64(r.TMStates))
	obs.SetGauge(key+".spec_states", int64(r.SpecStates))
	obs.MaxGauge(key+".frontier_peak", int64(r.FrontierPeak))
	if !r.Holds {
		obs.SetGauge(key+".early_exit_depth", int64(r.Inclusion.CexLen))
	}
	obs.AddTime(key+".search", r.Elapsed)
}
