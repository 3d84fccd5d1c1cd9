// Package space defines the lazy state-space abstraction shared by the
// checker pipeline: an implicit transition system whose states are
// constructed on demand and canonically numbered on first sight.
//
// Before this abstraction the pipeline was strictly "build then check":
// explore materialized the full TM transition system, spec enumerated
// the full deterministic specification, and only then did the safety
// check walk their product. The Space interface turns every layer into
// a successor generator instead — the materialized structures become
// one possible consumer (a Scan to the fixpoint), and the on-the-fly
// safety engine becomes another that interleaves TM exploration with
// specification stepping and stops at the first counterexample, never
// constructing the parts of either system the product does not reach.
//
// The package also owns the state-budget vocabulary: a typed
// BudgetError for searches that would exceed a state cap, so callers
// degrade gracefully instead of OOMing.
package space

import (
	"tmcheck/internal/guard"
	"tmcheck/internal/obs"
)

// State identifies an interned state of a Space: a dense id assigned in
// canonical discovery order, with the initial state always 0.
type State = int32

// None is the absent state, returned by deterministic successor lookups
// when no transition exists.
const None State = -1

// Letter is a letter of the emission alphabet, or Eps for an internal
// (non-emitting) transition.
type Letter = int16

// Eps marks an internal transition that emits no letter.
const Eps Letter = -1

// Space is an implicit transition system: an initial state, a successor
// generator, and a canonical interning of every state it has
// constructed so far. Implementations intern lazily — calling Succ may
// discover and number fresh states — and number states densely in
// first-sight order, so a scan loop "for id := 0; id < NumStates();
// id++" drives the space to its reachable fixpoint.
type Space interface {
	// Init returns the initial state's id (always 0 by the numbering
	// convention; provided so consumers need not assume it).
	Init() State
	// Succ enumerates the outgoing transitions of the already-interned
	// state s in a deterministic order, calling emit once per
	// transition with the emitted letter (Eps for internal steps) and
	// the interned successor.
	Succ(s State, emit func(l Letter, to State))
	// NumStates returns the number of states interned so far. It grows
	// as Succ discovers fresh successors.
	NumStates() int
}

// Scan drives sp to its reachable fixpoint: every interned state is
// expanded exactly once, in id order, and edge is called for each
// transition (from, letter, to). Since interning is canonical this is
// exactly the sequential scan-order BFS the materialized builders used
// to hand-roll.
//
// A positive maxStates bounds the number of states constructed: the
// scan stops with a *BudgetError as soon as the interned count exceeds
// it. maxStates <= 0 means unbounded. Scan returns the number of states
// interned when it stopped.
func Scan(sp Space, maxStates int, edge func(from State, l Letter, to State)) (int, error) {
	return ScanGuarded(sp, guard.New(nil, maxStates, 0), edge)
}

// scanProgressEvery is the heartbeat granularity of ScanGuarded on the
// telemetry bus: one EvProgress per this many expanded states.
const scanProgressEvery = 8192

// ScanGuarded is Scan consulting a full resource guard instead of a
// bare state budget: the scan stops with the guard's *guard.LimitError
// as soon as the context is done, the state budget is exceeded, or the
// heap watchdog trips, checked once per expanded state. A nil or
// limitless guard costs nothing per state.
func ScanGuarded(sp Space, g *guard.Guard, edge func(from State, l Letter, to State)) (int, error) {
	var from State
	emit := func(l Letter, to State) { edge(from, l, to) }
	active := g.Active()
	events := obs.EventsEnabled()
	for from = 0; int(from) < sp.NumStates(); from++ {
		if active {
			if err := g.Check(sp.NumStates()); err != nil {
				return sp.NumStates(), err
			}
		}
		if events && from > 0 && from%scanProgressEvery == 0 {
			obs.Emit(obs.Event{
				Kind: obs.EvProgress, Name: "space.scan",
				States: int64(sp.NumStates()), Frontier: int64(sp.NumStates() - int(from)),
				HeapBytes: obs.SampledHeap(),
			})
		}
		sp.Succ(from, emit)
	}
	return sp.NumStates(), nil
}

// Interner canonically numbers the states of an implicit space: each
// distinct state value receives a dense id in first-Intern order. It is
// single-goroutine.
type Interner[S comparable] struct {
	index  map[S]State
	states []S
}

// NewInterner returns an empty interner.
func NewInterner[S comparable]() *Interner[S] {
	return &Interner[S]{index: map[S]State{}}
}

// Intern returns the canonical id of s, assigning the next dense id on
// first sight.
func (in *Interner[S]) Intern(s S) State {
	id, _ := in.InternFresh(s)
	return id
}

// InternFresh is Intern reporting whether the state was newly interned.
func (in *Interner[S]) InternFresh(s S) (State, bool) {
	if id, ok := in.index[s]; ok {
		return id, false
	}
	id := State(len(in.states))
	in.index[s] = id
	in.states = append(in.states, s)
	return id, true
}

// At returns the state value with the given id.
func (in *Interner[S]) At(id State) S { return in.states[id] }

// Len returns the number of states interned so far.
func (in *Interner[S]) Len() int { return len(in.states) }

// Snapshot returns the interned states in id order. The returned slice
// aliases the interner's storage up to its current length; callers must
// not modify it. Meant for materializing consumers that take over the
// states once interning is complete.
func (in *Interner[S]) Snapshot() []S {
	return in.states[:len(in.states):len(in.states)]
}

// ErrBudgetExceeded is the sentinel matched by errors.Is for every
// states-kind limit error, so callers can test the class without
// unwrapping. It is guard.ErrStates under its historical name.
var ErrBudgetExceeded = guard.ErrStates

// BudgetError reports that a search or construction stopped because it
// would have exceeded its state budget. It is a graceful refusal, not a
// crash: the process keeps running and the caller can retry with a
// larger budget or a lazier engine.
//
// The type is now an alias of the structured guard.LimitError, whose
// zero Kind is guard.KindStates: existing literals constructing
// &BudgetError{Budget: b, Visited: v} keep meaning "state budget
// exceeded", while the guard layer adds the wall-clock, memory,
// cancellation and panic kinds under the same type.
type BudgetError = guard.LimitError
