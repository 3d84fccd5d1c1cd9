package explore

import (
	"tmcheck/internal/core"
	"tmcheck/internal/pack"
	"tmcheck/internal/space"
	"tmcheck/internal/tm"
)

// Space is the lazy view of the TM×CM×most-general-program unfolding:
// the implicit transition system whose states are interned product
// states and whose successor generator runs the TM semantics on demand.
// It implements space.Space; the materialized TS is one consumer (a
// scan to the fixpoint) and the on-the-fly safety engine is another
// that never expands states the product search does not reach.
//
// Products that pack (packedFor) intern bit-packed keys in a pack.Map
// and expand through the packed core, exactly as the materialized
// packed scan does; the rest intern boxed product states. Both paths
// share the enumeration order of forEachEnabled/forEachStep, so
// per-state edge order — and hence every canonical numbering and every
// counterexample downstream — is bit-identical across engines by
// construction.
type Space struct {
	Alg      tm.Algorithm
	CM       tm.ContentionManager // nil when the TM runs without a manager
	Alphabet core.Alphabet

	commands []core.Command

	// Packed path: keys interns the product keys; cur holds the key
	// being expanded, yield the caller's edge callback.
	pc     packedIface
	keys   *pack.Map
	cur    [pack.MaxWords]uint64
	yield  func(Edge)
	intern func(next []uint64, e Edge)

	in *space.Interner[prodState] // boxed path
}

// NewSpace returns the lazy unfolding of the TM algorithm (with an
// optional contention manager) applied to the most general program, for
// single-goroutine consumers.
func NewSpace(alg tm.Algorithm, cm tm.ContentionManager) *Space {
	pc := packedFor(alg, cm)
	if pc == nil {
		return newBoxedSpace(alg, cm)
	}
	kw := pc.keyWords()
	sp := &Space{Alg: alg, CM: cm, Alphabet: core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()},
		pc: pc, keys: pack.NewMap(kw, 0)}
	pc.writeInit(sp.cur[:kw])
	sp.keys.Intern(sp.cur[:kw])
	sp.intern = func(next []uint64, e Edge) {
		e.To, _ = sp.keys.Intern(next)
		sp.yield(e)
	}
	return sp
}

// newBoxedSpace is the boxed unfolding, for products that do not pack.
func newBoxedSpace(alg tm.Algorithm, cm tm.ContentionManager) *Space {
	ab := core.Alphabet{Threads: alg.Threads(), Vars: alg.Vars()}
	sp := &Space{Alg: alg, CM: cm, Alphabet: ab, commands: ab.Commands(), in: space.NewInterner[prodState]()}
	var cmInit tm.State
	if cm != nil {
		cmInit = cm.Initial()
	}
	sp.in.Intern(prodState{TM: alg.Initial(), CM: cmInit})
	return sp
}

// Name describes the unfolded system, e.g. "dstm" or "tl2+polite".
func (sp *Space) Name() string {
	if sp.CM == nil {
		return sp.Alg.Name()
	}
	return sp.Alg.Name() + "+" + sp.CM.Name()
}

// Init implements space.Space.
func (sp *Space) Init() space.State { return 0 }

// NumStates implements space.Space: the number of product states
// constructed so far (it grows as successors are expanded).
func (sp *Space) NumStates() int {
	if sp.pc != nil {
		return sp.keys.Len()
	}
	return sp.in.Len()
}

// Succ implements space.Space: the emitted letter is the alphabet code
// of the completed statement, or space.Eps for internal ⊥-steps.
func (sp *Space) Succ(s space.State, emit func(l space.Letter, to space.State)) {
	sp.SuccEdges(s, func(e Edge) { emit(e.Emit, e.To) })
}

// SuccEdges enumerates the outgoing edges of the already-interned state
// s with full TM detail (command, thread, extended command, response),
// interning each successor. Edge order is the canonical enumeration
// order shared by every engine. yield must not expand sp again: the
// packed path reuses one expansion scratch.
func (sp *Space) SuccEdges(s space.State, yield func(Edge)) {
	if sp.pc == nil {
		sp.expand(sp.in.At(s), func(next prodState, e Edge) {
			e.To = sp.in.Intern(next)
			yield(e)
		})
		return
	}
	// KeyAt aliases the table, which interning successors may grow, so
	// expand from a copy.
	kw := sp.pc.keyWords()
	copy(sp.cur[:kw], sp.keys.KeyAt(s))
	sp.yield = yield
	sp.pc.expandKey(sp.cur[:kw], sp.intern)
}

// expand enumerates the successors of product state q without touching
// the intern table: the edge templates are yielded with To unset. The
// parallel materializer uses this directly (parbfs owns the interning
// there).
func (sp *Space) expand(q prodState, yield func(next prodState, e Edge)) {
	sp.forEachEnabled(q, func(c core.Command, t core.Thread) {
		sp.forEachStep(q, c, t, yield)
	})
}

// forEachEnabled calls yield for every (command, thread) pair the most
// general program may issue from q: everything when the thread has no
// pending command, only the pending command otherwise.
func (sp *Space) forEachEnabled(q prodState, yield func(core.Command, core.Thread)) {
	n := sp.Alg.Threads()
	for t := core.Thread(0); int(t) < n; t++ {
		if q.Pending[t].Active {
			yield(q.Pending[t].C, t)
			continue
		}
		for _, c := range sp.commands {
			yield(c, t)
		}
	}
}

// forEachStep enumerates every transition for command c by thread t from
// state q, calling yield with the successor product state and the edge
// template (To left unset — the caller interns the successor). Every
// engine funnels through this single enumerator, so their edge order
// agrees by construction.
func (sp *Space) forEachStep(q prodState, c core.Command, t core.Thread, yield func(next prodState, e Edge)) {
	steps := sp.Alg.Steps(q.TM, c, t)
	conflict := sp.Alg.Conflict(q.TM, c, t)

	// cmStep resolves the contention-manager product for extended command
	// x: allowed reports whether the transition survives, and next is the
	// manager's state afterwards.
	cmStep := func(x tm.XCmd) (next tm.State, allowed bool) {
		if sp.CM == nil {
			return q.CM, true
		}
		p2, has := sp.CM.Step(q.CM, x, t)
		if conflict && !has {
			return nil, false
		}
		if has {
			return p2, true
		}
		return q.CM, true
	}

	for _, step := range steps {
		cmNext, ok := cmStep(step.X)
		if !ok {
			continue
		}
		next := prodState{TM: step.Next, Pending: q.Pending, CM: cmNext}
		emit := int16(-1)
		if step.R == tm.RespPending {
			next.Pending[t] = pending{Active: true, C: c}
		} else {
			next.Pending[t] = pending{}
			if step.R == tm.Resp1 {
				emit = int16(sp.Alphabet.Encode(core.St(c, t)))
			}
		}
		yield(next, Edge{Cmd: c, T: t, X: step.X, R: step.R, Emit: emit})
	}

	// Abort transitions exist when the command is abort enabled (no
	// extended-command step) or the conflict function is true.
	if len(steps) == 0 || conflict {
		if cmNext, ok := cmStep(tm.XCmd{Kind: tm.XAbort}); ok {
			next := prodState{TM: sp.Alg.AbortStep(q.TM, t), Pending: q.Pending, CM: cmNext}
			next.Pending[t] = pending{}
			emit := int16(sp.Alphabet.Encode(core.St(core.Abort(), t)))
			yield(next, Edge{
				Cmd: c, T: t,
				X: tm.XCmd{Kind: tm.XAbort}, R: tm.Resp0, Emit: emit,
			})
		}
	}
}
