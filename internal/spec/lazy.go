package spec

import (
	"tmcheck/internal/core"
	"tmcheck/internal/pack"
	"tmcheck/internal/space"
)

// stepUnknown marks a memo entry whose Step has not been computed yet
// (space.None marks a computed "no transition").
const stepUnknown space.State = -2

// statusBits is the width of a thread's status in a packed DState key:
// the deterministic statuses run up to stPending = 4, so two bits would
// silently merge pending into finished.
const statusBits = 3

// Lazy is the deterministic specification as an implicit space.Space:
// states are DStates interned by their exact packed key, successors are
// computed by Det.Step on demand and memoized in one flat
// states × |Σ| table. The on-the-fly safety engine steps it from the
// product search, so only the spec states the product actually reaches
// are ever constructed — on TM products that is a small fraction of the
// full enumeration (the gap the obs counter "spec_states" vs. a full
// Enumerate measures).
type Lazy struct {
	Det *Det
	ab  core.Alphabet

	size  int
	in    *pack.Map     // packed DState keys, id order
	rows  []space.State // rows[id*size+letter]: stepUnknown, space.None, or successor id
	blank []space.State // one row of stepUnknown
	key   [pack.MaxWords]uint64

	// last is the most recently decoded state, lastID its id: Succ and
	// the product search step one state under several letters in a row.
	last   DState
	lastID space.State
}

// NewLazy returns the lazy view of the specification.
func NewLazy(d *Det) *Lazy {
	ab := core.Alphabet{Threads: d.Threads, Vars: d.Vars}
	lz := &Lazy{Det: d, ab: ab, size: ab.Size(), in: pack.NewMap(pack.WordsFor(d.keyBits()), 0),
		blank: make([]space.State, ab.Size()), lastID: space.None}
	for i := range lz.blank {
		lz.blank[i] = stepUnknown
	}
	lz.intern(d.Initial())
	return lz
}

// AlphabetSize returns the instance alphabet size n·(2k+2).
func (lz *Lazy) AlphabetSize() int { return lz.size }

// Init implements space.Space.
func (lz *Lazy) Init() space.State { return 0 }

// NumStates implements space.Space: the number of spec states
// constructed so far.
func (lz *Lazy) NumStates() int { return lz.in.Len() }

// Succ implements space.Space, enumerating the defined transitions in
// letter order. The specification is deterministic, so there is exactly
// one emission per defined letter and never an ε.
func (lz *Lazy) Succ(s space.State, emit func(l space.Letter, to space.State)) {
	for l := 0; l < lz.size; l++ {
		if to := lz.Step(s, l); to != space.None {
			emit(space.Letter(l), to)
		}
	}
}

// Step returns the successor of the already-interned spec state s under
// letter l, or space.None when the specification refuses the statement
// (the detSpec ⊥ — in the product search this is exactly a safety
// violation). Results are memoized; the underlying Det.Step runs at
// most once per (state, letter).
func (lz *Lazy) Step(s space.State, l int) space.State {
	i := int(s)*lz.size + l
	if r := lz.rows[i]; r != stepUnknown {
		return r
	}
	if s != lz.lastID {
		lz.last, lz.lastID = lz.Det.decodeKey(lz.in.KeyAt(s)), s
	}
	r := space.None
	if q2, ok := lz.Det.Step(lz.last, lz.ab.Decode(l)); ok {
		r = lz.intern(q2)
	}
	lz.rows[i] = r
	return r
}

// intern returns the id of q, opening its memo row on first sight.
func (lz *Lazy) intern(q DState) space.State {
	key := lz.key[:lz.in.Words()]
	lz.Det.encodeKey(&q, key)
	id, fresh := lz.in.Intern(key)
	if fresh {
		lz.rows = append(lz.rows, lz.blank...)
	}
	return id
}

// keyBits is the exact width of a packed DState key: per thread a
// status, four variable sets and two thread sets — n·(3+4k+2n) bits,
// 300 at the (4,16) bound.
func (sp *Det) keyBits() int {
	return sp.Threads * (statusBits + 4*sp.Vars + 2*sp.Threads)
}

// encodeKey writes the (n, k) part of q into key, which has
// pack.WordsFor(keyBits()) words. Fields are masked to their widths, so
// the key is exact: two DStates agreeing on every thread < n and
// variable < k (and status < 8) get the same key, any others differ.
func (sp *Det) encodeKey(q *DState, key []uint64) {
	clear(key)
	var w pack.Writer
	w.Reset(key)
	k, n := uint(sp.Vars), uint(sp.Threads)
	vmask, tmask := uint64(1)<<k-1, uint64(1)<<n-1
	for t := 0; t < sp.Threads; t++ {
		w.Put(uint64(q.Status[t])&(1<<statusBits-1), statusBits)
		w.Put(uint64(q.RS[t])&vmask, k)
		w.Put(uint64(q.WS[t])&vmask, k)
		w.Put(uint64(q.PRS[t])&vmask, k)
		w.Put(uint64(q.PWS[t])&vmask, k)
		w.Put(uint64(q.WP[t])&tmask, n)
		w.Put(uint64(q.SP[t])&tmask, n)
	}
}

// decodeKey is the inverse of encodeKey.
func (sp *Det) decodeKey(key []uint64) DState {
	var r pack.Reader
	r.Reset(key)
	k, n := uint(sp.Vars), uint(sp.Threads)
	var q DState
	for t := 0; t < sp.Threads; t++ {
		q.Status[t] = uint8(r.Get(statusBits))
		q.RS[t] = core.VarSet(r.Get(k))
		q.WS[t] = core.VarSet(r.Get(k))
		q.PRS[t] = core.VarSet(r.Get(k))
		q.PWS[t] = core.VarSet(r.Get(k))
		q.WP[t] = core.ThreadSet(r.Get(n))
		q.SP[t] = core.ThreadSet(r.Get(n))
	}
	return q
}
