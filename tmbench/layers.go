package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tmcheck/internal/automata"
	"tmcheck/internal/core"
	"tmcheck/internal/explore"
	"tmcheck/internal/guard"
	"tmcheck/internal/job"
	"tmcheck/internal/liveness"
	"tmcheck/internal/pack"
	"tmcheck/internal/safety"
	"tmcheck/internal/snap"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
	"tmcheck/internal/wire"
)

// probeCap bounds the product states a probe walks, so a probe on a
// large system stays a sample of fixed size.
const probeCap = 100_000

// minCalls is the number of calls a micro-probe repeats its loop to,
// so per-call figures rest on enough work to time.
const minCalls = 200_000

// layerStats accumulates, over every call the traced run makes into a
// layer, the figures the per-layer metrics are made of.
type layerStats struct {
	tmCalls, tmSteps int
	tmTime           time.Duration

	packKeyWords                        int
	packEncodes, packInterns            int
	packEnc, packDec, packMiss, packHit time.Duration

	buildTime, buildCPU time.Duration
	states, edges       int
	spaceStates         int
	spaceTime           time.Duration
	fullStates          map[string]int // materialized size by system@instance

	enumTime              time.Duration
	specStates            int
	lazySteps, lazyStates int
	lazyTime              time.Duration
	fullSpec              map[string]int // Σd size by prop@instance

	denseTime, inclTime time.Duration
	pairs               int

	otfTime, otfCPU   time.Duration
	otfPairs, otfPeak int
	otfSpec           int
	otfSpecKeys       []specKey // the Σd each on-the-fly check stepped, for the laziness ratio

	lassoTime, liveTime, liveCPU time.Duration
	expanded, probes             int
	liveKeys                     []string // system@instance of each on-the-fly row, for the expanded fraction

	ckptTime, ckptOverhead, resumeTime time.Duration
	snapBytes, resumed                 int

	wireEnc, wireDec    time.Duration
	wireFrames          int
	wireBytes, wireJobs int

	jobdOverhead     []time.Duration
	retries, foreign int
}

func newLayerStats() *layerStats {
	return &layerStats{fullStates: map[string]int{}, fullSpec: map[string]int{}}
}

// metrics renders the per-layer metrics, including each layer's self
// time from the spans, and checks the deterministic totals against
// their pins.
func (L *layerStats) metrics(e *env, workload string) metrics {
	// The laziness ratio's denominator: the full Σd of every on-the-fly
	// check, enumerated after the replay where the workload did not.
	otfSpecAll := 0
	for _, k := range L.otfSpecKeys {
		full, ok := L.fullSpec[k.String()]
		if !ok {
			full = e.enumerate(L, k.prop, k.n, k.k, 1, "probe:spec", 0).NumStates()
		}
		otfSpecAll += full
	}
	m := metrics{}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	m.set("tm.steps", float64(L.tmSteps), "count")
	m.set("tm.step_ns", per(L.tmTime, L.tmCalls), "ns")
	m.set("pack.key_words", float64(L.packKeyWords), "words")
	m.set("pack.encode_ns", per(L.packEnc, L.packEncodes), "ns")
	m.set("pack.decode_ns", per(L.packDec, L.packEncodes), "ns")
	m.set("pack.intern_miss_ns", per(L.packMiss, L.packInterns), "ns")
	m.set("pack.intern_hit_ns", per(L.packHit, L.packInterns), "ns")
	m.set("explore.build_s", L.buildTime.Seconds(), "s")
	m.set("explore.build_cpu_s", L.buildCPU.Seconds(), "s")
	m.set("explore.states", float64(L.states), "count")
	m.set("explore.edges", float64(L.edges), "count")
	m.set("explore.space_ns_per_state", per(L.spaceTime, L.spaceStates), "ns")
	m.set("spec.enumerate_s", L.enumTime.Seconds(), "s")
	m.set("spec.states", float64(L.specStates), "count")
	m.set("spec.lazy_step_ns", per(L.lazyTime, L.lazySteps), "ns")
	m.set("spec.lazy_states", float64(L.lazyStates), "count")
	m.set("automata.dense_nfa_s", L.denseTime.Seconds(), "s")
	m.set("automata.inclusion_s", L.inclTime.Seconds(), "s")
	m.set("automata.pairs", float64(L.pairs), "count")
	m.set("safety.otf_s", L.otfTime.Seconds(), "s")
	m.set("safety.otf_cpu_s", L.otfCPU.Seconds(), "s")
	m.set("safety.otf_pairs", float64(L.otfPairs), "count")
	m.set("safety.otf_frontier_peak", float64(L.otfPeak), "count")
	m.set("safety.otf_spec_fraction", ratio(L.otfSpec, otfSpecAll), "ratio")
	m.set("liveness.lasso_s", L.lassoTime.Seconds(), "s")
	m.set("liveness.otf_s", L.liveTime.Seconds(), "s")
	m.set("liveness.otf_cpu_s", L.liveCPU.Seconds(), "s")
	m.set("liveness.expanded", float64(L.expanded), "count")
	m.set("liveness.probes", float64(L.probes), "count")
	full := 0
	for _, k := range L.liveKeys {
		full += L.fullStates[k]
	}
	m.set("liveness.expanded_fraction", ratio(L.expanded, full), "ratio")
	m.set("snap.checkpoint_s", L.ckptTime.Seconds(), "s")
	m.set("snap.checkpoint_overhead_s", L.ckptOverhead.Seconds(), "s")
	m.set("snap.bytes", float64(L.snapBytes), "bytes")
	m.set("snap.resume_s", L.resumeTime.Seconds(), "s")
	m.set("snap.resumed_states", float64(L.resumed), "count")
	m.set("wire.encode_ns", per(L.wireEnc, L.wireFrames), "ns")
	m.set("wire.decode_ns", per(L.wireDec, L.wireFrames), "ns")
	m.set("wire.bytes_per_job", float64(L.wireBytes)/float64(max(L.wireJobs, 1)), "bytes")
	m.set("jobd.overhead_ms", float64(percentile(L.jobdOverhead, 0.5).Nanoseconds())/1e6, "ms")
	m.set("jobd.retries", float64(L.retries), "count")
	m.set("jobd.foreign_frames", float64(L.foreign), "count")
	self, _, _ := e.tr.selfTimes()
	for _, l := range layers {
		m.set(l+".self_s", self[l].Seconds(), "s")
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"explore.states", L.states}, {"spec.states", L.specStates}, {"automata.pairs", L.pairs},
		{"safety.otf_pairs", L.otfPairs}, {"liveness.expanded", L.expanded}, {"snap.resumed_states", L.resumed},
	} {
		e.oracle.layerCount(workload, c.name, c.v)
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// specKey names a specification at an instance.
type specKey struct {
	prop spec.Property
	n, k int
}

func (k specKey) String() string { return fmt.Sprintf("%s@%d,%d", k.prop.Key(), k.n, k.k) }

// sysKey names a system at an instance.
func sysKey(alg tm.Algorithm, cm tm.ContentionManager) string {
	name := alg.Name()
	if cm != nil {
		name += "+" + cm.Name()
	}
	return fmt.Sprintf("%s@%d,%d", name, alg.Threads(), alg.Vars())
}

// build is explore.BuildGuarded inside an explore span.
func (e *env) build(L *layerStats, alg tm.Algorithm, cm tm.ContentionManager, workers int, check string, parent int) (*explore.TS, error) {
	id := e.tr.begin("explore", "BuildGuarded "+sysKey(alg, cm), check, parent, 1)
	c0 := cpuTime()
	ts, err := explore.BuildGuarded(alg, cm, workers, guard.New(e.ctx, 0, 0))
	L.buildCPU += cpuTime() - c0
	L.buildTime += e.tr.end(id)
	if err != nil {
		return nil, err
	}
	L.states += ts.NumStates()
	L.edges += ts.NumEdges()
	L.fullStates[sysKey(alg, cm)] = ts.NumStates()
	return ts, nil
}

// enumerate is Det.EnumerateWorkers inside a spec span.
func (e *env) enumerate(L *layerStats, prop spec.Property, n, k, workers int, check string, parent int) *automata.DFA {
	id := e.tr.begin("spec", fmt.Sprintf("EnumerateWorkers %s@%d,%d", prop.Key(), n, k), check, parent, 1)
	dfa := spec.NewDet(prop, n, k).EnumerateWorkers(workers)
	L.enumTime += e.tr.end(id)
	L.specStates += dfa.NumStates()
	L.fullSpec[specKey{prop, n, k}.String()] = dfa.NumStates()
	return dfa
}

// include runs the dense inclusion of ts in dfa inside automata spans
// and returns the verdict as the materialized engine reports it.
func (e *env) include(L *layerStats, ts *explore.TS, dfa *automata.DFA, prop spec.Property, check string, parent int) (verdict, error) {
	id := e.tr.begin("automata", "DenseNFA "+ts.Name(), check, parent, 1)
	nfa := ts.DenseNFA()
	L.denseTime += e.tr.end(id)
	id = e.tr.begin("automata", "IncludedInDFADenseGuarded "+ts.Name(), check, parent, 1)
	ok, cex, st, err := automata.IncludedInDFADenseGuarded(nfa, dfa, guard.New(e.ctx, 0, 0))
	L.inclTime += e.tr.end(id)
	if err != nil {
		return verdict{}, err
	}
	L.pairs += st.PairsVisited
	v := verdict{
		System: ts.Name(), Prop: prop.Key(), Engine: "materialized",
		Threads: ts.Alg.Threads(), Vars: ts.Alg.Vars(), Holds: ok,
		TMStates: ts.NumStates(), SpecStates: dfa.NumStates(), Pairs: st.PairsVisited,
	}
	if !ok {
		v.Cex = ts.Alphabet.DecodeWord(cex).String()
	}
	return v, nil
}

// verifyOTF is the flag-free safety entry point inside a safety span.
func (e *env) verifyOTF(L *layerStats, alg tm.Algorithm, cm tm.ContentionManager, prop spec.Property, workers int, check string, parent int) (verdict, error) {
	id := e.tr.begin("safety", "VerifyOpts onthefly "+sysKey(alg, cm)+":"+prop.Key(), check, parent, 1)
	c0 := cpuTime()
	r, err := safety.VerifyOpts(alg, cm, prop, safety.Options{Workers: workers, Engine: safety.EngineOnTheFly, Ctx: e.ctx, NoPhases: true})
	L.otfCPU += cpuTime() - c0
	L.otfTime += e.tr.end(id)
	if err != nil {
		return verdict{}, err
	}
	v := fromSafety(r)
	if v.Holds {
		L.otfPairs += v.Pairs
	}
	L.otfPeak = max(L.otfPeak, r.FrontierPeak)
	L.otfSpec += r.SpecStates
	L.otfSpecKeys = append(L.otfSpecKeys, specKey{prop, alg.Threads(), alg.Vars()})
	return v, nil
}

// lasso runs the three materialized liveness checks on ts inside
// liveness spans.
func (e *env) lasso(L *layerStats, ts *explore.TS, check string, parent int) []verdict {
	var vs []verdict
	for _, c := range []struct {
		name string
		f    func(*explore.TS) liveness.Result
	}{
		{"CheckObstructionFreedom", liveness.CheckObstructionFreedom},
		{"CheckLivelockFreedom", liveness.CheckLivelockFreedom},
		{"CheckWaitFreedom", liveness.CheckWaitFreedom},
	} {
		id := e.tr.begin("liveness", c.name+" "+ts.Name(), check, parent, 1)
		vs = append(vs, fromLiveness(c.f(ts)))
		L.lassoTime += e.tr.end(id)
	}
	return vs
}

// liveOTF runs the on-the-fly liveness engine on all three properties
// inside a liveness span.
func (e *env) liveOTF(L *layerStats, alg tm.Algorithm, cm tm.ContentionManager, workers int, check string, parent int) ([]verdict, error) {
	id := e.tr.begin("liveness", "CheckAllOnTheFlyOpts "+sysKey(alg, cm), check, parent, 1)
	c0 := cpuTime()
	row, err := liveness.CheckAllOnTheFlyOpts(alg, cm, liveness.Options{Workers: workers, Ctx: e.ctx, NoPhases: true})
	L.liveCPU += cpuTime() - c0
	L.liveTime += e.tr.end(id)
	if err != nil {
		return nil, err
	}
	vs := []verdict{fromLiveness(row.Obstruction), fromLiveness(row.Livelock), fromLiveness(row.Wait)}
	for _, v := range vs {
		L.expanded += v.Expanded
		L.liveKeys = append(L.liveKeys, sysKey(alg, cm))
	}
	L.probes += row.Obstruction.Probes + row.Livelock.Probes + row.Wait.Probes
	return vs, nil
}

// probeSystem runs the layer micro-probes on one small system: TM
// stepping and key packing over its reachable TM states, the boxed
// on-the-fly interner, the lazy specification, and a checkpoint/resume
// round trip. ts is the system's materialized transition system.
func (e *env) probeSystem(L *layerStats, ts *explore.TS, parent int) error {
	check := "probe:" + sysKey(ts.Alg, ts.CM)
	states := tmStates(ts)
	e.probeTM(L, ts.Alg, states, ts.Alphabet.Commands(), check, parent)
	if err := e.probePack(L, ts.Alg, ts.CM, states, check, parent); err != nil {
		return err
	}
	e.probeSpace(L, ts.Alg, ts.CM, check, parent)
	return e.probeSnap(L, ts, check, parent)
}

// tmStates collects, untimed, the distinct TM states of the first
// probeCap product states of ts in canonical order.
func tmStates(ts *explore.TS) []tm.State {
	seen := map[tm.State]bool{}
	var out []tm.State
	for i := 0; i < ts.NumStates() && i < probeCap; i++ {
		q := ts.StateAt(int32(i)).TM
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// probeTM times Algorithm.Steps over every collected state × command ×
// thread.
func (e *env) probeTM(L *layerStats, alg tm.Algorithm, states []tm.State, cmds []core.Command, check string, parent int) {
	id := e.tr.begin("tm", "Steps "+alg.Name(), check, parent, 1)
	calls, steps := 0, 0
	for len(states) > 0 && calls < minCalls {
		for _, q := range states {
			for _, c := range cmds {
				for t := 0; t < alg.Threads(); t++ {
					steps += len(alg.Steps(q, c, core.Thread(t)))
					calls++
				}
			}
		}
	}
	L.tmTime += e.tr.end(id)
	L.tmCalls += calls
	L.tmSteps += steps
}

// probePack times the typed stepper, the state codec and the flat
// intern map of a bit-packable TM.
func (e *env) probePack(L *layerStats, alg tm.Algorithm, cm tm.ContentionManager, states []tm.State, check string, parent int) error {
	kw, _, ok := explore.PackedInfo(alg, cm)
	if !ok {
		return fmt.Errorf("%s is not bit-packable", sysKey(alg, cm))
	}
	L.packKeyWords = max(L.packKeyWords, kw)
	switch p := alg.(type) {
	case tm.Packed[tm.SeqState]:
		return probePacked(e, L, p, states, check, parent)
	case tm.Packed[tm.TwoPLState]:
		return probePacked(e, L, p, states, check, parent)
	case tm.Packed[tm.DSTMState]:
		return probePacked(e, L, p, states, check, parent)
	case tm.Packed[tm.TL2State]:
		return probePacked(e, L, p, states, check, parent)
	case tm.Packed[tm.NOrecState]:
		return probePacked(e, L, p, states, check, parent)
	case tm.Packed[tm.ETLState]:
		return probePacked(e, L, p, states, check, parent)
	}
	return fmt.Errorf("%s: no typed state for the pack probe", alg.Name())
}

func probePacked[S comparable](e *env, L *layerStats, p tm.Packed[S], boxed []tm.State, check string, parent int) error {
	typed := make([]S, len(boxed))
	for i, q := range boxed {
		typed[i] = q.(S)
	}
	n := len(typed)
	reps := max(1, minCalls/max(n, 1))
	kw := pack.WordsFor(p.StateBits())
	cmds := core.Alphabet{Threads: p.Threads(), Vars: p.Vars()}.Commands()

	id := e.tr.begin("tm", "StepsP "+p.Name(), check, parent, 1)
	calls, steps := 0, 0
	for n > 0 && calls < minCalls {
		for _, q := range typed {
			for _, c := range cmds {
				for t := 0; t < p.Threads(); t++ {
					steps += p.StepsP(q, c, core.Thread(t), func(tm.XCmd, tm.Resp, S) {})
					calls++
				}
			}
		}
	}
	L.tmTime += e.tr.end(id)
	L.tmCalls += calls
	L.tmSteps += steps

	keys := make([]uint64, kw*n)
	var w pack.Writer
	id = e.tr.begin("pack", "EncodeState "+p.Name(), check, parent, 1)
	for r := 0; r < reps; r++ {
		clear(keys)
		for i, q := range typed {
			w.Reset(keys[i*kw : (i+1)*kw])
			p.EncodeState(q, &w)
		}
	}
	L.packEnc += e.tr.end(id)

	var rd pack.Reader
	bad := 0
	id = e.tr.begin("pack", "DecodeState "+p.Name(), check, parent, 1)
	for r := 0; r < reps; r++ {
		for i := range typed {
			rd.Reset(keys[i*kw : (i+1)*kw])
			if p.DecodeState(&rd) != typed[i] {
				bad++
			}
		}
	}
	L.packDec += e.tr.end(id)
	L.packEncodes += reps * n

	// Fresh maps for every repetition, made untimed, so the miss loop
	// times first sights only.
	maps := make([]*pack.Map, reps)
	for r := range maps {
		maps[r] = pack.NewMap(kw, n)
	}
	id = e.tr.begin("pack", "Map.Intern miss "+p.Name(), check, parent, 1)
	for _, m := range maps {
		for i := 0; i < n; i++ {
			if _, fresh := m.Intern(keys[i*kw : (i+1)*kw]); !fresh {
				bad++
			}
		}
	}
	L.packMiss += e.tr.end(id)
	id = e.tr.begin("pack", "Map.Intern hit "+p.Name(), check, parent, 1)
	for _, m := range maps {
		for i := 0; i < n; i++ {
			if _, fresh := m.Intern(keys[i*kw : (i+1)*kw]); fresh {
				bad++
			}
		}
	}
	L.packHit += e.tr.end(id)
	L.packInterns += reps * n
	if bad > 0 {
		return fmt.Errorf("%s: %d pack round trips or interns disagreed", p.Name(), bad)
	}
	return nil
}

// probeSpace walks the boxed on-the-fly interner (explore.Space)
// breadth-first, up to probeCap states.
func (e *env) probeSpace(L *layerStats, alg tm.Algorithm, cm tm.ContentionManager, check string, parent int) {
	id := e.tr.begin("explore", "Space.Succ "+sysKey(alg, cm), check, parent, 1)
	sp := explore.NewSpace(alg, cm)
	sp.Init()
	n := 0
	for ; n < sp.NumStates() && n < probeCap; n++ {
		sp.Succ(int32(n), func(int16, int32) {})
	}
	L.spaceTime += e.tr.end(id)
	L.spaceStates += n
}

// probeLazy steps the lazy specification breadth-first over every
// letter, up to probeCap states.
func (e *env) probeLazy(L *layerStats, prop spec.Property, n, k int, check string, parent int) {
	id := e.tr.begin("spec", fmt.Sprintf("Lazy.Step %s@%d,%d", prop.Key(), n, k), check, parent, 1)
	lz := spec.NewLazy(spec.NewDet(prop, n, k))
	lz.Init()
	steps := 0
	for s := 0; s < lz.NumStates() && s < probeCap; s++ {
		for l := 0; l < lz.AlphabetSize(); l++ {
			lz.Step(int32(s), l)
			steps++
		}
	}
	L.lazyTime += e.tr.end(id)
	L.lazySteps += steps
	L.lazyStates += lz.NumStates()
}

// probeSnap times a checkpointing build against the plain build of the
// same system, then a resume from the snapshot it wrote.
func (e *env) probeSnap(L *layerStats, ts *explore.TS, check string, parent int) error {
	alg, cm := ts.Alg, ts.CM
	n, k := alg.Threads(), alg.Vars()
	path := filepath.Join(e.dir, fmt.Sprintf("probe-%d.snap", os.Getpid()))
	_ = os.Remove(path)
	defer os.Remove(path)

	t0 := time.Now()
	if _, err := explore.BuildGuarded(alg, cm, 1, guard.New(e.ctx, 0, 0)); err != nil {
		return err
	}
	plain := time.Since(t0)

	id := e.tr.begin("snap", "BuildPersistGuarded checkpoint "+sysKey(alg, cm), check, parent, 1)
	store, err := snap.OpenRun("", path, n, k)
	if err != nil {
		e.tr.end(id)
		return err
	}
	p, err := store.Persist(alg, cm)
	if err == nil {
		_, err = explore.BuildPersistGuarded(alg, cm, 1, guard.New(e.ctx, 0, 0), p)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	d := e.tr.end(id)
	if err != nil {
		return err
	}
	L.ckptTime += d
	L.ckptOverhead += d - plain
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	L.snapBytes += int(fi.Size())

	id = e.tr.begin("snap", "OpenRun+BuildPersistGuarded resume "+sysKey(alg, cm), check, parent, 1)
	store, err = snap.OpenRun(path, "", n, k)
	if err != nil {
		e.tr.end(id)
		return err
	}
	var rts *explore.TS
	if p, err = store.Persist(alg, cm); err == nil {
		rts, err = explore.BuildPersistGuarded(alg, cm, 1, guard.New(e.ctx, 0, 0), p)
	}
	store.Close()
	L.resumeTime += e.tr.end(id)
	if err != nil {
		return err
	}
	L.resumed += rts.Resumed
	if rts.Resumed == 0 || rts.NumStates() != ts.NumStates() {
		return fmt.Errorf("%s: resumed %d states into %d, want %d", sysKey(alg, cm), rts.Resumed, rts.NumStates(), ts.NumStates())
	}
	return nil
}

// probeWire times the wire codec on the run's own frames: a Submit per
// spec and a Result per answer.
func (e *env) probeWire(L *layerStats, specs []job.Spec, results []*job.Result, parent int) error {
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	var frames [][]byte // payloads, for decoding
	for i, sp := range specs {
		msgs := []wire.Msg{wire.Submit{Spec: sp}}
		if i < len(results) && results[i] != nil {
			msgs = append(msgs, wire.ResultMsg{Result: results[i]})
		}
		for _, msg := range msgs {
			buf.Reset()
			if err := c.Write(uint64(i+1), msg); err != nil {
				return err
			}
			L.wireBytes += buf.Len()
			b := append([]byte(nil), buf.Bytes()...)
			_, n := binary.Uvarint(b)
			frames = append(frames, b[n:])
		}
		L.wireJobs++
	}
	reps := max(1, 20_000/max(len(frames), 1))
	id := e.tr.begin("wire", "Conn.Write", "wire", parent, 1)
	for r := 0; r < reps; r++ {
		for i, sp := range specs {
			buf.Reset()
			_ = c.Write(uint64(i+1), wire.Submit{Spec: sp})
			if i < len(results) && results[i] != nil {
				buf.Reset()
				_ = c.Write(uint64(i+1), wire.ResultMsg{Result: results[i]})
			}
		}
	}
	L.wireEnc += e.tr.end(id)
	id = e.tr.begin("wire", "DecodePayload", "wire", parent, 1)
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			if _, _, err := wire.DecodePayload(f); err != nil {
				e.tr.end(id)
				return err
			}
		}
	}
	L.wireDec += e.tr.end(id)
	L.wireFrames += reps * len(frames)
	return nil
}
