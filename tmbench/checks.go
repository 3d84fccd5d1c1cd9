package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"tmcheck/internal/job"
	"tmcheck/internal/jobd"
	"tmcheck/internal/liveness"
	"tmcheck/internal/parbfs"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
	"tmcheck/internal/wire"
)

// setupReps is how many times a check workload repeats its set-up; the
// reported setup_s is the median.
const setupReps = 200

var safetyOTF = workload{
	name:    "safety-otf",
	workers: parbfs.Workers,
	measure: func(e *env) (*runStats, error) { return measureChecks(e, otfPool) },
	trace: func(e *env) (metrics, error) {
		return traceChecks(e, "safety-otf", otfPool, safetyProbes(otfSystems), safetyJobdProbe(otfSystems))
	},
}

var safetyMat = workload{
	name:    "safety-mat",
	workers: func() int { return 1 },
	measure: func(e *env) (*runStats, error) { return measureChecks(e, matPool) },
	trace: func(e *env) (metrics, error) {
		return traceChecks(e, "safety-mat", matPool, safetyProbes(matSystems), safetyJobdProbe(matSystems))
	},
}

var liveness32 = workload{
	name:    "liveness-32",
	workers: parbfs.Workers,
	measure: func(e *env) (*runStats, error) { return measureChecks(e, livePool) },
	trace: func(e *env) (metrics, error) {
		var probes []probeSys
		var jobs []job.Spec
		for _, s := range liveSystems {
			probes = append(probes, probeSys{s, 2, 1})
			jobs = append(jobs, job.Spec{Kind: job.KindLiveness, TM: s.tm, CM: s.cm, Threads: 2, Vars: 1, Workers: 1})
		}
		return traceChecks(e, "liveness-32", livePool, probes, jobs)
	},
}

// system is a TM and optional contention manager by registry name.
type system struct{ tm, cm string }

func (s system) resolve(n, k int) (tm.Algorithm, tm.ContentionManager, error) {
	alg, err := tm.NewAlgorithm(s.tm, n, k)
	if err != nil {
		return nil, nil, err
	}
	cm, err := tm.NewContentionManager(s.cm)
	return alg, cm, err
}

var (
	otfSystems  = []system{{"dstm", ""}, {"tl2", ""}, {"norec", ""}, {"etl", ""}, {"modtl2", "polite"}}
	matSystems  = []system{{"seq", ""}, {"2pl", ""}, {"dstm", ""}, {"tl2", ""}, {"modtl2", "polite"}}
	liveSystems = []system{{"seq", ""}, {"2pl", ""}, {"dstm", "aggressive"}, {"tl2", "polite"}}
)

// otfPool is the flag-free safety path: on the fly, at the default
// worker count.
func otfPool() []job.Spec {
	var p []job.Spec
	for _, s := range otfSystems {
		for _, prop := range []string{"ss", "op"} {
			p = append(p, job.Spec{Kind: job.KindSafety, TM: s.tm, CM: s.cm, Prop: prop, Threads: 2, Vars: 2})
		}
	}
	return append(p,
		job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 2, Vars: 3},
		job.Spec{Kind: job.KindSafety, TM: "modtl2", CM: "polite", Prop: "ss", Threads: 2, Vars: 3})
}

// matPool is Table 2 through the materialized engine on one worker.
func matPool() []job.Spec {
	var p []job.Spec
	for _, s := range matSystems {
		for _, prop := range []string{"ss", "op"} {
			p = append(p, job.Spec{Kind: job.KindSafety, TM: s.tm, CM: s.cm, Prop: prop, Threads: 2, Vars: 2, Engine: "materialized", Workers: 1})
		}
	}
	return append(p, job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "op", Threads: 2, Vars: 3, Engine: "materialized", Workers: 1})
}

// livePool is Table 3 at (3,2) with both liveness engines.
func livePool() []job.Spec {
	return []job.Spec{
		{Kind: job.KindTable3, Threads: 3, Vars: 2},
		{Kind: job.KindTable3, Threads: 3, Vars: 2, Engine: "materialized"},
	}
}

func specName(sp job.Spec) string {
	name := sp.Kind.String()
	if sp.TM != "" {
		name += " " + sp.TM
		if sp.CM != "" {
			name += "+" + sp.CM
		}
	}
	if sp.Prop != "" {
		name += ":" + sp.Prop
	}
	return fmt.Sprintf("%s@%d,%d/%s", name, sp.Threads, sp.Vars, sp.Engine)
}

// setupChecks generates the workload's specs in seed order and
// validates them, setupReps times, recording each set-up's duration.
func setupChecks(e *env, pool func() []job.Spec, st *runStats) ([]job.Spec, error) {
	var specs []job.Spec
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		specs = pool()
		rand.New(rand.NewSource(e.seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		for i := range specs {
			specs[i].Normalize()
			if err := specs[i].Validate(); err != nil {
				return nil, err
			}
		}
		st.setup = append(st.setup, time.Since(t0))
	}
	return specs, nil
}

// runPass submits every spec through job.Run, timing each job and
// judging its verdicts. It returns the pass's wall and CPU time: the
// sums over its jobs, without the heap resets between them.
func runPass(e *env, specs []job.Spec, st *runStats) (results []*job.Result, wall, cpu time.Duration) {
	results = make([]*job.Result, len(specs))
	for i, sp := range specs {
		freshHeap()
		c0, t0 := cpuTime(), time.Now()
		res, err := job.Run(e.ctx, sp)
		lat := time.Since(t0)
		cpu += cpuTime() - c0
		wall += lat
		st.jobs = append(st.jobs, lat)
		results[i] = res
		var vs []verdict
		if res != nil {
			vs = fromResult(res)
		}
		e.oracle.job(specName(sp), vs, err)
	}
	return results, wall, cpu
}

// freshHeap collects the previous job's garbage and returns the freed
// memory to the OS before the next job, as if each check ran in a
// process of its own the way a tmcheck invocation does. Without it a
// check's time would depend on which checks the seed put before it.
func freshHeap() { debug.FreeOSMemory() }

func measureChecks(e *env, pool func() []job.Spec) (*runStats, error) {
	st := &runStats{}
	specs, err := setupChecks(e, pool, st)
	if err != nil {
		return nil, err
	}
	e.passes(st, func() (time.Duration, time.Duration) {
		_, wall, cpu := runPass(e, specs, st)
		return wall, cpu
	})
	return st, nil
}

// traceChecks is the traced run of a check workload: one untraced pass
// as the reference, the same checks replayed through the layers' public
// functions with a span per call, then the layer probes.
func traceChecks(e *env, name string, pool func() []job.Spec, probes []probeSys, jobdJobs []job.Spec) (metrics, error) {
	st := &runStats{}
	specs, err := setupChecks(e, pool, st)
	if err != nil {
		return nil, err
	}
	results, untraced, _ := runPass(e, specs, st)
	L := newLayerStats()
	var traced time.Duration
	for _, sp := range specs {
		freshHeap()
		traced += e.replay(L, sp)
	}

	if err := e.probeAll(L, probes); err != nil {
		return nil, err
	}
	if err := e.probeWire(L, specs, results, 0); err != nil {
		return nil, err
	}
	if err := e.probeJobd(L, jobdJobs); err != nil {
		return nil, err
	}
	m := L.metrics(e, name)
	m.set("trace.wall_s", traced.Seconds(), "s")
	m.set("trace.overhead_s", (traced - untraced).Seconds(), "s")
	return m, nil
}

// replay runs one spec through the layer entry points job.Run would
// reach, each inside a span, judges the verdicts and returns the time
// the replay took.
func (e *env) replay(L *layerStats, sp job.Spec) time.Duration {
	check := specName(sp)
	root := e.tr.begin("job", check, check, 0, 1)
	var vs []verdict
	var err error
	switch sp.Kind {
	case job.KindSafety:
		vs, err = e.replaySafety(L, sp, check, root)
	case job.KindTable3:
		vs, err = e.replayTable3(L, sp, check, root)
	default:
		err = fmt.Errorf("no replay for %s", check)
	}
	d := e.tr.end(root)
	e.oracle.job(check+" (replay)", vs, err)
	return d
}

func (e *env) replaySafety(L *layerStats, sp job.Spec, check string, root int) ([]verdict, error) {
	alg, cm, err := system{sp.TM, sp.CM}.resolve(sp.Threads, sp.Vars)
	if err != nil {
		return nil, err
	}
	prop := spec.Opacity
	if sp.Prop == "ss" {
		prop = spec.StrictSerializability
	}
	workers := sp.Workers
	if workers <= 0 {
		workers = parbfs.Workers()
	}
	if sp.Engine == "onthefly" {
		v, err := e.verifyOTF(L, alg, cm, prop, workers, check, root)
		return []verdict{v}, err
	}
	ts, err := e.build(L, alg, cm, workers, check, root)
	if err != nil {
		return nil, err
	}
	dfa := e.enumerate(L, prop, sp.Threads, sp.Vars, workers, check, root)
	v, err := e.include(L, ts, dfa, prop, check, root)
	return []verdict{v}, err
}

// replayTable3 runs the Table 3 rows one after another, each on one
// worker, as the keep-going Table 3 code runs a row.
func (e *env) replayTable3(L *layerStats, sp job.Spec, check string, root int) ([]verdict, error) {
	var vs []verdict
	for _, s := range liveness.PaperSystems(sp.Threads, sp.Vars) {
		if sp.Engine == "onthefly" {
			row, err := e.liveOTF(L, s.Alg, s.CM, 1, check, root)
			if err != nil {
				return nil, err
			}
			vs = append(vs, row...)
			continue
		}
		ts, err := e.build(L, s.Alg, s.CM, 1, check, root)
		if err != nil {
			return nil, err
		}
		vs = append(vs, e.lasso(L, ts, check, root)...)
	}
	return vs, nil
}

// probeSys is a probe system at an instance.
type probeSys struct {
	system
	n, k int
}

func safetyProbes(systems []system) []probeSys {
	var out []probeSys
	for _, s := range systems {
		out = append(out, probeSys{s, 2, 2})
	}
	return out
}

func safetyJobdProbe(systems []system) []job.Spec {
	var out []job.Spec
	for _, s := range systems {
		out = append(out, job.Spec{Kind: job.KindSafety, TM: s.tm, CM: s.cm, Prop: "op", Threads: 2, Vars: 2, Workers: 1})
	}
	return out
}

// probeAll runs every layer on each probe system: build, enumeration
// and inclusion for both safety properties, the on-the-fly safety and
// liveness engines, the lasso checks, and the micro-probes of
// probeSystem; then the lazy specification once per instance.
func (e *env) probeAll(L *layerStats, probes []probeSys) error {
	lazyDone := map[[2]int]bool{}
	for _, p := range probes {
		alg, cm, err := p.resolve(p.n, p.k)
		if err != nil {
			return err
		}
		check := "probe:" + sysKey(alg, cm)
		root := e.tr.begin("job", check, check, 0, 1)
		ts, err := e.build(L, alg, cm, 1, check, root)
		if err != nil {
			e.tr.end(root)
			return err
		}
		var vs []verdict
		for _, prop := range []spec.Property{spec.StrictSerializability, spec.Opacity} {
			dfa := e.enumerate(L, prop, p.n, p.k, 1, check, root)
			v, err := e.include(L, ts, dfa, prop, check, root)
			if err == nil {
				vs = append(vs, v)
				v, err = e.verifyOTF(L, alg, cm, prop, 1, check, root)
			}
			if err != nil {
				e.tr.end(root)
				return err
			}
			vs = append(vs, v)
		}
		vs = append(vs, e.lasso(L, ts, check, root)...)
		row, err := e.liveOTF(L, alg, cm, 1, check, root)
		if err == nil {
			vs = append(vs, row...)
			err = e.probeSystem(L, ts, root)
		}
		e.tr.end(root)
		if err != nil {
			return err
		}
		e.oracle.probe(check, vs)
		if !lazyDone[[2]int{p.n, p.k}] {
			lazyDone[[2]int{p.n, p.k}] = true
			e.probeLazy(L, spec.Opacity, p.n, p.k, check, 0)
		}
	}
	return nil
}

// probeJobd runs small jobs through an in-process daemon on loopback
// and charges the client latency the engines did not account for to
// the daemon and wire layers.
func (e *env) probeJobd(L *layerStats, specs []job.Spec) error {
	srv := jobd.New(jobd.Config{Jobs: 1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := wire.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	for _, sp := range specs {
		id := e.tr.begin("jobd", "Client.Run "+specName(sp), "jobd", 0, 1)
		t0 := time.Now()
		res, err := c.Run(e.ctx, sp, nil)
		lat := time.Since(t0)
		e.tr.end(id)
		var vs []verdict
		if res != nil {
			vs = fromResult(res)
			L.jobdOverhead = append(L.jobdOverhead, lat-engineTime(res))
		}
		e.oracle.job(specName(sp)+" (jobd probe)", vs, err)
	}
	return nil
}

// engineTime is the time the job's own stage timers account for.
func engineTime(res *job.Result) time.Duration {
	var sum, longest int64
	for _, c := range res.Checks {
		d := c.ElapsedNS + c.BuildTMNS + c.BuildSpecNS
		sum += d
		longest = max(longest, d)
	}
	// The on-the-fly liveness engine resolves the three properties in
	// one search and times each from its start.
	if res.Spec.Kind == job.KindLiveness && res.Spec.Engine == "onthefly" {
		return time.Duration(longest)
	}
	return time.Duration(sum)
}
