package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tmcheck/internal/job"
	"tmcheck/internal/jobd"
	"tmcheck/internal/snap"
	"tmcheck/internal/wire"
)

const (
	// clients is the number of closed-loop client connections, one per
	// CPU of the reference machine.
	clients = 2
	// serviceSetupReps is how many times the service set-up (daemon
	// start and dials) is repeated; setup_s is the median.
	serviceSetupReps = 21
)

var serviceSnap = workload{
	name:    "service-snap",
	workers: func() int { return 1 },
	measure: measureService,
	trace:   traceService,
}

// card is one draw of a client's deck.
type card uint8

const (
	cardCheckpoint card = iota // tl2 (2,2) materialized safety with Checkpoint, then its Resume twin
	cardLiveness               // dstm+aggressive (2,1) liveness
	cardOTF                    // dstm (2,1) on-the-fly safety
)

// deck is one round of a client, so each round has the same job mix
// and only the order depends on the seed. Of its six jobs one is
// liveness, one on-the-fly safety, two checkpoints and two resumes: the
// median falls inside the resumes and p90 inside the checkpoints, jobs
// whose own work dwarfs the scheduling noise of millisecond jobs, and
// neither falls on the edge between two kinds of job.
var deck = []card{cardCheckpoint, cardCheckpoint, cardLiveness, cardOTF}

// serviceSystems labels the systems service jobs run, as progress
// frames name them.
var serviceSystems = map[string]bool{"tl2": true, "dstm+aggressive": true, "dstm": true}

// service is an in-process tmcheckd on loopback with its clients.
type service struct {
	srv     *jobd.Server
	addr    string
	dir     string
	clients []*wire.Client
	rngs    []*rand.Rand
	seq     []int // per-client snapshot name counter
}

func startService(e *env) (*service, error) {
	dir, err := os.MkdirTemp(e.dir, "snapdir-")
	if err != nil {
		return nil, err
	}
	// Snapshots are fsynced once, at close: every record is still
	// written, but the run does not time the shared disk's fsync
	// latency once per level.
	cfg := jobd.Config{Jobs: clients, SnapDir: dir, SnapSync: snap.SyncNone}
	s := &service{dir: dir, srv: jobd.New(cfg), seq: make([]int, clients)}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.addr = addr.String()
	for i := 0; i < clients; i++ {
		c, err := wire.Dial(s.addr)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
		s.rngs = append(s.rngs, rand.New(rand.NewSource(e.seed*clients+int64(i))))
	}
	return s, nil
}

// stop closes the clients, drains the daemon and removes its directory.
func (s *service) stop() {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	os.RemoveAll(s.dir)
}

// setupService starts the service serviceSetupReps times, keeping the
// last one, and records each start's duration.
func setupService(e *env, st *runStats) (*service, error) {
	var s *service
	for r := 0; r < serviceSetupReps; r++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = startService(e); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0))
	}
	return s, nil
}

// roundLog is what one client round observed, merged after the round.
type roundLog struct {
	lat      []time.Duration
	specs    []job.Spec
	results  []*job.Result
	overhead []time.Duration
	retries  int
	foreign  int
}

// round runs one deck on every client concurrently and waits for all.
func (s *service) round(e *env, st *runStats, L *layerStats) ([]job.Spec, []*job.Result) {
	logs := make([]roundLog, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.clientRound(e, i, &logs[i])
		}(i)
	}
	wg.Wait()
	var specs []job.Spec
	var results []*job.Result
	for _, lg := range logs {
		st.jobs = append(st.jobs, lg.lat...)
		specs = append(specs, lg.specs...)
		results = append(results, lg.results...)
		if L != nil {
			L.jobdOverhead = append(L.jobdOverhead, lg.overhead...)
			L.retries += lg.retries
			L.foreign += lg.foreign
		}
	}
	return specs, results
}

// clientRound draws a shuffled deck and runs it as a closed loop: each
// job is submitted when the previous one has answered.
func (s *service) clientRound(e *env, cl int, lg *roundLog) {
	cards := append([]card(nil), deck...)
	rng := s.rngs[cl]
	rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	for _, c := range cards {
		switch c {
		case cardCheckpoint:
			s.seq[cl]++
			name := fmt.Sprintf("c%d-%d.snap", cl, s.seq[cl])
			sp := job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "op", Threads: 2, Vars: 2,
				Engine: "materialized", Workers: 1, Checkpoint: name}
			sp.Normalize()
			res, err := s.call(e, cl, sp, lg)
			ckpt := verdictsOf(res)
			e.oracle.job(specName(sp)+" checkpoint", ckpt, err)
			sp.Checkpoint, sp.Resume = "", name
			res, err = s.call(e, cl, sp, lg)
			e.oracle.twin(specName(sp)+" resume", ckpt, verdictsOf(res), err)
			_ = os.Remove(filepath.Join(s.dir, name))
		case cardLiveness:
			sp := job.Spec{Kind: job.KindLiveness, TM: "dstm", CM: "aggressive", Threads: 2, Vars: 1, Workers: 1}
			sp.Normalize()
			res, err := s.call(e, cl, sp, lg)
			e.oracle.job(specName(sp), verdictsOf(res), err)
		case cardOTF:
			sp := job.Spec{Kind: job.KindSafety, TM: "dstm", Prop: "op", Threads: 2, Vars: 1, Workers: 1}
			sp.Normalize()
			res, err := s.call(e, cl, sp, lg)
			e.oracle.job(specName(sp), verdictsOf(res), err)
		}
	}
}

func verdictsOf(res *job.Result) []verdict {
	if res == nil {
		return nil
	}
	return fromResult(res)
}

// call submits one job on client cl's connection and logs its latency.
// A lost connection is redialed and the job resubmitted through the
// self-healing wire.RunRetry; every redial counts as a retry.
func (s *service) call(e *env, cl int, sp job.Spec, lg *roundLog) (*job.Result, error) {
	own := sp.TM
	if sp.CM != "" {
		own += "+" + sp.CM
	}
	onProgress := func(p wire.Progress) {
		if sys := frameSystem(p.Name); serviceSystems[sys] && sys != own {
			lg.foreign++
		}
	}
	var id int
	if e.tr != nil {
		id = e.tr.begin("jobd", "Client.Run "+specName(sp), specName(sp), 0, cl+2)
	}
	t0 := time.Now()
	res, err := s.clients[cl].Run(e.ctx, sp, onProgress)
	if errors.Is(err, wire.ErrLost) {
		if c, derr := wire.Dial(s.addr); derr == nil {
			s.clients[cl].Close()
			s.clients[cl] = c
		}
		lg.retries++
		res, err = wire.RunRetry(e.ctx, s.addr, sp, wire.RetryConfig{Logf: func(string, ...any) { lg.retries++ }}, onProgress)
	}
	lat := time.Since(t0)
	if e.tr != nil {
		e.tr.end(id)
	}
	lg.lat = append(lg.lat, lat)
	lg.specs = append(lg.specs, sp)
	lg.results = append(lg.results, res)
	if res != nil {
		lg.overhead = append(lg.overhead, lat-engineTime(res))
	}
	return res, err
}

// frameSystem extracts the system a progress frame names: explorations
// name the system ("tl2+polite"), the on-the-fly safety search names
// the engine, system and property ("otf:dstm:op").
func frameSystem(name string) string {
	name = strings.TrimPrefix(name, "otf:")
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	return name
}

func measureService(e *env) (*runStats, error) {
	st := &runStats{}
	s, err := setupService(e, st)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	e.passes(st, func() (time.Duration, time.Duration) {
		c0, t0 := cpuTime(), time.Now()
		s.round(e, st, nil)
		return time.Since(t0), cpuTime() - c0
	})
	return st, nil
}

// traceService is the traced run of the service workload: an untraced
// round as the reference, a traced round with a jobd span per job and
// progress-frame attribution, then the layer probes on the service's
// systems and the wire codec on the traced round's own frames.
func traceService(e *env) (metrics, error) {
	st := &runStats{}
	s, err := setupService(e, st)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	t0 := time.Now()
	s.round(e, st, nil)
	untraced := time.Since(t0)

	L := newLayerStats()
	t0 = time.Now()
	specs, results := s.round(e, st, L)
	traced := time.Since(t0)

	probes := []probeSys{{system{"tl2", ""}, 2, 2}, {system{"dstm", "aggressive"}, 2, 1}, {system{"dstm", ""}, 2, 1}}
	if err := e.probeAll(L, probes); err != nil {
		return nil, err
	}
	if err := e.probeWire(L, specs, results, 0); err != nil {
		return nil, err
	}
	m := L.metrics(e, "service-snap")
	m.set("trace.wall_s", traced.Seconds(), "s")
	m.set("trace.overhead_s", (traced - untraced).Seconds(), "s")
	return m, nil
}
