package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"tmcheck/internal/core"
	"tmcheck/internal/job"
	"tmcheck/internal/liveness"
	"tmcheck/internal/safety"
)

// verdict is one checked property, whichever path produced it: a
// job.Result row (local or over the wire) or a direct layer call in the
// traced replay.
type verdict struct {
	System, Prop, Engine string
	Threads, Vars        int
	Holds, Limited       bool
	Cex, Loop            string
	// Deterministic work counts (see pins.go).
	TMStates, SpecStates, Pairs, Expanded, Resumed int
}

func (v verdict) key() string {
	return fmt.Sprintf("%s:%s@%d,%d", v.System, v.Prop, v.Threads, v.Vars)
}

func fromCheck(c job.Check) verdict {
	return verdict{
		System: c.System, Prop: c.Prop, Engine: c.Engine,
		Threads: c.Threads, Vars: c.Vars,
		Holds: c.Holds, Limited: c.Limit != nil,
		Cex: c.Counterexample, Loop: c.LoopWord,
		TMStates: c.TMStates, SpecStates: c.SpecStates, Pairs: c.Pairs,
		Expanded: c.Expanded, Resumed: c.Resumed,
	}
}

func fromResult(r *job.Result) []verdict {
	vs := make([]verdict, len(r.Checks))
	for i, c := range r.Checks {
		vs[i] = fromCheck(c)
	}
	return vs
}

func fromSafety(r safety.Result) verdict {
	v := verdict{
		System: r.System, Prop: r.Prop.Key(), Engine: r.Engine.String(),
		Threads: r.Threads, Vars: r.Vars,
		Holds: r.Holds, Limited: r.Limit != nil,
		TMStates: r.TMStates, SpecStates: r.SpecStates, Pairs: r.Inclusion.PairsVisited,
		Resumed: r.Resumed,
	}
	if len(r.Counterexample) > 0 {
		v.Cex = r.Counterexample.String()
	}
	return v
}

func fromLiveness(r liveness.Result) verdict {
	v := verdict{
		System: r.System, Prop: r.Prop.Key(), Engine: r.Engine.String(),
		Threads: r.Threads, Vars: r.Vars,
		Holds: r.Holds, Limited: r.Limit != nil,
		TMStates: r.TMStates, Expanded: r.Expanded, Resumed: r.Resumed,
	}
	if len(r.Loop) > 0 {
		v.Loop = r.LoopWord()
	}
	return v
}

// expected is the hand-written verdict table: the paper's Table 2
// (safety at (2,2)) and Table 3 (liveness at (2,1), which the paper's
// reduction carries to (3,2)), plus the extension-TM and (2,3)
// expectations the repository's tests assert.
var expected = map[string]bool{}

func init() {
	for _, n := range [][2]int{{2, 1}, {2, 2}, {2, 3}} {
		for _, sys := range []string{"seq", "2pl", "dstm", "tl2", "norec", "etl"} {
			for _, p := range []string{"ss", "op"} {
				expected[fmt.Sprintf("%s:%s@%d,%d", sys, p, n[0], n[1])] = true
			}
		}
		// Modified TL2 with the polite manager is not even strictly
		// serializable (the paper's w1).
		expected[fmt.Sprintf("modtl2+polite:ss@%d,%d", n[0], n[1])] = false
		expected[fmt.Sprintf("modtl2+polite:op@%d,%d", n[0], n[1])] = false
	}
	for _, n := range [][2]int{{2, 1}, {3, 2}} {
		for _, sys := range []string{"seq", "2pl", "dstm+aggressive", "tl2+polite"} {
			// Only DSTM with the aggressive manager is obstruction
			// free; no system is livelock or wait free.
			expected[fmt.Sprintf("%s:obstruction@%d,%d", sys, n[0], n[1])] = sys == "dstm+aggressive"
			expected[fmt.Sprintf("%s:livelock@%d,%d", sys, n[0], n[1])] = false
			expected[fmt.Sprintf("%s:wait@%d,%d", sys, n[0], n[1])] = false
		}
	}
}

// oracle judges every job of a run and keeps the tally the result line
// reports: one attempt per job, one failure per job with any miss.
type oracle struct {
	mu                sync.Mutex // the service clients judge concurrently
	attempted, failed int
	misses            []string
	record            bool           // collecting pins instead of checking them (--pins)
	seen              map[string]pin // counts observed, by pin key
	layers            map[string]int // layer counts observed (traced runs)
}

func newOracle(record bool) *oracle {
	return &oracle{record: record, seen: map[string]pin{}, layers: map[string]int{}}
}

// job judges one job's verdicts (or its error) and counts the attempt.
func (o *oracle) job(id string, vs []verdict, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	var miss []string
	if err != nil {
		miss = append(miss, "error: "+err.Error())
	}
	for _, v := range vs {
		miss = append(miss, o.check(v)...)
	}
	if err == nil && len(vs) == 0 {
		miss = append(miss, "no verdicts")
	}
	return o.tally(id, miss)
}

// twin judges a resume job against its checkpoint twin: the resumed run
// must seed from the snapshot and reach the identical verdict.
func (o *oracle) twin(id string, ckpt, resumed []verdict, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	var miss []string
	if err != nil {
		miss = append(miss, "error: "+err.Error())
	}
	for _, v := range resumed {
		miss = append(miss, o.check(v)...)
	}
	if err == nil {
		if len(ckpt) != len(resumed) || len(resumed) == 0 {
			miss = append(miss, fmt.Sprintf("resume reported %d checks, checkpoint %d", len(resumed), len(ckpt)))
		}
		for i := 0; i < len(ckpt) && i < len(resumed); i++ {
			c, r := ckpt[i], resumed[i]
			if r.Resumed <= 0 {
				miss = append(miss, r.key()+": resume seeded no states")
			}
			if c.Holds != r.Holds || c.Cex != r.Cex || c.TMStates != r.TMStates {
				miss = append(miss, fmt.Sprintf("%s: resume verdict %v/%q/%d differs from checkpoint %v/%q/%d",
					r.key(), r.Holds, r.Cex, r.TMStates, c.Holds, c.Cex, c.TMStates))
			}
			miss = append(miss, o.count(pinKey(r)+"/resume", pin{Resumed: r.Resumed})...)
		}
	}
	return o.tally(id, miss)
}

// probe judges the verdicts of a layer probe that the table covers; a
// probe also runs properties the paper does not tabulate for its
// system (liveness of an unmanaged TM), which only the determinism
// check within the run sees. A probe is not a job of the workload, so
// it only counts when it misses.
func (o *oracle) probe(id string, vs []verdict) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var miss []string
	for _, v := range vs {
		if _, ok := expected[v.key()]; ok {
			miss = append(miss, o.check(v)...)
		}
	}
	if len(miss) > 0 {
		o.attempted++
		o.tally(id, miss)
	}
}

func (o *oracle) tally(id string, miss []string) bool {
	if len(miss) == 0 {
		return true
	}
	o.failed++
	for _, m := range miss {
		o.misses = append(o.misses, id+": "+m)
	}
	return false
}

// check compares one verdict with the table, re-checks its
// counterexample with the conflict-graph oracle (which does not use the
// specification automata) and compares its deterministic counts with
// the pins.
func (o *oracle) check(v verdict) []string {
	k := v.key()
	if v.Limited {
		return []string{k + ": stopped at a resource limit"}
	}
	want, ok := expected[k]
	if !ok {
		return []string{k + ": no expected verdict"}
	}
	if v.Holds != want {
		return []string{fmt.Sprintf("%s: holds=%v, want %v (cex %q, loop %q)", k, v.Holds, want, v.Cex, v.Loop)}
	}
	var miss []string
	if !v.Holds {
		miss = append(miss, recheck(v)...)
	}
	return append(miss, o.count(pinKey(v), pinOf(v))...)
}

// recheck validates a violation independently: a safety counterexample
// must be rejected by the conflict-graph oracle, a liveness violation
// must come with a loop.
func recheck(v verdict) []string {
	switch v.Prop {
	case "ss", "op":
		w, err := core.ParseWord(v.Cex)
		if err != nil || len(w) == 0 {
			return []string{fmt.Sprintf("%s: unparsable counterexample %q: %v", v.key(), v.Cex, err)}
		}
		if (v.Prop == "ss" && core.IsStrictlySerializable(w)) || (v.Prop == "op" && core.IsOpaque(w)) {
			return []string{fmt.Sprintf("%s: counterexample %q satisfies the property", v.key(), v.Cex)}
		}
	default:
		if v.Loop == "" {
			return []string{v.key() + ": violation without a loop word"}
		}
	}
	return nil
}

// count compares observed counts with the pin under key (or records
// them with --pins). A changed count is a failure: the counts are
// deterministic functions of the instance, so a change means the
// program explores a different system.
func (o *oracle) count(key string, got pin) []string {
	if prev, ok := o.seen[key]; ok && prev != got {
		return []string{fmt.Sprintf("%s: counts %+v differ from %+v earlier in this run", key, got, prev)}
	}
	o.seen[key] = got
	if o.record {
		return nil
	}
	want, ok := pins[key]
	if !ok {
		return []string{key + ": no pinned counts (regenerate pins.go with --pins)"}
	}
	if want != got {
		return []string{fmt.Sprintf("%s: counts %+v, pinned %+v", key, got, want)}
	}
	return nil
}

// layerCount checks a deterministic per-layer total of a traced run
// against its pin.
func (o *oracle) layerCount(workload, name string, got int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := workload + "/" + name
	o.layers[key] = got
	if o.record {
		return
	}
	o.attempted++
	want, ok := layerPins[key]
	switch {
	case !ok:
		o.tally(key, []string{"no pinned layer count (regenerate pins.go with --pins)"})
	case want != got:
		o.tally(key, []string{fmt.Sprintf("layer count %d, pinned %d", got, want)})
	}
}

// report prints the misses (at most 20) to w.
func (o *oracle) report(w io.Writer) {
	for i, m := range o.misses {
		if i == 20 {
			fmt.Fprintf(w, "... %d more\n", len(o.misses)-i)
			break
		}
		fmt.Fprintf(w, "MISS %s\n", m)
	}
}

// printPins writes the counts this run observed in the syntax of
// pins.go.
func (o *oracle) printPins(w io.Writer) {
	keys := make([]string, 0, len(o.seen))
	for k := range o.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := o.seen[k]
		var f []string
		for _, x := range []struct {
			n string
			v int
		}{{"TM", p.TM}, {"Spec", p.Spec}, {"Pairs", p.Pairs}, {"Expanded", p.Expanded}, {"Resumed", p.Resumed}} {
			if x.v != 0 {
				f = append(f, fmt.Sprintf("%s: %d", x.n, x.v))
			}
		}
		fmt.Fprintf(w, "\t%q: {%s},\n", k, strings.Join(f, ", "))
	}
	keys = keys[:0]
	for k := range o.layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "\t%q: %d,\n", k, o.layers[k])
	}
}
