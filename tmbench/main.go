// Command tmbench is the tmcheck benchmark. It runs one named workload
// for a fixed time, checks every verdict against a hand-written oracle,
// and prints its metrics as the last line of standard output:
//
//	tmbench --workload safety-otf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of tmcheck
// or tmcheckd sees (setup, pass wall and CPU time, peak RSS, job
// throughput and latency). With --trace 1 the run replays the workload
// through each layer's public functions, records one span per layer
// call, writes the spans as Chrome trace-event JSON and prints the
// per-layer metrics and self times. LAYERS.md maps each layer metric to
// the end-to-end metric and workload it should move.
//
// The program under test is only handed the generated job.Specs; the
// seed fixes their order and the service clients' job draws.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark input set.
type workload struct {
	name string
	// workers is the engine worker count the workload's jobs resolve
	// to, recorded with every result so a 1-CPU figure cannot pass for
	// a 2-CPU one.
	workers func() int
	// measure runs the untraced workload and returns its end-to-end
	// figures; trace runs the traced replay and returns the per-layer
	// metrics.
	measure func(e *env) (*runStats, error)
	trace   func(e *env) (metrics, error)
}

var workloads = []workload{safetyOTF, safetyMat, liveness32, serviceSnap}

// env is what every workload runner gets: the run's parameters, the
// verdict oracle and, when tracing, the span recorder.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory for snapshots and trace output
	oracle  *oracle
	tr      *tracer // nil when untraced
	ctx     context.Context
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runStats collects the end-to-end measurements of one untraced run.
type runStats struct {
	setup []time.Duration // one per repeated set-up
	wall  []time.Duration // one per pass
	cpu   []time.Duration // one per pass
	jobs  []time.Duration // client-side latency of every job
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("tmbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: safety-otf, safety-mat, liveness-32 or service-snap")
	seed := fl.Int64("seed", 1, "seed fixing the check order and the service clients' job draws")
	seconds := fl.Float64("seconds", 20, "how long to measure")
	traceFlag := fl.Int("trace", 0, "1 replays the workload layer by layer and prints per-layer metrics")
	dir := fl.String("dir", ".bench_build", "scratch directory for snapshots and the trace file")
	pins := fl.Bool("pins", false, "print the deterministic counts this run observed as Go source, for updating pins.go")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "tmbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     *dir,
		oracle:  newOracle(*pins),
		ctx:     context.Background(),
	}
	info := runInfo(w, *seed, *traceFlag == 1)
	infoLine, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "run %s\n", infoLine)

	var m metrics
	var err error
	if *traceFlag == 1 {
		e.tr = newTracer()
		m, err = w.trace(e)
		if err == nil {
			path := filepath.Join(*dir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
			if werr := e.tr.writeChrome(path, info); werr != nil {
				err = werr
			} else {
				fmt.Fprintf(stdout, "trace written to %s (load in Perfetto)\n", path)
			}
			e.tr.printSelfTimes(stdout)
		}
	} else {
		var st *runStats
		st, err = w.measure(e)
		if err == nil {
			m = st.endToEnd(stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %s: %v\n", w.name, err)
		return 1
	}
	if *pins {
		e.oracle.printPins(stdout)
	}
	res := result{
		Correct:   e.oracle.failed == 0 && e.oracle.attempted > 0,
		Attempted: e.oracle.attempted,
		Failed:    e.oracle.failed,
		Metrics:   m,
	}
	e.oracle.report(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runInfo is the provenance recorded with every result: a figure is
// comparable to another only when these match.
func runInfo(w *workload, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    w.workers(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

// commit is the revision the benchmark was started from: TMBENCH_COMMIT
// when the caller knows it (run.sh sets it from git when the checkout
// is a repository), otherwise "unknown" — sourceDigest still pins the
// code that ran.
func commit() string {
	if c := os.Getenv("TMBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module file of the tree under
// the working directory (build output excluded), identifying the code
// under test even in a checkout that is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEnd turns the run's samples into the end-to-end metrics and
// prints the sample counts the percentiles rest on.
func (st *runStats) endToEnd(w io.Writer) metrics {
	var total time.Duration
	for _, d := range st.wall {
		total += d
	}
	p50, p90 := percentile(st.jobs, 0.50), percentile(st.jobs, 0.90)
	fmt.Fprintf(w, "samples: %d set-ups, %d passes, %d jobs (%d beyond p90)\n",
		len(st.setup), len(st.wall), len(st.jobs), len(st.jobs)-int(math.Ceil(0.9*float64(len(st.jobs)))))
	m := metrics{}
	m.set("setup_s", percentile(st.setup, 0.5).Seconds(), "s")
	m.set("wall_s", percentile(st.wall, 0.5).Seconds(), "s")
	m.set("cpu_s", percentile(st.cpu, 0.5).Seconds(), "s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("jobs_per_s", float64(len(st.jobs))/total.Seconds(), "1/s")
	m.set("job_p50_ms", float64(p50)/1e6, "ms")
	m.set("job_p90_ms", float64(p90)/1e6, "ms")
	return m
}

// percentile is the p-quantile of ds, interpolated linearly between the
// two nearest order statistics. Interpolation keeps a percentile that
// falls between two kinds of job in a fixed mix from jumping to either.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((h-float64(lo))*float64(s[lo+1]-s[lo]))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// minPasses is the fewest passes a run makes, so a pass longer than the
// run's time still gets a median of more than one sample.
const minPasses = 2

// passes runs pass repeatedly until the run's time is used up (at least
// minPasses times), recording the wall and CPU time each pass reports.
func (e *env) passes(st *runStats, pass func() (wall, cpu time.Duration)) {
	start := time.Now()
	for len(st.wall) < minPasses || time.Since(start) < e.seconds {
		wall, cpu := pass()
		st.wall = append(st.wall, wall)
		st.cpu = append(st.cpu, cpu)
	}
}
