// Command e2ebench is goalrec's end-to-end benchmark. It generates a
// workload's inputs from a seed, starts real goalrecd processes on
// loopback, drives them over HTTP with closed loops of keep-alive clients,
// checks every answer, and prints the metrics named in BENCHMARK.json as
// the last line of its output:
//
//	bash e2ebench/run.sh --workload recommend-mix --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the run also replays its requests in process through
// each layer's exported functions under spans, and reports the per-layer
// metrics instead (see trace.go and README.md).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Run shape. Clients match the 2-CPU host the benchmark was sized on.
// Set-up repeats so setup_s is a median; the user-sessions recovery start
// is short, so it repeats more to steady its median. warmup is the
// user-sessions warm-up; recommend-mix warms up by rounds (cacheFillRounds).
const (
	numClients       = 2
	setupRuns        = 5
	sessionSetupRuns = 21
	warmup           = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload shares.
type env struct {
	bin      string // goalrecd binary
	dir      string // this run's scratch directory
	seed     uint64
	seconds  time.Duration
	trace    bool
	tr       *tracer // spans of a traced run
	work     string  // directory kept after the run (spans)
	workload string
	zipf     *zipf
	lib      []impl
	libPath  string
	ref      *refLibrary
	out      io.Writer // human-readable report
}

// outcome is what one workload run measured.
type outcome struct {
	tally   tally
	setup   []float64 // seconds, one per setup
	lat     samples   // by operation class
	start   time.Time // of the timed phase
	elapsed time.Duration
	rss     []float64         // MiB, sampled over the timed phase
	extra   map[string]metric // workload-specific figures for the report
	layers  map[string]metric // per-layer metrics of a traced run
}

func newOutcome() *outcome {
	return &outcome{extra: map[string]metric{}, layers: map[string]metric{}}
}

var workloads = map[string]func(*env) (*outcome, error){
	"recommend-mix": runRecommendMix,
	"user-sessions": runUserSessions,
}

func main() {
	err := run()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: recommend-mix or user-sessions")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
	bin := flag.String("goalrecd", "", "goalrecd binary")
	work := flag.String("work", ".bench_build", "directory for the run's generated inputs and stores")
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -goalrecd, -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		bin: *bin, dir: dir, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work, workload: *workload,
		zipf: newZipf(libActions, libZipfExponent), out: os.Stdout,
	}
	if e.trace {
		e.tr = newTracer()
	}
	stamp := fingerprint()
	stamp["workload"], stamp["seed"] = *workload, *seed
	printJSON(e.out, "host", stamp)

	t0 := time.Now()
	e.lib = genLibrary(librarySeed, e.zipf)
	e.libPath = filepath.Join(dir, "library.jsonl")
	if err := writeLibrary(e.libPath, e.lib); err != nil {
		return err
	}
	e.ref = newRefLibrary()
	e.ref.add(e.lib...)
	// Only the reference model is needed from here on; dropping the names
	// keeps this process's garbage collector from competing with the
	// daemons for the CPUs during the timed phase.
	e.lib = nil
	runtime.GC()
	fmt.Fprintf(os.Stderr, "e2ebench: generated inputs in %v\n", time.Since(t0).Round(time.Millisecond))

	o, err := runWorkload(e)
	if err != nil {
		return err
	}
	if e.trace {
		if err := replayLayers(e, o); err != nil {
			return err
		}
	}
	res := report(e, o)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.out, string(line))
	return nil
}

// report prints the full statistics and builds the result line.
func report(e *env, o *outcome) result {
	classes := make([]string, 0, len(o.lat))
	for c := range o.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	all := map[string]Stats{}
	for _, c := range classes {
		all[c] = summarize(latencies(o.lat[c]))
	}
	printJSON(e.out, "latency_ms", all)
	printJSON(e.out, "setup_s", summarize(append([]float64(nil), o.setup...)))
	if len(o.extra) > 0 {
		printJSON(e.out, "figures", o.extra)
	}
	if o.tally.firstErr != nil {
		fmt.Fprintln(e.out, "first error:", o.tally.firstErr)
	}

	m := map[string]metric{}
	if e.trace {
		m = o.layers
	} else {
		w := windowed(o)
		m["setup_s"] = metric{medianOf(o.setup), "s"}
		m["throughput_rps"] = metric{w.median(func(s samples) float64 {
			n := 0
			for _, v := range s {
				n += len(v)
			}
			return float64(n) / (o.elapsed.Seconds() / numWindows)
		}), "req/s"}
		for _, st := range strategies {
			m["recommend_p50_ms."+st] = metric{w.median(func(s samples) float64 {
				return medianOf(latencies(s["recommend."+st]))
			}), "ms"}
		}
		m["recommend_p95_ms"] = metric{w.median(func(s samples) float64 {
			var recs []float64
			for _, st := range strategies {
				recs = append(recs, latencies(s["recommend."+st])...)
			}
			return percentileOf(recs, 95)
		}), "ms"}
		m["rss_mb"] = metric{medianOf(o.rss), "MiB"}
	}
	return result{
		Correct:   o.tally.wrong == 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed,
		Metrics:   m,
	}
}

// numWindows is how many equal windows the timed phase is cut into. Each
// latency and throughput figure is computed per window and reported as the
// median over the windows, so a burst of interference from outside the
// benchmark that slows one window does not move the run's figure.
const numWindows = 5

// windows holds a timed phase's observations split by completion time.
type windows []samples

func windowed(o *outcome) windows {
	w := make(windows, numWindows)
	for i := range w {
		w[i] = samples{}
	}
	for class, os := range o.lat {
		for _, ob := range os {
			i := int(float64(numWindows) * ob.at.Sub(o.start).Seconds() / o.elapsed.Seconds())
			i = min(max(i, 0), numWindows-1)
			w[i][class] = append(w[i][class], ob)
		}
	}
	return w
}

// median is the median over windows of f, skipping windows f has no value
// for.
func (w windows) median(f func(samples) float64) float64 {
	var v []float64
	for _, s := range w {
		if x := f(s); !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	return medianOf(v)
}

// percentileOf is the nearest-rank percentile of an unsorted sample.
func percentileOf(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

func printJSON(w io.Writer, label string, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", label, err)
		return
	}
	fmt.Fprintf(w, "%s: %s\n", label, b)
}

// fingerprint identifies the host and the code a run measured. The commit
// is the VCS revision when the build knows one, else a digest of the
// repository's Go sources, since benchmark checkouts need not be git
// repositories.
func fingerprint() map[string]interface{} {
	fp := map[string]interface{}{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
