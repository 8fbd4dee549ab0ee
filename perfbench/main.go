// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time from a seed and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (BENCHMARK.json
// "end_to_end"); with -trace 1 the run records layer spans from outside
// the program, around calls into its public functions, and the metrics
// are the per-layer set ("per_layer"). The line before it carries the
// run's metadata. See README.md for the workloads, the metric
// definitions and the steadiness record.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload dc-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traceDir receives the span dumps of traced runs: the checkout's
// gitignored build directory, relative to the repository root.
const traceDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload: dc-cold, transient or serve")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "length of the timed loop")
		trace   = flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want dc-cold, transient or serve)", name)
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if singleCore[name] {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	cfg := config{seed: seed, seconds: seconds, size: fullSize}
	if traced {
		cfg.tr = newTracer()
	}
	meta := startMeta()
	out, err := w(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return errors.New("no operation completed")
	}
	rss := peakRSS() // before the bandwidth probe allocates
	copyGBps := copyBandwidth()
	meta.finish(name, seed, seconds, traced, copyGBps)
	meta.RefKernelMS = median(out.refMS)
	meta.LatencyP50MS = quantile(out.latMS, 0.5)
	meta.LatencyP90MS = quantile(out.latMS, 0.9)
	meta.ThroughputPerS = out.throughput()
	if err := printJSON(map[string]any{"meta": meta}); err != nil {
		return err
	}

	var metrics map[string]metric
	if traced {
		metrics = out.layerMetrics(copyGBps)
		if err := writeTrace(cfg.tr, name, seed, meta); err != nil {
			return err
		}
	} else {
		metrics = out.endToEnd(rss)
	}
	return printJSON(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"dc-cold":   runDCCold,
	"transient": runTransient,
	"serve":     runServe,
}

// singleCore marks the workloads that run on one Go processor. dc-cold's
// parse and write allocate heavily, and with a second processor the
// garbage collector runs beside them, so the op's time depends on whether
// a neighbour holds that core: in five alternating pairs of runs the
// spread of its median latency was about twice that at GOMAXPROCS 1.
// transient allocates little and was steadier with two processors (two
// sets of ten runs each way), so it keeps the default.
var singleCore = map[string]bool{"dc-cold": true}

// sizes fixes how big each workload's inputs are and how often set-up is
// repeated; the self-test shrinks them.
type sizes struct {
	gridSide   int     // dc-cold and transient: bottom-layer lattice side (5 layers)
	serveScale float64 // serve: scale of the thupg10 case it ingests
	setupReps  int     // least set-up repetitions (see moreSetup)
	setupS     float64 // least total set-up time, seconds (see moreSetup)
	poolSize   int     // serve: distinct requests, each with a referee answer
}

// fullSize is what the benchmark runs: a 520×520×5 grid has n = 524,160
// unknowns, and thupg10 at scale 0.6 has n = 95,030. serve is smaller
// than the library workloads because each request waits for the other
// client's solve too: at scale 1 a 30 s run held only about 100 requests,
// and in five paired 15 s probes its median latency ranged 564–687 ms
// against 185–199 ms at scale 0.6.
var fullSize = sizes{gridSide: 520, serveScale: 0.6, setupReps: 3, setupS: 3, poolSize: 32}

// config is what a workload runner receives.
type config struct {
	seed    uint64
	seconds float64
	size    sizes
	tr      *tracer // nil on an untraced run
	// plant, when non-nil, corrupts an operation's answer after it is
	// timed and before it is checked. Only the self-test sets it.
	plant *fault
}

// deadline is the end of the timed loop that starts now.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// moreSetup reports whether set-up should run again, given the times of
// the repetitions so far: setup_s is the median of at least setupReps
// repetitions that add up to at least setupS seconds. dc-cold's set-up
// takes about 2 s and stops at three; transient's and serve's take under
// half a second, so their medians rest on about eight repetitions.
func (c config) moreSetup(times []float64) bool {
	var sum float64
	for _, t := range times {
		sum += t
	}
	return len(times) < c.size.setupReps || sum < c.size.setupS
}

// outcome is what a workload runner reports.
type outcome struct {
	clients   int       // closed-loop clients driving the timed loop
	setupS    []float64 // each repetition of the set-up, seconds
	latMS     []float64 // each timed (untraced) operation, milliseconds
	latRef    []float64 // the same operations in reference units (refPair)
	refMS     []float64 // every reference-kernel time of the run, milliseconds
	attempted int
	failed    int
	layers    map[string]float64 // per-layer values (traced runs)
}

// count records one checked operation; err is its failure or wrong
// answer.
func (o *outcome) count(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
	}
}

// record counts one checked operation of the timed loop and keeps its
// latency, in milliseconds and in reference units.
func (o *outcome) record(latMS, latRef float64, err error) {
	o.count(err)
	o.latMS = append(o.latMS, latMS)
	o.latRef = append(o.latRef, latRef)
}

// traceLayers finishes a traced run: every op's spans must cover its wall
// time (a gap counts as a failure), and trace.overhead_pct compares the
// traced ops with the untraced ops of the same run.
func (o *outcome) traceLayers(tr *tracer, tracedMS []float64) {
	if err := tr.checkCoverage(); err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "perfbench: trace coverage:", err)
	}
	if u := median(o.latMS); u > 0 {
		o.layers["trace.overhead_pct"] = 100 * (median(tracedMS) - u) / u
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// throughput is the closed loop's: clients × ops ÷ the clients' summed
// op time.
func (o *outcome) throughput() float64 {
	var sumMS float64
	for _, v := range o.latMS {
		sumMS += v
	}
	return float64(o.clients) * float64(len(o.latMS)) / (sumMS / 1000)
}

// endToEnd reports the end-to-end metrics. Op latency is reported in
// reference units (see refPair); the same percentiles in milliseconds,
// and the throughput, go to the run's metadata line.
func (o *outcome) endToEnd(rss int64) map[string]metric {
	return map[string]metric{
		"setup_s":         {median(o.setupS), "s"},
		"latency_p50_ref": {quantile(o.latRef, 0.5), "ref"},
		"latency_p90_ref": {quantile(o.latRef, 0.9), "ref"},
		"peak_rss_bytes":  {float64(rss), "bytes"},
	}
}

// layerMetrics reports every per-layer metric; a layer the workload does
// not pass through reads 0.
func (o *outcome) layerMetrics(copyGBps float64) map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{o.layers[name], unit}
	}
	m["machine.copy_gbps"] = metric{copyGBps, "GB/s"}
	if copyGBps > 0 {
		m["pcg.bw_fraction"] = metric{o.layers["pcg.achieved_gbps"] / copyGBps, "ratio"}
	}
	return m
}

// layerUnits lists the per-layer metrics (BENCHMARK.json "per_layer").
var layerUnits = map[string]string{
	"powergrid.parse_ms":          "ms",
	"powergrid.build_ms":          "ms",
	"powergrid.write_ms":          "ms",
	"graph.tocsc_ms":              "ms",
	"pipeline.reorder_ms":         "ms",
	"pipeline.factorize_ms":       "ms",
	"core.fill_ratio":             "ratio",
	"pcg.iterations":              "count",
	"pcg.precond_ms":              "ms",
	"pcg.spmv_ms":                 "ms",
	"pcg.vector_ms":               "ms",
	"pcg.computed_bytes_per_iter": "bytes",
	"pcg.achieved_gbps":           "GB/s",
	"pcg.bw_fraction":             "ratio",
	"machine.copy_gbps":           "GB/s",
	"powergrid.companion_ms":      "ms",
	"session.step_ms":             "ms",
	"session.batch_wait_ms":       "ms",
	"session.batch_width_mean":    "count",
	"session.ensemble_ms":         "ms",
	"serve.decode_us":             "us",
	"serve.encode_us":             "us",
	"serve.admission_wait_us":     "us",
	"serve.cache_lookup_us":       "us",
	"serve.cache_hit_ratio":       "ratio",
	"serve.shed_ratio":            "ratio",
	"serve.server_p50_ms":         "ms",
	"serve.transport_ms":          "ms",
	"powerrchol.t_tot_s_per_mnnz": "s/Mnnz",
	"trace.overhead_pct":          "%",
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// writeTrace dumps the run's spans and metadata as JSON under traceDir.
func writeTrace(tr *tracer, name string, seed uint64, meta *runMeta) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": tr.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median and quantile interpolate linearly between order statistics.
func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
