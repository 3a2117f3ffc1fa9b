// Command perfbench is the repository benchmark. Four workloads run the
// system's real paths on inputs generated from a seed:
//
//	label  scenes → pipeline (filter, auto-label, tile) → dataset.Set
//	train  scenes → pipeline with a TrainPlan → train.FitStream (f32-mixed) → train.Evaluate
//	serve  PNG scenes → serve.Server over loopback HTTP → label-map PNGs
//	ddp    labeled samples → ddp.Trainer (2 replicas, ring all-reduce) → train.Evaluate
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it repeats the measurement with span recording on and
// reports the per-layer metrics. Either way it checks the outputs and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input to smoke-test size, for the benchmark's
	// own tests and the smoke-scale runs of a traced invocation; the
	// metrics keep their names and units. No flag sets it.
	tiny bool
	// out is the directory the traced run writes spans and the per-layer
	// summary to.
	out string
	// nproc bounds stage workers, serving workers, clients and replicas.
	nproc int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/trace", "directory for span and summary files of traced runs")
	flag.Parse()
	o.trace = traceFlag != 0
	o.nproc = runtime.GOMAXPROCS(0)

	res, lines, err := run(o)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct || err != nil {
		os.Exit(1)
	}
}

// run executes one invocation and returns the result, the human-readable
// report lines printed before it, and an error when the run could not
// complete or its outputs were wrong (then res, if non-nil, carries
// correct=false).
func run(o options) (*result, []string, error) {
	newW, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 0 {
		return nil, nil, fmt.Errorf("--seconds must be ≥ 0, got %g", o.seconds)
	}
	var rep report
	rep.printf("perfbench workload=%s seed=%d seconds=%g trace=%t tiny=%t", o.workload, o.seed, o.seconds, o.trace, o.tiny)
	rep.printf("host: %s", hostLine(o.nproc))

	w := newW(o)
	defer w.close()
	setupS, err := timedSetups(w, setupReps(o))
	if err != nil {
		return nil, rep.lines, fmt.Errorf("set-up: %w", err)
	}
	// A traced invocation splits its measured time between an untraced
	// and a traced phase, so it takes as long as an untraced one.
	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	plain, err := measure(w, phase, nil)
	if err != nil {
		return failedResult(plain), rep.lines, err
	}
	if err := w.check(plain); err != nil {
		return failedResult(plain), rep.lines, fmt.Errorf("correctness: %w", err)
	}
	res := &result{Correct: true, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	e2e := endToEnd(plain, setupS)
	rep.workloadReport(o.workload, plain, e2e, setupS)

	if !o.trace {
		if err := allFinite(e2e); err != nil {
			return failedResult(plain), rep.lines, err
		}
		res.Metrics = e2e
		return res, rep.lines, nil
	}

	tr := newTracer()
	traced, err := measure(w, phase, tr)
	if err != nil {
		return failedResult(traced), rep.lines, fmt.Errorf("traced run: %w", err)
	}
	if err := w.check(traced); err != nil {
		return failedResult(traced), rep.lines, fmt.Errorf("traced run correctness: %w", err)
	}
	layers, sources, err := perLayer(w, o, tr, plain, traced)
	if err != nil {
		return failedResult(traced), rep.lines, fmt.Errorf("per-layer: %w", err)
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	for _, d := range perLayerMetrics {
		v, ok := layers[d.name]
		if !ok {
			return failedResult(traced), rep.lines, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if err := allFinite(res.Metrics); err != nil {
		return failedResult(traced), rep.lines, err
	}
	path, err := tr.write(o, res.Metrics, sources)
	if err != nil {
		return failedResult(traced), rep.lines, err
	}
	rep.layerReport(res.Metrics, sources, tr.selfTimes(), path)
	return res, rep.lines, nil
}

// allFinite rejects a metric left without samples (NaN) or divided by
// zero, which would otherwise be unprintable as JSON.
func allFinite(m map[string]metric) error {
	for _, k := range sortedKeys(m) {
		if v := m[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", k, v)
		}
	}
	return nil
}

// failedResult reports a run whose outputs could not be verified.
func failedResult(s *runStats) *result {
	r := &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	if s != nil && s.attempted > 0 {
		r.Attempted, r.Failed = s.attempted, max(s.failed, 1)
	}
	return r
}

// setupReps is how many times set-up runs; its median is setup_s.
func setupReps(o options) int {
	if o.tiny {
		return 1
	}
	return 5
}

// timedSetups runs the workload's set-up n times (each rebuilding every
// input from the seed) and returns the wall time of each.
func timedSetups(w workload, n int) ([]float64, error) {
	var out []float64
	for range n {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// measure runs whole iterations of the workload until the measured phase
// has lasted the given seconds (at least one iteration).
func measure(w workload, seconds float64, tr *tracer) (*runStats, error) {
	s := &runStats{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		// Every iteration starts from a collected heap, so none pays for
		// its predecessor's garbage and the peak RSS does not depend on
		// where collections happened to fall.
		runtime.GC()
		if err := w.iterate(iter, deadline, tr, s); err != nil {
			s.failed++
			return s, err
		}
	}
	s.wall = time.Since(start).Seconds()
	return s, nil
}
