package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"seaice/internal/unet"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, trace: trace, tiny: true,
		out: t.TempDir(), nproc: min(2, runtime.GOMAXPROCS(0))}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// code reports in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestTinyRunsReportEveryMetric runs every workload at smoke scale,
// untraced and traced, and requires every named metric with its unit,
// the sample counts and the operation counts.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, lines, err := run(tinyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%t: result %+v", name, trace, res)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v, want a finite value in %s", name, trace, m.Name, got, m.Unit)
				}
			}
			report := strings.Join(lines, "\n")
			for _, s := range []string{"samples)", "attempted)", "latency_p90_ms"} {
				if !strings.Contains(report, s) {
					t.Errorf("%s trace=%t: report lacks %q:\n%s", name, trace, s, report)
				}
			}
			// A label run drives no server: its serve.* values are
			// borrowed from a smoke-scale serve run and must say so.
			if trace && name == "label" && !strings.Contains(report, "smoke:serve") {
				t.Errorf("label trace=true: borrowed serve metrics are not marked:\n%s", report)
			}
		}
	}
}

// TestPlantedLabelCorruptionFailsCheck flips one label byte in a
// pipeline product and requires the serial-replay check to catch it.
func TestPlantedLabelCorruptionFailsCheck(t *testing.T) {
	o := tinyOptions(t, "label", false)
	w := newLabelWork(o).(*labelWork)
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	s, err := measure(w, o.seconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(s); err != nil {
		t.Fatalf("clean products fail the check: %v", err)
	}
	scene := sampleIndices(o.seed, len(w.in.scenes), 3)[0]
	for _, tile := range w.last.Tiles {
		if tile.Scene == scene {
			tile.Auto.Pix[0] ^= 1
			break
		}
	}
	if err := w.check(s); err == nil {
		t.Fatal("a flipped label byte passed the check")
	}
}

// TestPlantedServeCorruptionFailsCheck flips one byte of a served label
// map and requires the offline-inference check to catch it.
func TestPlantedServeCorruptionFailsCheck(t *testing.T) {
	o := tinyOptions(t, "serve", false)
	w := newServeWork(o).(*serveWork)
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	s, err := measure(w, o.seconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(s); err != nil {
		t.Fatalf("clean responses fail the check: %v", err)
	}
	body := w.bodies[w.checkSample()[0]]
	body[len(body)/2] ^= 1
	if err := w.check(s); err == nil {
		t.Fatal("a flipped response byte passed the check")
	}
}

// TestTracerSelfTime checks self time: a span's duration minus the
// union of its children's intervals.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "pipeline.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "labeler.label", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "labeler.label", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "dataset.tile", Start: 90, End: 120},
	}
	got := tr.selfTimes()
	want := map[string]float64{"pipeline": 50e-6, "labeler": 50e-6, "dataset": 30e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time %s = %g ms, want %g", k, got[k], v)
		}
	}
}

// TestForwardFLOPs pins the computed count on a hand-checked config.
func TestForwardFLOPs(t *testing.T) {
	// One level, base 1, 1 input channel, 2 classes, 2×2 input:
	// enc 2·(9·4)·2 convs, bottleneck 1→2 and 2→2 at 1×1, up 2→1 at 2×2,
	// dec 2→1 and 1→1, head 1→2.
	c := unet.Config{Depth: 1, BaseChannels: 1, InChannels: 1, Classes: 2}
	want := 2.0 * (36 + 36 + 18 + 36 + 8 + 72 + 36 + 8)
	if got := forwardFLOPs(c, 2, 2); got != want {
		t.Fatalf("forwardFLOPs = %g, want %g", got, want)
	}
}
