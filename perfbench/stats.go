package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// runStats accumulates one measured phase (untraced or traced).
type runStats struct {
	// attempted and failed count the workload's operations: scenes,
	// requests or optimizer steps.
	attempted, failed int
	// units is the work completed (scenes or trained tiles) over
	// workSeconds, the wall time of the phases that did it.
	units       float64
	workSeconds float64
	// rates is the throughput of each iteration (of each session for
	// serve) in units per second. throughput_per_s is their median, so a
	// few slow seconds of a shared host move it less than they move the
	// mean over the whole phase.
	rates []float64
	// lat holds one latency sample per scene, request or step, in ms;
	// latOf, when set, says which operations they are.
	lat   []float64
	latOf string
	// iterS is the wall time of each whole iteration: one campaign
	// labeled, one batch of requests served, one model trained and
	// evaluated.
	iterS []float64
	// wall is the measured phase's total wall time.
	wall float64
	// named are the workload's own figures for the report, by name.
	named map[string]namedValue
	// losses are each iteration's per-epoch mean losses (train, ddp).
	losses [][]float64
	// layer holds per-layer samples the traced run measured at the
	// workload's own seams, by metric name; the metric is their median.
	layer map[string][]float64
}

// namedValue is one report figure.
type namedValue struct {
	value float64
	unit  string
	note  string
}

func (s *runStats) set(name string, value float64, unit, note string) {
	if s.named == nil {
		s.named = map[string]namedValue{}
	}
	s.named[name] = namedValue{value, unit, note}
}

func (s *runStats) addLayer(name string, value float64) {
	if s.layer == nil {
		s.layer = map[string][]float64{}
	}
	s.layer[name] = append(s.layer[name], value)
}

// endToEnd derives the bounded end-to-end metrics of a measured phase.
func endToEnd(s *runStats, setupS []float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"throughput_per_s": {median(s.rates), "1/s"},
		"latency_p50_ms":   {percentile(s.lat, 50), "ms"},
		"latency_p90_ms":   {percentile(s.lat, 90), "ms"},
		"time_to_result_s": {median(s.iterS), "s"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostLine describes the machine a run measured.
func hostLine(nproc int) string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", cpuModel(), runtime.NumCPU(), nproc, runtime.Version())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report collects the human-readable lines printed before the result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloadReport prints the end-to-end metrics, the workload's own
// figures, the sample count behind each percentile, and the operation
// counts.
func (r *report) workloadReport(name string, s *runStats, e2e map[string]metric, setupS []float64) {
	r.printf("end-to-end (%s, untraced, %.2f s measured):", name, s.wall)
	for _, k := range sortedKeys(e2e) {
		m := e2e[k]
		note := ""
		switch k {
		case "latency_p50_ms", "latency_p90_ms":
			note = fmt.Sprintf("  (n=%d samples)", len(s.lat))
			if s.latOf != "" {
				note = fmt.Sprintf("  (%s, n=%d samples)", s.latOf, len(s.lat))
			}
		case "time_to_result_s":
			note = fmt.Sprintf("  (n=%d iterations)", len(s.iterS))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", len(setupS))
		}
		r.printf("  %-22s %12.4f %s%s", k, m.Value, m.Unit, note)
	}
	r.printf("workload figures (%s):", name)
	for _, k := range sortedKeys(s.named) {
		v := s.named[k]
		note := ""
		if v.note != "" {
			note = "  (" + v.note + ")"
		}
		r.printf("  %-22s %12.4f %s%s", k, v.value, v.unit, note)
	}
	r.printf("  %-22s %12.4f %s  (%d failed of %d attempted)", "failed_frac", float64(s.failed)/float64(max(s.attempted, 1)), "1", s.failed, s.attempted)
}

// layerReport prints the per-layer metrics with the source of each, and
// the self time per layer.
func (r *report) layerReport(m map[string]metric, sources map[string]string, self map[string]float64, path string) {
	r.printf("per-layer (traced; source: run = this workload's seams, replay = its inputs, computed = analytic, smoke:<w> = smoke-scale run of workload w):")
	for _, k := range sortedKeys(m) {
		r.printf("  %-34s %14.6f %-9s %s", k, m[k].Value, m[k].Unit, sources[k])
	}
	r.printf("self time per layer (span time minus child spans):")
	for _, k := range sortedKeys(self) {
		r.printf("  %-12s %12.3f ms", k, self[k])
	}
	r.printf("spans written to %s", path)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
