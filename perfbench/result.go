package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// catalog is the benchmark's metric list: the workloads and metrics of
// BENCHMARK.json, each metric completed from catalog.json with the
// workloads it is measured on (catalog.json also records each metric's
// source and the end-to-end metric it should move), plus the end-to-end
// metrics that only the report line carries.
type catalog struct {
	Workloads []string
	EndToEnd  []catalogMetric
	Reported  []catalogMetric // end-to-end, in the report line only
	PerLayer  []catalogMetric
}

type catalogMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	On     string `json:"on"`
}

// loadCatalog reads the benchmark definition at path and joins it with
// the embedded catalog.json.
func loadCatalog(path string) (*catalog, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []catalogMetric `json:"end_to_end"`
		PerLayer []catalogMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var extra struct {
		Reported []catalogMetric `json:"reported"`
		Metrics  map[string]struct {
			On string `json:"on"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(catalogJSON, &extra); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	c := &catalog{Reported: extra.Reported}
	for _, w := range bench.Workloads {
		c.Workloads = append(c.Workloads, w.Name)
	}
	for _, m := range bench.EndToEnd {
		m.On = "all"
		c.EndToEnd = append(c.EndToEnd, m)
	}
	for _, m := range bench.PerLayer {
		x, ok := extra.Metrics[m.Name]
		if !ok || x.On == "" {
			return nil, fmt.Errorf("catalog.json: no workloads recorded for metric %s", m.Name)
		}
		m.On = x.On
		c.PerLayer = append(c.PerLayer, m)
	}
	return c, nil
}

// measuredOn reports whether the catalog names workload w as one the
// metric is measured on ("all" or a comma-separated list).
func (m catalogMetric) measuredOn(w string) bool {
	if m.On == "all" {
		return true
	}
	for _, x := range strings.Split(m.On, ",") {
		if strings.TrimSpace(x) == w {
			return true
		}
	}
	return false
}

// metricVal is one measured value and the number of samples behind it.
type metricVal struct {
	value   float64
	samples int
}

// result accumulates one run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	values    map[string]metricVal
	report    map[string]any
	wrongs    []string
}

func newResult(workload string) *result {
	return &result{workload: workload, correct: true, values: map[string]metricVal{}, report: map[string]any{}}
}

// set records metric name.
func (r *result) set(name string, v float64, samples int) {
	r.values[name] = metricVal{value: v, samples: samples}
}

// setMedian records the median of xs (ms, s, or a ratio — whatever
// unit the samples carry).
func (r *result) setMedian(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.set(name, quantile(xs, 0.5), len(xs))
}

// wrong marks the run incorrect, keeping the first few diagnostics.
func (r *result) wrong(format string, args ...any) {
	r.correct = false
	if len(r.wrongs) < 8 {
		r.wrongs = append(r.wrongs, fmt.Sprintf(format, args...))
	}
}

// render builds the result line over the given metrics and the report
// that precedes it. A metric the catalog names for this workload but
// the run did not measure is an error; one for another workload's layer
// reads 0 with 0 samples (that layer did no work here).
func (r *result) render(names []catalogMetric) (string, map[string]any, error) {
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wireMetric, len(names))
	samples := make(map[string]int, len(names))
	for _, m := range names {
		mv, ok := r.values[m.Name]
		if !ok {
			if m.measuredOn(r.workload) {
				return "", nil, fmt.Errorf("metric %s was not measured on %s", m.Name, r.workload)
			}
		}
		metrics[m.Name] = wireMetric{Value: mv.value, Unit: m.Unit}
		samples[m.Name] = mv.samples
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return "", nil, err
	}
	if r.attempted < 1 {
		return "", nil, fmt.Errorf("no op was attempted")
	}
	r.report["samples"] = samples
	if len(r.wrongs) > 0 {
		r.report["wrong_answers"] = r.wrongs
	}
	return string(line), r.report, nil
}

// reportMetrics adds the given metrics, with their units and sample
// counts, to the report line.
func (r *result) reportMetrics(names []catalogMetric) {
	out := map[string]any{}
	for _, m := range names {
		if mv, ok := r.values[m.Name]; ok {
			out[m.Name] = map[string]any{"value": mv.value, "unit": m.Unit, "samples": mv.samples}
		}
	}
	r.report["reported"] = out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// fingerprint stamps a result with the host and source it measured.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "none" outside a git
// checkout (the source digest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory (the repository root), skipping dot-directories such as the
// build directory.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set (Linux clear_refs, value 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// windowPeaks samples this process's peak resident set once per window
// of a timed loop: a Go heap's peak depends on where its GC cycles fall,
// so the median of per-window peaks is steadier than the loop's maximum.
type windowPeaks struct {
	stopc chan struct{}
	done  chan struct{}
	peaks []float64
}

// startWindowPeaks restarts the peak and samples it every d/windows.
func startWindowPeaks(d time.Duration) (*windowPeaks, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	w := &windowPeaks{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(d / windows)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.sample()
			case <-w.stopc:
				w.sample()
				return
			}
		}
	}()
	return w, nil
}

func (w *windowPeaks) sample() {
	if v, err := vmHWM("self"); err == nil {
		w.peaks = append(w.peaks, v)
	}
	_ = resetPeakRSS() // it succeeded at the start
}

// stop ends the last window and returns the per-window peaks (MB).
func (w *windowPeaks) stop() []float64 {
	close(w.stopc)
	<-w.done
	return w.peaks
}

// vmHWM returns a process's peak resident set (VmHWM) in MB.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
