package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// opFunc performs op i of one client and returns once the reply is in
// hand; the latency timestamp is taken then. The returned check (may be
// nil) verifies the answer afterwards, outside the timed interval; it
// receives the op's latency.
type opFunc func(client, i int) (check func(lat time.Duration) error, err error)

// classFunc names the class of op i of one client: the query template
// or view it serves. Latency medians are taken per class (see record).
type classFunc func(client, i int) string

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	lat       []float64       // ms, one per completed op
	done      []time.Duration // completion offset of each op, parallel to lat
	class     []string        // class of each op, parallel to lat
	attempted int
	failed    int
	wrong     []error
	span      time.Duration // the loop's nominal length
	wall      time.Duration // until the last op in flight at the deadline completed
}

// windows is the number of equal slices of the timed loop the latency
// and rate metrics are computed over; each metric reports the median of
// its per-window values, so a burst of host noise moves one window, not
// the run.
const windows = 5

// windowed splits the completed ops by completion time into windows
// slices of the loop and returns each slice's latencies, each slice's
// latencies by class, and its op rate (the last slice also holds the
// ops that completed after the deadline).
func (st loopStats) windowed() (lats [][]float64, byClass []map[string][]float64, rates []float64) {
	lats = make([][]float64, windows)
	byClass = make([]map[string][]float64, windows)
	w := st.span / windows
	for i, t := range st.done {
		k := min(int(t/w), windows-1)
		lats[k] = append(lats[k], st.lat[i])
		if byClass[k] == nil {
			byClass[k] = map[string][]float64{}
		}
		byClass[k][st.class[i]] = append(byClass[k][st.class[i]], st.lat[i])
	}
	for k := range lats {
		dur := w
		if k == windows-1 {
			dur = st.wall - w*(windows-1)
		}
		rates = append(rates, float64(len(lats[k]))/dur.Seconds())
	}
	return lats, byClass, rates
}

// closedLoop runs clients closed-loop for d: each client issues its
// next op only after the previous one completed. An op that fails is
// counted and never retried. classOf may be nil: every op is then of
// one class.
func closedLoop(clients int, d time.Duration, classOf classFunc, op opFunc) loopStats {
	type clientStats struct {
		lat       []float64
		done      []time.Duration
		class     []string
		attempted int
		failed    int
		wrong     []error
	}
	per := make([]clientStats, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &per[c]
			for i := 0; time.Now().Before(deadline); i++ {
				cs.attempted++
				t0 := time.Now()
				check, err := op(c, i)
				lat := time.Since(t0)
				if err != nil {
					cs.failed++
					continue
				}
				cs.lat = append(cs.lat, float64(lat.Nanoseconds())/1e6)
				cs.done = append(cs.done, time.Since(start))
				class := "all"
				if classOf != nil {
					class = classOf(c, i)
				}
				cs.class = append(cs.class, class)
				if check != nil {
					if err := check(lat); err != nil {
						cs.wrong = append(cs.wrong, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{span: d, wall: time.Since(start)}
	for _, cs := range per {
		st.lat = append(st.lat, cs.lat...)
		st.done = append(st.done, cs.done...)
		st.class = append(st.class, cs.class...)
		st.attempted += cs.attempted
		st.failed += cs.failed
		st.wrong = append(st.wrong, cs.wrong...)
	}
	return st
}

// record folds a served phase into the result: attempts, failures,
// wrong answers, and the end-to-end latency metrics. op_p50_ms is, in
// each window, the geometric mean over the op classes of each class's
// median, so that every template of a mix moves it by its own share
// rather than one template holding the median of all ops.
func (r *result) record(st loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	for _, err := range st.wrong {
		r.wrong("%v", err)
	}
	lats, byClass, rates := st.windowed()
	var p50s, p90s []float64
	for k, l := range lats {
		if len(l) > 0 {
			p50s = append(p50s, classMedian(byClass[k]))
			p90s = append(p90s, quantile(l, 0.9))
		}
	}
	r.set("op_p50_ms", quantile(p50s, 0.5), len(st.lat))
	r.report["op_p50_ms_windows"] = p50s
	r.set("op_p90_ms", quantile(p90s, 0.5), len(st.lat))
	r.set("op_rps", quantile(rates, 0.5), len(st.lat))
	r.report["error_ratio"] = float64(st.failed) / float64(max(st.attempted, 1))
	all := map[string][]float64{}
	for i, c := range st.class {
		all[c] = append(all[c], st.lat[i])
	}
	byClassP50 := map[string]float64{}
	for c, l := range all {
		byClassP50[c] = quantile(l, 0.5)
	}
	r.report["op_p50_ms_by_class"] = byClassP50
}

// classMedian is the geometric mean of the per-class latency medians.
func classMedian(byClass map[string][]float64) float64 {
	var logSum float64
	for _, l := range byClass {
		logSum += math.Log(quantile(l, 0.5))
	}
	return math.Exp(logSum / float64(len(byClass)))
}

// scrape is one parsed metrics exposition.
type scrape struct{ s *obs.Scrape }

func parseScrape(text []byte) (scrape, error) {
	s, err := obs.ParseText(bytes.NewReader(text))
	if err != nil {
		return scrape{}, fmt.Errorf("parse metrics: %w", err)
	}
	return scrape{s}, nil
}

// sum adds every sample of a series across label sets (name_sum and
// name_count for histograms).
func (s scrape) sum(series string) float64 {
	var total float64
	for _, f := range s.s.Families {
		if !strings.HasPrefix(series, f.Name) {
			continue
		}
		for _, sm := range f.Samples {
			if sm.Name == series {
				total += sm.Value
			}
		}
	}
	return total
}

// delta is after − before of a series.
func delta(before, after scrape, series string) float64 {
	return after.sum(series) - before.sum(series)
}

// recordServedCounters derives the per-layer metrics that come from the
// program's own counters over a served phase of ops ops.
func (r *result) recordServedCounters(before, after scrape, ops int) {
	n := float64(max(ops, 1))
	hits := delta(before, after, "faq_plan_cache_hits_total")
	misses := delta(before, after, "faq_plan_cache_misses_total")
	if hits+misses > 0 {
		r.set("plan.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	r.report["plan_cache"] = map[string]float64{"hits": hits, "misses": misses,
		"evictions": delta(before, after, "faq_plan_cache_evictions_total")}
	if c := delta(before, after, "faq_service_request_ns_count"); c > 0 {
		r.set("service.request_ms", delta(before, after, "faq_service_request_ns_sum")/c/1e6, int(c))
	}
	r.set("plan.cache_evictions_per_op", delta(before, after, "faq_plan_cache_evictions_total")/n, ops)
	r.set("exec.busy_ms_per_req", delta(before, after, "faq_exec_worker_busy_ns_total")/n/1e6, ops)
	if u := delta(before, after, "faq_delta_updates_total"); u > 0 {
		r.set("delta.recompute_ratio", delta(before, after, "faq_delta_recompute_fallbacks_total")/u, int(u))
	}
}

// memSample is a runtime allocation/GC snapshot of this process.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, uint64(ms.NumGC)}
}

// allocated is the heap bytes this process has allocated so far.
func allocated() uint64 { return readMem().alloc }

// recordRuntime sets the runtime per-op metrics from two in-process
// snapshots around a served loop.
func (r *result) recordRuntime(before, after memSample, ops int) {
	n := float64(max(ops, 1))
	r.set("runtime.alloc_mb_per_op", float64(after.alloc-before.alloc)/n/(1<<20), ops)
	r.set("runtime.gc_cycles_per_op", float64(after.gcs-before.gcs)/n, ops)
}

// medianSum adds the medians of several per-op span series.
func medianSum(series ...[]float64) float64 {
	var s float64
	for _, xs := range series {
		s += quantile(xs, 0.5)
	}
	return s
}

// recordGap sets bench.decomposition_gap: how far the sum of the
// replayed layers' self-time medians is from the served op median.
func (r *result) recordGap(layerSum, servedMedian float64, samples int) {
	if servedMedian <= 0 {
		return
	}
	gap := layerSum - servedMedian
	if gap < 0 {
		gap = -gap
	}
	r.set("bench.decomposition_gap", gap/servedMedian, samples)
	r.report["decomposition"] = map[string]float64{"layer_sum_ms": layerSum, "served_p50_ms": servedMedian}
}
