package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/rpc"
)

// spans holds, per layer, one duration (ms) or value per replayed op.
type spans map[string][]float64

func (s spans) add(layer string, d time.Duration) {
	s[layer] = append(s[layer], float64(d.Nanoseconds())/1e6)
}

func (s spans) addValue(layer string, v float64) { s[layer] = append(s[layer], v) }

// replayer feeds requests through the served solve path's exported
// layer functions in the order service.Solve calls them, recording a
// span around each call: plan.Canonicalize, plan.Cache.Get (with
// plan.Compile timed on misses), Plan.Bind, then faq.SolveGHD with
// Timed costs, and a second pass of relation.Join / faq.AggregateOut
// in GHD child order that must reproduce the pass's root bit for bit.
type replayer struct {
	cache    *plan.Cache
	sp       spans
	maxRatio float64 // max node rows / plan.NodeBound.TupleBound(N)
	served   uint64  // heap bytes allocated by the served path's steps
}

func newReplayer() *replayer {
	return &replayer{cache: plan.NewCache(plan.DefaultCacheSize), sp: spans{}}
}

// bind replays fingerprint → cached plan → bind for q.
func (rp *replayer) bind(q *faq.Query[int64]) (*plan.Plan, *ghd.GHD, error) {
	a := allocated()
	defer func() { rp.served += allocated() - a }()
	t := time.Now()
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	fp, err := plan.Canonicalize(q.H, q.Free, nil)
	if err != nil {
		return nil, nil, err
	}
	rp.sp.add("plan.canon", time.Since(t))
	t = time.Now()
	var compile time.Duration
	p, _, err := rp.cache.Get("count|"+fp.Key, func() (*plan.Plan, error) {
		tc := time.Now()
		p, err := plan.Compile(fp)
		compile = time.Since(tc)
		return p, err
	})
	if err != nil {
		return nil, nil, err
	}
	rp.sp.add("plan.cache", time.Since(t))
	if compile > 0 {
		rp.sp.add("plan.compile", compile)
	}
	if p.Fallback {
		return nil, nil, fmt.Errorf("shape needs the brute-force fallback; the benchmark shapes must not")
	}
	t = time.Now()
	g, err := p.Bind(fp, q.H)
	if err != nil {
		return nil, nil, err
	}
	rp.sp.add("plan.bind", time.Since(t))
	return p, g, nil
}

// pass replays the local GHD pass and its kernels, returning the root.
func (rp *replayer) pass(ctx context.Context, q *faq.Query[int64], p *plan.Plan, g *ghd.GHD) (*relation.Relation[int64], error) {
	a := allocated()
	t := time.Now()
	root, m, err := faq.SolveGHD(ctx, q, g, faq.SolveOptions{Timed: true})
	wall := time.Since(t)
	rp.served += allocated() - a
	if err != nil {
		return nil, err
	}
	rp.sp.add("faq.pass", wall)
	var work int64
	for _, c := range m.Costs {
		work += c
	}
	rp.sp.addValue("faq.critical_path", float64(criticalPath(g.Parent, m.Costs))/1e6)
	if wall > 0 {
		rp.sp.addValue("exec.overlap", float64(work)/float64(wall.Nanoseconds()))
	}
	kroot, err := rp.kernels(q, p, g)
	if err != nil {
		return nil, err
	}
	if !relation.Equal(q.S, root, kroot) {
		return nil, fmt.Errorf("kernel replay root differs from faq.SolveGHD's")
	}
	return root, nil
}

// kernels re-runs the bottom-up pass sequentially with a span around
// every relation.Join and faq.AggregateOut call, in the pass's own
// order (children in g.Children order, innermost-first aggregation).
func (rp *replayer) kernels(q *faq.Query[int64], p *plan.Plan, g *ghd.GHD) (*relation.Relation[int64], error) {
	n := q.MaxFactorSize()
	nodeRel := make([]*relation.Relation[int64], g.NumNodes())
	for e, v := range g.NodeOf {
		if nodeRel[v] == nil {
			nodeRel[v] = q.Factors[e]
		} else {
			nodeRel[v] = relation.Join(q.S, nodeRel[v], q.Factors[e])
		}
	}
	free := map[int]bool{}
	for _, v := range q.Free {
		free[v] = true
	}
	ch := g.Children()
	msgs := make([]*relation.Relation[int64], g.NumNodes())
	var join, agg time.Duration
	rows := 0
	for _, v := range g.PostOrder() {
		cur := nodeRel[v]
		if cur == nil {
			cur = relation.Unit(q.S, q.S.One())
		}
		for _, c := range ch[v] {
			t := time.Now()
			cur = relation.Join(q.S, cur, msgs[c])
			join += time.Since(t)
		}
		var parentBag []int
		if v != g.Root {
			parentBag = g.Bags[g.Parent[v]]
		}
		atRoot := v == g.Root
		t := time.Now()
		out, err := faq.AggregateOut(q, cur, func(x int) bool {
			return free[x] || (!atRoot && hypergraph.ContainsSorted(parentBag, x))
		})
		agg += time.Since(t)
		if err != nil {
			return nil, err
		}
		msgs[v] = out
		rows += out.Len()
		if b := p.NodeBounds[v].TupleBound(n); b > 0 {
			rp.maxRatio = max(rp.maxRatio, float64(out.Len())/b)
		}
	}
	rp.sp.add("relation.join", join)
	rp.sp.add("relation.aggregate", agg)
	rp.sp.addValue("relation.rows_out", float64(rows))
	return msgs[g.Root], nil
}

// criticalPath is the heaviest leaf-to-root chain of node costs: the
// pass's wall time with unlimited workers.
func criticalPath(parent []int, costs []int64) int64 {
	if len(costs) != len(parent) {
		return 0
	}
	var best int64
	// Sum each node's chain up to the root directly: decompositions of
	// query shapes have a handful of nodes.
	for v := range parent {
		var s int64
		for u := v; u >= 0; u = parent[u] {
			s += costs[u]
		}
		best = max(best, s)
	}
	return best
}

// recordReplay sets the per-layer metrics the replayer measured.
func (r *result) recordReplay(rp *replayer) {
	for layer, metric := range map[string]string{
		"plan.canon":         "plan.canon_ms",
		"plan.compile":       "plan.compile_ms",
		"plan.bind":          "plan.bind_ms",
		"faq.pass":           "faq.pass_ms",
		"faq.critical_path":  "faq.critical_path_ms",
		"exec.overlap":       "exec.overlap",
		"relation.join":      "relation.join_ms",
		"relation.aggregate": "relation.aggregate_ms",
	} {
		r.setMedian(metric, rp.sp[layer])
	}
	if rows := rp.sp["relation.rows_out"]; len(rows) > 0 {
		r.set("relation.rows_out", mean(rows), len(rows))
	}
	if xs := rp.sp["faq.pass"]; len(xs) > 0 {
		r.set("faq.max_rows_over_bound", rp.maxRatio, len(xs))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// timedTransport wraps a cluster.Transport and records the interval of
// every RoundTrip, so a solve's RPC time can be separated from the
// coordinator's own.
type timedTransport struct {
	cluster.Transport
	mu        sync.Mutex
	intervals [][2]time.Time
}

func (t *timedTransport) RoundTrip(ctx context.Context, worker int, req *rpc.Frame) (*rpc.Frame, error) {
	t0 := time.Now()
	resp, err := t.Transport.RoundTrip(ctx, worker, req)
	t1 := time.Now()
	t.mu.Lock()
	t.intervals = append(t.intervals, [2]time.Time{t0, t1})
	t.mu.Unlock()
	return resp, err
}

// take returns and clears the recorded intervals.
func (t *timedTransport) take() [][2]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.intervals
	t.intervals = nil
	return out
}

// unionLen is the total length of the union of intervals.
func unionLen(iv [][2]time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}
