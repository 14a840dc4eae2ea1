package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/faqs"
	"repro/internal/cluster"
	"repro/internal/faq"
)

// inproc is the state of an in-process workload: the engine (and, for
// cluster-tcp, its loopback worker fleet) and the prepared queries in
// serve order, with their wire forms kept for the traced replay.
type inproc struct {
	eng     *faqs.Engine
	workers []*faqs.WorkerServer
	addrs   []string
	queries []*faqs.Query
	class   []string // each query's template, the op class
	reqs    []*faqs.WireRequest
	exp     []digest
}

func (s *inproc) close() {
	s.eng.Close()
	for _, w := range s.workers {
		w.Close()
	}
}

// engineScrape reads the engine's metrics exposition.
func engineScrape(eng *faqs.Engine) (scrape, error) {
	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf); err != nil {
		return scrape{}, err
	}
	return parseScrape(buf.Bytes())
}

// checkResult verifies one served answer.
func checkResult(i int, r *faqs.Result, want digest) error {
	if got := answerDigest(r.Schema, r.Tuples, r.Values); got != want {
		return fmt.Errorf("query %d: answer %v, want %v", i, got, want)
	}
	return nil
}

// serveInproc sets up an in-process workload o.setups times — gen draws
// the wire requests, which are built with faqs.BuildWireQuery, and with
// workers > 0 a loopback fleet of faqs.ServeWorker starts — warms the
// engine on the first warm queries, then solves the queries in order
// from one closed-loop client. The served phase's end-to-end metrics,
// runtime and counter deltas are recorded into res.
func serveInproc(o *options, res *result, gen func() []solveRequest, workers, warm int) (*inproc, loopStats, error) {
	var exp []digest
	s, err := repeatSetup(o, res, func(first bool) (*inproc, time.Duration, error) {
		t0 := time.Now()
		reqs := gen()
		s := &inproc{}
		for _, rq := range reqs {
			q, err := faqs.BuildWireQuery(rq.wr)
			if err != nil {
				return nil, 0, err
			}
			s.queries = append(s.queries, q)
			s.class = append(s.class, rq.shape.name)
			s.reqs = append(s.reqs, rq.wr)
		}
		var opts []faqs.Option
		for w := 0; w < workers; w++ {
			ws, err := faqs.ServeWorker("127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, 0, err
			}
			s.workers = append(s.workers, ws)
			s.addrs = append(s.addrs, ws.Addr())
		}
		if workers > 0 {
			opts = append(opts, faqs.WithClusterWorkers(s.addrs...))
		}
		s.eng = faqs.NewEngine(opts...)
		if err := s.eng.PingCluster(o.ctx); err != nil {
			s.close()
			return nil, 0, err
		}
		boot := time.Since(t0)
		if first {
			or := newOracle()
			exp = make([]digest, len(reqs))
			for i, rq := range reqs {
				d, err := or.expected(o.ctx, rq)
				if err != nil {
					s.close()
					return nil, 0, err
				}
				exp[i] = d
			}
			if o.corrupt {
				exp[0] = corrupt(exp[0])
			}
		}
		s.exp = exp
		if !o.trace {
			s.reqs = nil // the replay alone needs the wire forms
		}
		t1 := time.Now()
		for i := 0; i < warm; i++ {
			r, err := s.eng.Solve(o.ctx, s.queries[i])
			if err != nil {
				s.close()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
			if err := checkResult(i, r, exp[i]); err != nil {
				res.wrong("warm-up: %v", err)
			}
		}
		return s, boot + time.Since(t1), nil
	}, func(s *inproc) { s.close() })
	if err != nil {
		return nil, loopStats{}, err
	}
	before, err := engineScrape(s.eng)
	if err != nil {
		s.close()
		return nil, loopStats{}, err
	}
	cs0, fleet := s.eng.ClusterStats()
	// peak_rss_mb covers the timed loop only: set-up's generated inputs
	// and reference answers are garbage by now, so return their memory
	// before the per-window peaks start from the current resident set.
	debug.FreeOSMemory()
	peaks, err := startWindowPeaks(o.servePhase())
	if err != nil {
		s.close()
		return nil, loopStats{}, err
	}
	m0 := readMem()
	classOf := func(_, i int) string { return s.class[i%len(s.queries)] }
	st := closedLoop(1, o.servePhase(), classOf, func(_, i int) (func(time.Duration) error, error) {
		k := i % len(s.queries)
		r, err := s.eng.Solve(o.ctx, s.queries[k])
		if err != nil {
			return nil, err
		}
		return func(time.Duration) error { return checkResult(k, r, s.exp[k]) }, nil
	})
	m1 := readMem()
	res.setMedian("peak_rss_mb", peaks.stop())
	cs1, _ := s.eng.ClusterStats()
	after, err := engineScrape(s.eng)
	if err != nil {
		s.close()
		return nil, loopStats{}, err
	}
	res.record(st)
	ops := len(st.lat)
	res.recordRuntime(m0, m1, ops)
	res.recordServedCounters(before, after, ops)
	if fleet {
		res.recordCluster(cs0, cs1, ops)
	}
	return s, st, nil
}

// recordCluster derives the cluster per-layer counts from the engine's
// ClusterStats over a served phase of ops solves.
func (r *result) recordCluster(before, after faqs.ClusterStats, ops int) {
	n := float64(max(ops, 1))
	if solves := after.Solves - before.Solves; solves != int64(ops) {
		r.report["cluster_local_fallbacks"] = int64(ops) - solves
	}
	r.set("cluster.frames_per_solve", float64(after.Frames-before.Frames)/n, ops)
	r.set("cluster.phases_per_solve", float64(after.Phases-before.Phases)/n, ops)
	r.set("cluster.load_payload_kb_per_solve", float64(after.LoadPayloadBytes-before.LoadPayloadBytes)/n/1024, ops)
	r.set("cluster.solve_payload_kb_per_solve", float64(after.SolvePayloadBytes-before.SolvePayloadBytes)/n/1024, ops)
	wire := after.WireOutBytes - before.WireOutBytes + after.WireInBytes - before.WireInBytes
	r.set("cluster.wire_bytes_per_solve", float64(wire)/n, ops)
}

// --- solve-large ----------------------------------------------------------

// genLarge draws solve-large's three queries: path7 and tree6 with
// dom = n, and wide4 (arity-4 edges overlapping in three variables)
// with dom = 46, so that each join matches about one partner. The
// queries keep their shapes' own names and edge order: variable order
// picks between merge and hash joins, so a renaming per seed would make
// the seed, not the program, decide the run's kernel mix.
func genLarge(seed int64, n int, tiny bool) []solveRequest {
	r := rand.New(rand.NewSource(seed))
	wideDom := 46
	if tiny {
		wideDom = 8
	}
	wide := shapeFromSpec("wide4", "A,B,C,D;B,C,D,E;C,D,E,F;D,E,F,G", []string{"A"})
	var out []solveRequest
	for _, s := range []shape{templateShape("path7"), templateShape("tree6"), wide} {
		dom := n
		if s.name == "wide4" {
			dom = wideDom
		}
		out = append(out, solveRequest{shape: s, names: s.names, wr: wireInstance(s, s.names, nil, n, dom, false, r)})
	}
	return out
}

func runSolveLarge(o *options, res *result) error {
	n := 100000
	if o.tiny {
		n = 2000
	}
	s, st, err := serveInproc(o, res, func() []solveRequest { return genLarge(o.seed, n, o.tiny) }, 0, 3)
	if err != nil {
		return err
	}
	defer s.close()
	if !o.trace {
		return nil
	}
	// The replay: relation build once per query (set-up work), then per
	// op the solve path's layers.
	rp := newReplayer()
	qs := make([]*faq.Query[int64], len(s.reqs))
	ops := 0
	deadline := time.Now().Add(o.replayPhase())
	for i := 0; ops == 0 || time.Now().Before(deadline); i++ {
		k := i % len(s.reqs)
		if qs[k] == nil {
			t := time.Now()
			q, err := internalQuery(s.reqs[k])
			if err != nil {
				return err
			}
			rp.sp.add("relation.build", time.Since(t))
			qs[k] = q
		}
		p, g, err := rp.bind(qs[k])
		if err != nil {
			return err
		}
		root, err := rp.pass(o.ctx, qs[k], p, g)
		if err != nil {
			return err
		}
		if got := relationDigest(qs[k].H, root); got != s.exp[k] {
			res.wrong("replay of query %d: answer %v, want %v", k, got, s.exp[k])
		}
		ops++
	}
	res.recordReplay(rp)
	res.setMedian("relation.build_ms", rp.sp["relation.build"])
	sp := rp.sp
	res.recordGap(medianSum(sp["plan.canon"], sp["plan.cache"], sp["plan.bind"], sp["faq.pass"]), quantile(st.lat, 0.5), ops)
	return nil
}

// --- cluster-tcp ----------------------------------------------------------

// clusterMix is cluster-tcp's per-cycle template mix of the four
// faqload templates, weighted so that each reported percentile falls
// inside one template's latencies rather than on the seam between two:
// path7 on 14 of 24 solves holds the median, star6 (the second slowest)
// on 5 holds the 90th percentile, and tri-pendant — gathered at the
// coordinator, ~20x slower than the rest and the noisiest — runs on 1.
var clusterMix = []string{
	"path7", "star6", "path7", "tree6", "path7", "path7", "star6", "path7",
	"tree6", "path7", "star6", "path7", "tri-pendant", "path7", "tree6", "path7",
	"star6", "path7", "path7", "tree6", "path7", "star6", "path7", "path7",
}

// genCluster draws cycles rounds of the template mix with fresh data
// per request, so every solve re-scatters. Requests keep the templates'
// names and edge order, like solve-large's.
func genCluster(seed int64, cycles, n, dom int) []solveRequest {
	r := rand.New(rand.NewSource(seed))
	var out []solveRequest
	for c := 0; c < cycles; c++ {
		for _, name := range clusterMix {
			s := templateShape(name)
			out = append(out, solveRequest{shape: s, names: s.names, wr: wireInstance(s, s.names, nil, n, dom, false, r)})
		}
	}
	return out
}

func runClusterTCP(o *options, res *result) error {
	n, dom, cycles := 2000, 64, 2
	if o.tiny {
		n, dom, cycles = 100, 16, 1
	}
	gen := func() []solveRequest { return genCluster(o.seed, cycles, n, dom) }
	s, st, err := serveInproc(o, res, gen, 2, len(clusterMix))
	if err != nil {
		return err
	}
	defer s.close()
	if !o.trace {
		return nil
	}
	return replayCluster(o, res, s, quantile(st.lat, 0.5))
}

// replayCluster is cluster-tcp's traced replay: a cluster.Solver over a
// timing wrapper around cluster.NewTCPTransport to the same fleet, fed
// the served requests after the same canonicalize/cache/bind steps.
func replayCluster(o *options, res *result, s *inproc, servedP50 float64) error {
	tr, err := cluster.NewTCPTransport(s.addrs, cluster.TCPOptions{})
	if err != nil {
		return err
	}
	tt := &timedTransport{Transport: tr}
	cl := cluster.NewClient(tt, cluster.Options{})
	defer cl.Close()
	solver, err := cluster.NewSolver[int64](cl, "count")
	if err != nil {
		return err
	}
	rp := newReplayer()
	qs := make([]*faq.Query[int64], len(s.reqs))
	maxRatio := 0.0
	ops := 0
	deadline := time.Now().Add(o.replayPhase())
	for i := 0; ops == 0 || time.Now().Before(deadline); i++ {
		k := i % len(s.reqs)
		if qs[k] == nil {
			q, err := internalQuery(s.reqs[k])
			if err != nil {
				return err
			}
			qs[k] = q
		}
		q := qs[k]
		_, g, err := rp.bind(q)
		if err != nil {
			return err
		}
		bound, err := cluster.PayloadBound(q, g, len(s.addrs))
		if err != nil {
			return err
		}
		before := cl.Stats()
		tt.take()
		t := time.Now()
		root, err := solver.SolveGHD(o.ctx, q, g)
		wall := time.Since(t)
		if err != nil {
			return err
		}
		iv := tt.take()
		busy := unionLen(iv)
		for _, x := range iv {
			rp.sp.add("rpc.roundtrip", x[1].Sub(x[0]))
		}
		rp.sp.add("rpc.busy", busy)
		rp.sp.add("cluster.solve", wall)
		rp.sp.add("cluster.coordinator_self", wall-busy)
		payload := cl.Stats().SolvePayloadBytes - before.SolvePayloadBytes
		if bound > 0 {
			ratio := float64(payload) / float64(bound)
			maxRatio = max(maxRatio, ratio)
			if ratio > 1 {
				res.wrong("query %d: solve payload %d bytes exceeds cluster.PayloadBound %d", k, payload, bound)
			}
		}
		if got := relationDigest(q.H, root); got != s.exp[k] {
			res.wrong("replay of query %d: answer %v, want %v", k, got, s.exp[k])
		}
		ops++
	}
	res.setMedian("plan.canon_ms", rp.sp["plan.canon"])
	res.setMedian("plan.bind_ms", rp.sp["plan.bind"])
	res.setMedian("rpc.roundtrip_ms", rp.sp["rpc.roundtrip"])
	res.setMedian("rpc.busy_ms_per_solve", rp.sp["rpc.busy"])
	res.setMedian("cluster.coordinator_self_ms", rp.sp["cluster.coordinator_self"])
	res.set("cluster.payload_bound_ratio", maxRatio, ops)
	sp := rp.sp
	res.recordGap(medianSum(sp["plan.canon"], sp["plan.cache"], sp["plan.bind"], sp["cluster.solve"]), servedP50, ops)
	return nil
}
