package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/faqs"
	"repro/internal/faq"
	"repro/internal/relation"
)

// repeatSetup runs setup o.setups times, tearing each instance down
// before the next, records the median set-up time as setup_s, and
// returns the last instance for the timed loop. first is true on the
// first call, which also computes the reference answers (untimed).
func repeatSetup[T any](o *options, res *result, setup func(first bool) (T, time.Duration, error), teardown func(T)) (T, error) {
	var cur T
	var have bool
	var times []float64
	for i := 0; i < o.setups; i++ {
		if have {
			teardown(cur)
			have = false
			debug.FreeOSMemory()
		}
		v, d, err := setup(i == 0)
		if err != nil {
			return cur, err
		}
		cur, have = v, true
		times = append(times, d.Seconds())
	}
	res.setMedian("setup_s", times)
	res.report["setup_s_each"] = times
	return cur, nil
}

// --- serve-http ---------------------------------------------------------

type serveSizes struct{ n, dom, family, pool, warm int }

func serveHTTPSizes(tiny bool) serveSizes {
	if tiny {
		return serveSizes{n: 16, dom: 16, family: 24, pool: 32, warm: 4}
	}
	// A pool of 2048 Zipf draws over 600 shapes holds about 350 distinct
	// shapes, so cycling through it overflows the 256-plan cache.
	return serveSizes{n: 512, dom: 512, family: 600, pool: 2048, warm: 32}
}

// genSolveRequests draws the serve-http request pool and returns the
// encoded bodies: Zipf shape ranks over a seeded family, a seeded
// renaming (vertex names and edge order) and fresh data per request.
// each, when not nil, sees every request before its wire form is
// dropped (the pool's wire forms would take several hundred MB).
func genSolveRequests(seed int64, sz serveSizes, each func(i int, rq solveRequest) error) ([][]byte, error) {
	r := rand.New(rand.NewSource(seed))
	fam := shapeFamily(sz.family, r)
	ranks := zipfRanks(sz.pool, len(fam), r)
	bodies := make([][]byte, sz.pool)
	for i, k := range ranks {
		s := fam[k]
		rq := solveRequest{shape: s, names: renaming(s, r), order: r.Perm(len(s.edges))}
		rq.wr = wireInstance(s, rq.names, rq.order, sz.n, sz.dom, false, r)
		b, err := json.Marshal(rq.wr)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		if each != nil {
			if err := each(i, rq); err != nil {
				return nil, err
			}
		}
	}
	return bodies, nil
}

func runServeHTTP(o *options, res *result) error {
	sz := serveHTTPSizes(o.tiny)
	const clients = 2
	var bodies [][]byte
	var exp []digest
	check := func(i int, out []byte, lat time.Duration, rec func(faqs.WireInfo, time.Duration)) error {
		var wa faqs.WireAnswer
		if err := json.Unmarshal(out, &wa); err != nil {
			return fmt.Errorf("request %d: decode answer: %w", i, err)
		}
		if got := answerDigest(wa.Schema, wa.Tuples, wa.Values); got != exp[i] {
			return fmt.Errorf("request %d: answer %v, want %v", i, got, exp[i])
		}
		if rec != nil {
			rec(wa.Info, lat)
		}
		return nil
	}
	d, err := repeatSetup(o, res, func(first bool) (*daemon, time.Duration, error) {
		if first {
			// The reference answers, from a generation pass of their own
			// so that set-up time leaves them out.
			to := time.Now()
			or := newOracle()
			exp = make([]digest, sz.pool)
			_, err := genSolveRequests(o.seed, sz, func(i int, rq solveRequest) (err error) {
				exp[i], err = or.expected(o.ctx, rq)
				return err
			})
			if err != nil {
				return nil, 0, err
			}
			res.report["oracle_s"] = time.Since(to).Seconds()
			res.report["pool_shapes"] = len(or.ghds)
			if o.corrupt {
				exp[0] = corrupt(exp[0])
			}
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if bodies, err = genSolveRequests(o.seed, sz, nil); err != nil {
			return nil, 0, err
		}
		d, err := startFaqd(o.faqd)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < sz.warm; i++ {
			out, err := d.post("/solve", bodies[i], nil)
			if err != nil {
				d.stop()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
			if err := check(i, out, 0, nil); err != nil {
				res.wrong("warm-up: %v", err)
			}
		}
		return d, time.Since(t0), nil
	}, func(d *daemon) { d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()

	var mu sync.Mutex
	var outside, self []float64
	var reqBytes, respBytes int64
	rec := func(info faqs.WireInfo, lat time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		outside = append(outside, float64(lat.Nanoseconds()-info.TotalNS)/1e6)
		self = append(self, float64(info.TotalNS-info.CanonNS-info.PlanNS-info.BindNS-info.ExecNS)/1e6)
	}
	before, err := d.metrics()
	if err != nil {
		return err
	}
	bufs := make([]bytes.Buffer, clients)
	st := closedLoop(clients, o.servePhase(), nil, func(c, i int) (func(time.Duration) error, error) {
		idx := (i*clients + c) % len(bodies)
		out, err := d.post("/solve", bodies[idx], &bufs[c])
		if err != nil {
			return nil, err
		}
		return func(lat time.Duration) error {
			mu.Lock()
			reqBytes += int64(len(bodies[idx]))
			respBytes += int64(len(out))
			mu.Unlock()
			return check(idx, out, lat, rec)
		}, nil
	})
	after, err := d.metrics()
	if err != nil {
		return err
	}
	res.record(st)
	if rss, err := vmHWM(d.pid()); err == nil {
		res.set("peak_rss_mb", rss, 1)
	}
	ops := len(st.lat)
	res.setMedian("faqd.outside_service_ms", outside)
	res.setMedian("service.self_ms", self)
	res.set("faqd.request_kb", float64(reqBytes)/float64(max(ops, 1))/1024, ops)
	res.set("faqd.response_kb", float64(respBytes)/float64(max(ops, 1))/1024, ops)
	res.recordServedCounters(before, after, ops)
	res.set("runtime.gc_cycles_per_op", delta(before, after, "faq_go_gc_cycles_total")/float64(max(ops, 1)), ops)
	if !o.trace {
		return nil
	}
	return replaySolveBodies(o, res, bodies, exp, quantile(st.lat, 0.5))
}

// replaySolveBodies is serve-http's traced replay: each body goes
// through json.Unmarshal, faqs.BuildWireQuery, the solve path's layer
// functions, and the response encode, in the order faqd runs them.
// runtime.alloc_mb_per_op counts only those steps, not the replay's own
// second relation build, kernel pass and answer check.
func replaySolveBodies(o *options, res *result, bodies [][]byte, exp []digest, servedP50 float64) error {
	rp := newReplayer()
	ops := 0
	deadline := time.Now().Add(o.replayPhase())
	for i := 0; ops == 0 || time.Now().Before(deadline); i++ {
		idx := i % len(bodies)
		a := allocated()
		t := time.Now()
		var wr faqs.WireRequest
		if err := json.Unmarshal(bodies[idx], &wr); err != nil {
			return err
		}
		rp.sp.add("faqd.decode", time.Since(t))
		t = time.Now()
		if _, err := faqs.BuildWireQuery(&wr); err != nil {
			return err
		}
		rp.sp.add("faqs.build", time.Since(t))
		rp.served += allocated() - a
		t = time.Now()
		q, err := internalQuery(&wr)
		if err != nil {
			return err
		}
		rp.sp.add("relation.build", time.Since(t))
		p, g, err := rp.bind(q)
		if err != nil {
			return err
		}
		root, err := rp.pass(o.ctx, q, p, g)
		if err != nil {
			return err
		}
		if got := relationDigest(q.H, root); got != exp[idx] {
			res.wrong("replay of request %d: answer %v, want %v", idx, got, exp[idx])
		}
		a = allocated()
		t = time.Now()
		if _, err := encodeIndented(wireAnswer(q, root)); err != nil {
			return err
		}
		rp.sp.add("faqd.encode", time.Since(t))
		rp.served += allocated() - a
		ops++
	}
	res.set("runtime.alloc_mb_per_op", float64(rp.served)/float64(ops)/(1<<20), ops)
	res.recordReplay(rp)
	res.setMedian("faqd.decode_ms", rp.sp["faqd.decode"])
	res.setMedian("faqs.build_ms", rp.sp["faqs.build"])
	res.setMedian("relation.build_ms", rp.sp["relation.build"])
	res.setMedian("faqd.encode_ms", rp.sp["faqd.encode"])
	sp := rp.sp
	res.recordGap(medianSum(sp["faqd.decode"], sp["faqs.build"], sp["plan.canon"], sp["plan.cache"],
		sp["plan.bind"], sp["faq.pass"], sp["faqd.encode"]), servedP50, ops)
	return nil
}

// wireAnswer renders a Count answer relation the way faqs.SolveWire
// does (serving metadata aside).
func wireAnswer(q *faq.Query[int64], ans *relation.Relation[int64]) *faqs.WireAnswer {
	wa := &faqs.WireAnswer{
		Schema: make([]string, ans.Arity()),
		Tuples: make([][]int, ans.Len()),
		Values: make([]float64, ans.Len()),
	}
	for i, v := range ans.Schema() {
		wa.Schema[i] = q.H.VertexName(v)
	}
	for i := range wa.Tuples {
		t := ans.Tuple(i)
		row := make([]int, len(t))
		for j, x := range t {
			row[j] = int(x)
		}
		wa.Tuples[i] = row
		wa.Values[i] = float64(ans.Value(i))
	}
	return wa
}

// encodeIndented encodes v exactly as faqd's writeJSON does.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- view-churn ---------------------------------------------------------

// view is one standing view of view-churn: its /materialize body, the
// leaf factor and tuple its client inserts and deletes, and the
// expected answers with the tuple absent (base) and present.
type view struct {
	name     string
	wr       *faqs.WireRequest
	leaf     int
	tuple    []int
	upBodies [2][]byte // insert, delete
	exp      [2]viewAnswer
}

// viewAnswer is one expected view answer: its digest, and the exact
// bytes faqd's current encoding produces, whose length and CRC are a
// cheap first check (a layout change falls back to the digest).
type viewAnswer struct {
	d   digest
	n   int
	crc uint32
}

func viewSize(tiny bool) int {
	if tiny {
		return 300
	}
	return 100000
}

// genViews builds the two views' requests and update bodies.
func genViews(seed int64, n int) ([]*view, error) {
	r := rand.New(rand.NewSource(seed))
	specs := []struct {
		tmpl string
		leaf int
	}{{"path7", 6}, {"tree6", 5}}
	var out []*view
	for _, s := range specs {
		// Views keep the template's own names (path7 free A0, tree6 free R).
		sh := templateShape(s.tmpl)
		wr := wireInstance(sh, sh.names, nil, n, n, true, r)
		v := &view{name: s.tmpl, wr: wr, leaf: s.leaf}
		v.tuple = make([]int, len(wr.Edges[s.leaf]))
		for j := range v.tuple {
			v.tuple[j] = r.Intn(n)
		}
		for k, up := range []faqs.WireUpdateRequest{
			{Name: v.name, Factor: s.leaf, Inserts: []faqs.WireTupleUpdate{{Tuple: v.tuple}}},
			{Name: v.name, Factor: s.leaf, Deletes: []faqs.WireTupleUpdate{{Tuple: v.tuple}}},
		} {
			b, err := json.Marshal(up)
			if err != nil {
				return nil, err
			}
			v.upBodies[k] = b
		}
		out = append(out, v)
	}
	return out, nil
}

// expectViews computes each view's expected answers with faq.Solve:
// after an insert (k=0) the leaf tuple is present once more, after the
// matching delete (k=1) the view is back at its base.
func expectViews(views []*view, strategy map[string]string) error {
	for _, v := range views {
		for k := 0; k < 2; k++ {
			wr := *v.wr
			if k == 0 {
				wr.Factors = append([]faqs.WireFactor(nil), v.wr.Factors...)
				f := wr.Factors[v.leaf]
				f.Tuples = append(append([][]int(nil), f.Tuples...), v.tuple)
				wr.Factors[v.leaf] = f
			}
			q, err := internalQuery(&wr)
			if err != nil {
				return err
			}
			ans, err := faq.Solve(q)
			if err != nil {
				return err
			}
			wa := wireAnswer(q, ans)
			b, err := encodeIndented(&faqs.WireMaterializedAnswer{
				Name: v.name, Strategy: strategy[v.name], Schema: wa.Schema, Tuples: wa.Tuples, Values: wa.Values,
			})
			if err != nil {
				return err
			}
			v.exp[k] = viewAnswer{d: answerDigest(wa.Schema, wa.Tuples, wa.Values), n: len(b), crc: crc32.Checksum(b, crcTable)}
		}
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checkView verifies one /update reply against the expected answer.
func checkView(v *view, k int, out []byte) error {
	want := v.exp[k]
	if len(out) == want.n && crc32.Checksum(out, crcTable) == want.crc {
		return nil
	}
	var wa faqs.WireMaterializedAnswer
	if err := json.Unmarshal(out, &wa); err != nil {
		return fmt.Errorf("view %s: decode answer: %w", v.name, err)
	}
	if got := answerDigest(wa.Schema, wa.Tuples, wa.Values); got != want.d {
		return fmt.Errorf("view %s op %d: answer %v, want %v", v.name, k, got, want.d)
	}
	return nil
}

func runViewChurn(o *options, res *result) error {
	n := viewSize(o.tiny)
	var views []*view
	warm := 4
	if o.tiny {
		warm = 2
	}
	d, err := repeatSetup(o, res, func(first bool) (*daemon, time.Duration, error) {
		t0 := time.Now()
		vs, err := genViews(o.seed, n)
		if err != nil {
			return nil, 0, err
		}
		var mats [][]byte
		for _, v := range vs {
			b, err := json.Marshal(faqs.WireMaterializeRequest{Name: v.name, Request: *v.wr})
			if err != nil {
				return nil, 0, err
			}
			mats = append(mats, b)
		}
		d, err := startFaqd(o.faqd)
		if err != nil {
			return nil, 0, err
		}
		strategy := map[string]string{}
		for i, v := range vs {
			out, err := d.post("/materialize", mats[i], nil)
			if err != nil {
				d.stop()
				return nil, 0, err
			}
			var wa faqs.WireMaterializedAnswer
			if err := json.Unmarshal(out, &wa); err != nil {
				d.stop()
				return nil, 0, err
			}
			strategy[v.name] = wa.Strategy
		}
		boot := time.Since(t0)
		if first {
			if err := expectViews(vs, strategy); err != nil {
				d.stop()
				return nil, 0, err
			}
			if o.corrupt {
				vs[0].exp[0].d = corrupt(vs[0].exp[0].d)
				vs[0].exp[0].crc ^= 1
			}
		} else {
			for i, v := range vs {
				v.exp = views[i].exp
			}
		}
		views = vs
		t1 := time.Now()
		for _, v := range views {
			for i := 0; i < warm; i++ {
				out, err := d.post("/update", v.upBodies[i%2], nil)
				if err != nil {
					d.stop()
					return nil, 0, fmt.Errorf("warm-up: %w", err)
				}
				if err := checkView(v, i%2, out); err != nil {
					res.wrong("warm-up: %v", err)
				}
			}
		}
		return d, boot + time.Since(t1), nil
	}, func(d *daemon) { d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()

	var mu sync.Mutex
	var reqBytes, respBytes int64
	before, err := d.metrics()
	if err != nil {
		return err
	}
	viewOf := func(c, _ int) string { return views[c].name }
	bufs := make([]bytes.Buffer, len(views))
	st := closedLoop(len(views), o.servePhase(), viewOf, func(c, i int) (func(time.Duration) error, error) {
		v := views[c]
		out, err := d.post("/update", v.upBodies[i%2], &bufs[c])
		if err != nil {
			return nil, err
		}
		return func(time.Duration) error {
			mu.Lock()
			reqBytes += int64(len(v.upBodies[i%2]))
			respBytes += int64(len(out))
			mu.Unlock()
			return checkView(v, i%2, out)
		}, nil
	})
	after, err := d.metrics()
	if err != nil {
		return err
	}
	res.record(st)
	if rss, err := vmHWM(d.pid()); err == nil {
		res.set("peak_rss_mb", rss, 1)
	}
	ops := len(st.lat)
	res.set("faqd.request_kb", float64(reqBytes)/float64(max(ops, 1))/1024, ops)
	res.set("faqd.response_kb", float64(respBytes)/float64(max(ops, 1))/1024, ops)
	res.recordServedCounters(before, after, ops)
	res.set("runtime.gc_cycles_per_op", delta(before, after, "faq_go_gc_cycles_total")/float64(max(ops, 1)), ops)
	if !o.trace {
		return nil
	}
	d.stop() // the replay runs in-process; free faqd's memory and cores first
	return replayViews(o, res, views, quantile(st.lat, 0.5))
}

// replayViews is view-churn's traced replay on an in-process engine:
// faqs.Engine.Materialize per view, then per op json.Unmarshal of the
// update body, Materialized.Update, faqs.RenderMaterialized (the view's
// Answer) and the indented JSON encode faqd writes.
func replayViews(o *options, res *result, views []*view, servedP50 float64) error {
	eng := faqs.NewEngine()
	defer eng.Close()
	sp := spans{}
	mats := make([]*faqs.Materialized, len(views))
	for i, v := range views {
		q, err := faqs.BuildWireQuery(v.wr)
		if err != nil {
			return err
		}
		t := time.Now()
		m, err := eng.Materialize(o.ctx, q)
		if err != nil {
			return err
		}
		sp["delta.materialize_s"] = append(sp["delta.materialize_s"], time.Since(t).Seconds())
		mats[i] = m
		defer m.Close()
	}
	var alloc uint64 // by the steps faqd runs, not the answer check
	ops := 0
	deadline := time.Now().Add(o.replayPhase())
	for i := 0; ops == 0 || time.Now().Before(deadline) || i%(2*len(views)) != 0; i++ {
		c, k := i%len(views), (i/len(views))%2
		v := views[c]
		a := allocated()
		t := time.Now()
		var ur faqs.WireUpdateRequest
		if err := json.Unmarshal(v.upBodies[k], &ur); err != nil {
			return err
		}
		sp.add("faqd.decode", time.Since(t))
		t = time.Now()
		if err := mats[c].Update(o.ctx, ur.Factor, ur.Inserts, ur.Deletes); err != nil {
			return err
		}
		sp.add("delta.update", time.Since(t))
		t = time.Now()
		wa, err := faqs.RenderMaterialized(ur.Name, mats[c])
		if err != nil {
			return err
		}
		sp.add("delta.answer", time.Since(t))
		t = time.Now()
		if _, err := encodeIndented(wa); err != nil {
			return err
		}
		sp.add("faqd.encode", time.Since(t))
		alloc += allocated() - a
		if got := answerDigest(wa.Schema, wa.Tuples, wa.Values); got != v.exp[k].d {
			res.wrong("replay of view %s op %d: answer %v, want %v", v.name, k, got, v.exp[k].d)
		}
		ops++
	}
	res.set("runtime.alloc_mb_per_op", float64(alloc)/float64(ops)/(1<<20), ops)
	res.setMedian("delta.materialize_s", sp["delta.materialize_s"])
	res.setMedian("faqd.decode_ms", sp["faqd.decode"])
	res.setMedian("delta.update_ms", sp["delta.update"])
	res.setMedian("delta.answer_ms", sp["delta.answer"])
	res.setMedian("faqd.encode_ms", sp["faqd.encode"])
	res.recordGap(medianSum(sp["faqd.decode"], sp["delta.update"], sp["delta.answer"], sp["faqd.encode"]), servedP50, ops)
	return nil
}
