package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/faqs"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// shape is a query shape over vertex ids 0..nv-1: hyperedges and the
// free vertices.
type shape struct {
	name  string
	nv    int
	edges [][]int
	free  []int
	names []string // vertex names of a parsed template (nil for generated shapes)
}

// templateShape converts a standing workload template (path7, star6,
// tree6, tri-pendant) into a shape.
func templateShape(name string) shape {
	t, ok := workload.TemplateByName(name)
	if !ok {
		return shapeFromSpec(name, "", nil) // unreachable for the names used here
	}
	return shapeFromSpec(name, t.Spec, t.Free)
}

// shapeFromSpec parses "A,B;B,C"-style edge lists.
func shapeFromSpec(name, spec string, free []string) shape {
	ids := map[string]int{}
	id := func(n string) int {
		if v, ok := ids[n]; ok {
			return v
		}
		ids[n] = len(ids)
		return ids[n]
	}
	s := shape{name: name}
	for _, e := range strings.Split(spec, ";") {
		var edge []int
		for _, n := range strings.Split(e, ",") {
			edge = append(edge, id(n))
		}
		s.edges = append(s.edges, edge)
	}
	for _, n := range free {
		s.free = append(s.free, id(n))
	}
	s.nv = len(ids)
	s.names = make([]string, s.nv)
	for n, v := range ids {
		s.names[v] = n
	}
	return s
}

// shapeFamily returns size distinct query shapes, the four faqload
// templates first (the Zipf head) and then seeded random trees of 9 and
// 10 vertices, each rooted at a random free vertex. Distinctness is
// rooted-tree isomorphism (AHU codes), which for trees is exactly the
// plan cache's renaming-invariant shape identity. Trees of 9 and 10
// vertices compile in well under a millisecond; 8-vertex trees take
// ~75 ms (exhaustive decomposition search), so a tail that mixed them
// in would make a run's tail latency depend on how many of them its
// seed drew rather than on the program.
func shapeFamily(size int, r *rand.Rand) []shape {
	fam := []shape{templateShape("path7"), templateShape("star6"), templateShape("tree6"), templateShape("tri-pendant")}
	seen := map[string]bool{}
	for _, s := range fam[:3] {
		seen[treeCode(s)] = true
	}
	for tries := 0; len(fam) < size; tries++ {
		// Ranks take 9 and 10 vertices in a fixed 1:2 rhythm, so a rank's
		// request size is the same under every seed (there are 286 rooted
		// 9-vertex trees; a class running dry falls back to 10 vertices).
		nv := 10
		if len(fam)%3 == 0 && tries < 1000 {
			nv = 9
		}
		s := shape{nv: nv, free: []int{r.Intn(nv)}}
		for v := 1; v < nv; v++ {
			s.edges = append(s.edges, []int{r.Intn(v), v})
		}
		code := treeCode(s)
		if seen[code] {
			continue
		}
		seen[code] = true
		s.name = fmt.Sprintf("t%d", len(fam))
		fam = append(fam, s)
		tries = 0
	}
	return fam
}

// treeCode is the AHU canonical code of a tree shape rooted at its
// first free vertex.
func treeCode(s shape) string {
	adj := make([][]int, s.nv)
	for _, e := range s.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	var code func(v, parent int) string
	code = func(v, parent int) string {
		var kids []string
		for _, c := range adj[v] {
			if c != parent {
				kids = append(kids, code(c, v))
			}
		}
		sort.Strings(kids)
		return "(" + strings.Join(kids, "") + ")"
	}
	return code(s.free[0], -1)
}

// zipfRanks draws n shape ranks from a Zipf(s=1.1) law over [0, size).
func zipfRanks(n, size int, r *rand.Rand) []int {
	z := rand.NewZipf(r, 1.1, 1, uint64(size-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// renaming draws a seeded renaming of a shape's vertices.
func renaming(s shape, r *rand.Rand) []string {
	perm := r.Perm(s.nv)
	names := make([]string, s.nv)
	for v := range names {
		names[v] = fmt.Sprintf("v%d", perm[v])
	}
	return names
}

// wireInstance renders one request of shape s under the given vertex
// names, listing shape edge order[j] as the request's edge j (nil
// keeps the shape's order): each factor holds n random tuples over
// [0, dom) with Count values in {1,2,3} (nil values when plain is set:
// every tuple annotated with 1). The edge order decides the variable
// ids the program assigns, so a reordered instance is a renaming the
// plan cache must see through.
func wireInstance(s shape, names []string, order []int, n, dom int, plain bool, r *rand.Rand) *faqs.WireRequest {
	wr := &faqs.WireRequest{Semiring: "count", Dom: dom}
	for j := range s.edges {
		e := s.edges[j]
		if order != nil {
			e = s.edges[order[j]]
		}
		en := make([]string, len(e))
		for i, v := range e {
			en[i] = names[v]
		}
		wr.Edges = append(wr.Edges, en)
		wf := faqs.WireFactor{Tuples: make([][]int, n)}
		if !plain {
			wf.Values = make([]float64, n)
		}
		for t := 0; t < n; t++ {
			row := make([]int, len(e))
			for j := range row {
				row[j] = r.Intn(dom)
			}
			wf.Tuples[t] = row
			if !plain {
				wf.Values[t] = float64(1 + r.Intn(3))
			}
		}
		wr.Factors = append(wr.Factors, wf)
	}
	for _, v := range s.free {
		wr.Free = append(wr.Free, names[v])
	}
	return wr
}

// internalQuery mirrors faqs.BuildWireQuery onto the internal types the
// replay drives: vertex ids in first-appearance order, factor schemas
// in edge order, Count values through int64, duplicate tuples ⊕-merged
// by the relation builder.
func internalQuery(wr *faqs.WireRequest) (*faq.Query[int64], error) {
	s := semiring.Count{}
	hb := hypergraph.NewBuilder()
	for _, names := range wr.Edges {
		hb.Edge(dedupNames(names)...)
	}
	h := hb.Build()
	q := &faq.Query[int64]{S: s, H: h, DomSize: wr.Dom}
	for e, names := range wr.Edges {
		attrs := dedupNames(names)
		ids := make([]int, len(attrs))
		for i, a := range attrs {
			ids[i] = hb.VertexID(a)
		}
		wf := wr.Factors[e]
		b := relation.NewBuilderHint[int64](s, ids, len(wf.Tuples))
		for ti, t := range wf.Tuples {
			v := int64(1)
			if wf.Values != nil {
				v = int64(wf.Values[ti])
			}
			b.Add(t, v)
		}
		q.Factors = append(q.Factors, b.Build())
	}
	for _, name := range wr.Free {
		id := hb.VertexID(name)
		if id < 0 {
			return nil, fmt.Errorf("free variable %q appears in no edge", name)
		}
		q.Free = append(q.Free, id)
	}
	sort.Ints(q.Free)
	return q, q.Validate()
}

func dedupNames(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// digest identifies an answer: its row count and an order-independent
// hash over the schema names and every (tuple, value) row, so it does
// not depend on the row order or the JSON layout an answer arrives in.
type digest struct {
	Rows int
	Hash uint64
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x", d.Rows, d.Hash) }

// answerDigest digests a wire-shaped answer. Rows are hashed with an
// inline FNV-1a so that checking an answer allocates nothing per row.
func answerDigest(schema []string, tuples [][]int, values []float64) digest {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(schema, "\x00")))
	sum := h.Sum64()
	for i, t := range tuples {
		rh := uint64(fnvOffset)
		for _, x := range t {
			rh = fnvWord(rh, uint64(x))
		}
		if i < len(values) {
			rh = fnvWord(rh, math.Float64bits(values[i]))
		}
		sum += mix(rh)
	}
	return digest{Rows: len(tuples), Hash: sum}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord continues an FNV-1a hash over the 8 little-endian bytes of x.
func fnvWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return h
}

// relationDigest digests an internal Count relation exactly as the
// served answer renders it (faqs' scalar rule included: an empty
// scalar answer is one row holding the semiring's 0).
func relationDigest(h *hypergraph.Hypergraph, r *relation.Relation[int64]) digest {
	schema := make([]string, len(r.Schema()))
	for i, v := range r.Schema() {
		schema[i] = h.VertexName(v)
	}
	tuples := make([][]int, r.Len())
	values := make([]float64, r.Len())
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		row := make([]int, len(t))
		for j, x := range t {
			row[j] = int(x)
		}
		tuples[i] = row
		values[i] = float64(r.Value(i))
	}
	if r.Arity() == 0 && r.Len() == 0 {
		tuples, values = [][]int{{}}, []float64{0}
	}
	return answerDigest(schema, tuples, values)
}

// mix is the splitmix64 finalizer: it spreads row hashes before the
// commutative sum so that related rows cannot cancel out.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// solveRequest is one generated request: its shape, the renaming it
// was drawn under (names, and edge order; nil keeps the shape's), the
// wire request, and its encoded body (HTTP workloads).
type solveRequest struct {
	shape shape
	names []string
	order []int
	wr    *faqs.WireRequest
	body  []byte
}

// oracle computes reference answers for many instances of few shapes:
// faq.Solve's own planner (faq.PlanGHD) runs once per shape, and its
// decomposition is relabeled onto each instance through the renaming
// the generator drew — independent of the program's canonicalization
// and plan cache — before faq.SolveGHD evaluates it.
type oracle struct {
	ghds map[string]*ghd.GHD
}

func newOracle() *oracle { return &oracle{ghds: map[string]*ghd.GHD{}} }

// expected returns the reference answer of one generated request.
func (or *oracle) expected(ctx context.Context, rq solveRequest) (digest, error) {
	s, names, order := rq.shape, rq.names, rq.order
	g0, ok := or.ghds[s.name]
	if !ok {
		h := hypergraph.New(s.nv)
		for _, e := range s.edges {
			h.AddEdge(e...)
		}
		var err error
		if g0, err = faq.PlanGHD(h, s.free); err != nil {
			return digest{}, err
		}
		or.ghds[s.name] = g0
	}
	q, err := internalQuery(rq.wr)
	if err != nil {
		return digest{}, err
	}
	ids := map[string]int{}
	for v := 0; v < q.H.NumVertices(); v++ {
		ids[q.H.VertexName(v)] = v
	}
	varTo := make(map[int]int, s.nv)
	for v, name := range names {
		varTo[v] = ids[name]
	}
	edgeTo := make([]int, len(s.edges)) // shape edge -> request edge
	for j := range edgeTo {
		if order == nil {
			edgeTo[j] = j
		} else {
			edgeTo[order[j]] = j
		}
	}
	g, err := g0.Relabel(q.H, varTo, edgeTo)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return digest{}, err
	}
	ans, _, err := faq.SolveGHD(ctx, q, g, faq.SolveOptions{})
	if err != nil {
		return digest{}, err
	}
	return relationDigest(q.H, ans), nil
}

// corrupt flips an expected digest so the checker must reject the
// matching answer (the self-check of the answer check).
func corrupt(d digest) digest { d.Hash ^= 1; return d }
