package protocol

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/flow"
	"repro/internal/ghd"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/topology"
)

// runner executes the paper's main protocol (Theorem 4.1 / F.1 / G.4) on
// one GYO-GHD: bottom-up star reductions over the forest part
// (Lemma 4.1, Algorithms 1–3), then the trivial protocol on the cyclic
// core (Lemma 4.2), with every transmission booked on the simulator's
// capacity ledger.
type runner[T any] struct {
	s   *Setup[T]
	net *netsim.Network
	g   *ghd.GHD
	p   *faq.MessagePlan

	rel    []*relation.Relation[T] // current relation per GHD node
	owner  []int                   // current holder per GHD node (-1: none)
	finish []int                   // round at which the node's relation is ready
}

// keyCodec encodes tuple columns as converge-cast keys of type K and
// assigns keys to Steiner-tree chunks. The uint64 codec covers tuples of
// ≤ keys.MaxPacked columns (and tuple indices) without allocating; the
// string codec is the arbitrary-arity fallback. Both chunk identically
// (keys.Chunk hashes the same bytes keys.ChunkString sees).
type keyCodec[K cmp.Ordered] struct {
	encode func(t []int32, cols []int) K
	chunk  func(k K, n int) int
}

func u64Codec(ncols int) keyCodec[uint64] {
	return keyCodec[uint64]{
		encode: func(t []int32, cols []int) uint64 { return keys.PackCols(t, cols) },
		chunk:  func(k uint64, n int) int { return keys.Chunk(k, ncols, n) },
	}
}

func strCodec() keyCodec[string] {
	return keyCodec[string]{
		encode: keys.EncodeCols,
		chunk:  keys.ChunkString,
	}
}

// Run executes the main protocol end to end and returns the answer
// relation (schema = the query's free variables) plus the measured cost.
// Planning goes through faq.PlanGHD — the same primitive the plan cache
// compiles once per query shape — so a service can hand RunOnGHD a cached
// decomposition and skip the planning cost entirely.
func Run[T any](s *Setup[T]) (*relation.Relation[T], Report, error) {
	gh, err := faq.PlanGHD(s.Q.H, s.Q.Free)
	if err != nil {
		return nil, Report{}, err
	}
	return RunOnGHD(s, gh)
}

// RunOnGHD is Run on a caller-chosen decomposition (ablation studies
// schedule the same query on differently-shaped GHDs).
func RunOnGHD[T any](s *Setup[T], gh *ghd.GHD) (*relation.Relation[T], Report, error) {
	rep := Report{Protocol: "faq-main"}
	if err := s.Validate(); err != nil {
		return nil, rep, err
	}
	if err := gh.Validate(); err != nil {
		return nil, rep, err
	}
	p, err := faq.NewMessagePlan(gh, s.Q.Free)
	if err != nil {
		return nil, rep, err
	}
	net, err := netsim.New(s.G, s.Bits())
	if err != nil {
		return nil, rep, err
	}
	r := &runner[T]{
		s:      s,
		net:    net,
		g:      gh,
		p:      p,
		rel:    make([]*relation.Relation[T], gh.NumNodes()),
		owner:  make([]int, gh.NumNodes()),
		finish: make([]int, gh.NumNodes()),
	}
	for i := range r.owner {
		r.owner[i] = -1
	}
	// A node carrying several factors starts from their join, which is
	// local only when one player holds them all.
	for v, edges := range p.Edges {
		if len(edges) == 0 {
			continue
		}
		owner := s.Assign[edges[0]]
		for _, e := range edges[1:] {
			if s.Assign[e] != owner {
				return nil, rep, fmt.Errorf("protocol: GHD node %d holds edges %v split across players %d and %d; its factors must share one player", v, edges, owner, s.Assign[e])
			}
		}
		r.rel[v] = faq.NodeFactor(s.Q.S, p, s.Q.Factors, v)
		r.owner[v] = owner
	}

	ch := p.Children
	for _, v := range p.Order {
		if len(ch[v]) == 0 {
			continue
		}
		if v == gh.Root && v == gh.CoreRoot {
			if err := r.corePhase(v, ch[v]); err != nil {
				return nil, rep, err
			}
			continue
		}
		// The converged map must land where the center relation lives
		// (R′_P filters the center's tuples), so the star target is the
		// center owner; finalize() ships the (aggregated, small) answer
		// to the output player afterwards.
		if err := r.starReduce(v, ch[v], r.owner[v]); err != nil {
			return nil, rep, err
		}
	}

	ans, err := r.finalize()
	if err != nil {
		return nil, rep, err
	}
	rep.Rounds = net.Rounds()
	rep.Bits = net.TotalBits()
	RecordReport(rep)
	return ans, rep, nil
}

// starReduce runs Algorithm 1/2/3 on the star centered at GHD node v
// with the given children, leaving R′_P at the target player.
func (r *runner[T]) starReduce(v int, children []int, target int) error {
	q := r.s.Q
	start := r.finish[v]
	// Child messages are pure local reductions — the push-down of
	// Corollary G.2 onto each child's keep set, no ledger bookings — so
	// they fan out across the exec pool; every transmission below stays
	// on the sequential schedule, keeping measured costs byte-identical.
	msgList := make([]*relation.Relation[T], len(children))
	if err := exec.Default().MapErr(len(children), func(i int) error {
		m, err := faq.AggregateNode(q, r.p, children[i], r.rel[children[i]])
		if err != nil {
			return err
		}
		msgList[i] = m
		return nil
	}); err != nil {
		return err
	}
	msgs := make(map[int]*relation.Relation[T], len(children))
	msgOwner := make(map[int]int, len(children))
	for i, c := range children {
		msgs[c] = msgList[i]
		msgOwner[c] = r.owner[c]
		if r.finish[c] > start {
			start = r.finish[c]
		}
	}

	// Player set of this star.
	K := []int{target, r.owner[v]}
	for _, c := range children {
		K = append(K, r.owner[c])
	}
	K = topology.SortedUnique(K)

	if len(K) == 1 {
		// Everything is already co-located: a purely local reduction.
		r.rel[v] = localStar(q, r.rel[v], children, msgs)
		r.owner[v] = target
		r.finish[v] = start
		return nil
	}

	// Fast path (Examples 2.1–2.3): every child shares the same
	// variable set W with the center, so converged (key, value) streams
	// over π_W need no prior broadcast of the center relation.
	fast := true
	var w []int
	for i, c := range children {
		sc := msgs[c].Schema()
		if i == 0 {
			w = sc
		} else if !equalIntSlices(w, sc) {
			fast = false
		}
	}

	units := 0
	for _, c := range children {
		if msgs[c].Len() > units {
			units = msgs[c].Len()
		}
	}
	if !fast && r.rel[v].Len() > units {
		units = r.rel[v].Len()
	}
	if units == 0 {
		units = 1
	}
	_, packing, _, err := flow.BestDelta(r.s.G, K, units)
	if err != nil {
		return err
	}

	var weighted *relation.Relation[T]
	var done int
	var werr error
	switch {
	case fast && len(w) <= keys.MaxPacked:
		weighted, done, werr = fastWeight(r, r.rel[v], w, children, msgs, msgOwner, target, packing, start,
			u64Codec(len(w)))
	case fast:
		weighted, done, werr = fastWeight(r, r.rel[v], w, children, msgs, msgOwner, target, packing, start,
			strCodec())
	default:
		conv, d, err := generalStar(r, v, children, msgs, msgOwner, target, packing, start)
		if err != nil {
			return err
		}
		weighted = weightCenter(q, r.rel[v], conv, func(i int, t []int32) uint64 {
			return keys.Pack1(int32(i))
		})
		done = d
	}
	if werr != nil {
		return werr
	}

	// R′_P: center tuples filtered and weighted by the converged map.
	r.rel[v] = weighted
	r.owner[v] = target
	r.finish[v] = done
	return nil
}

// fastWeight runs the fast-star converge-cast with the given codec and
// weights the center relation by the converged map, keyed on the
// center's columns for the common variable set w.
func fastWeight[K cmp.Ordered, T any](r *runner[T], center *relation.Relation[T], w []int,
	children []int, msgs map[int]*relation.Relation[T], msgOwner map[int]int, target int,
	packing []*flow.SteinerTree, start int, cod keyCodec[K]) (*relation.Relation[T], int, error) {
	conv, done, err := fastStar(r, children, msgs, msgOwner, target, packing, start, cod)
	if err != nil {
		return nil, 0, err
	}
	keyCols, err := columnsOf(center.Schema(), w)
	if err != nil {
		return nil, 0, err
	}
	return weightCenter(r.s.Q, center, conv, func(i int, t []int32) K {
		return cod.encode(t, keyCols)
	}), done, nil
}

// weightCenter builds R′_P: the center tuples whose key survived the
// converge-cast, each weighted by the converged value.
func weightCenter[K cmp.Ordered, T any](q *faq.Query[T], center *relation.Relation[T],
	conv map[K]T, keyOf func(i int, t []int32) K) *relation.Relation[T] {
	b := relation.NewBuilderHint(q.S, center.Schema(), center.Len())
	for i := 0; i < center.Len(); i++ {
		t := center.Tuple(i)
		m, ok := conv[keyOf(i, t)]
		if !ok {
			continue
		}
		b.AddRow(t, q.S.Mul(center.Value(i), m))
	}
	return b.Build()
}

// fastStar converges keyed messages π_W directly (no broadcast): the
// pipelined semijoin chains of Examples 2.1–2.3 generalized to Steiner
// packings.
func fastStar[K cmp.Ordered, T any](r *runner[T], children []int, msgs map[int]*relation.Relation[T],
	msgOwner map[int]int, target int, packing []*flow.SteinerTree, start int,
	cod keyCodec[K]) (map[K]T, int, error) {
	q := r.s.Q
	itemBits := clampBits(r.s.TupleBits(len(msgs[children[0]].Schema())), r.s.Bits())
	// Per-player local contribution: intersect keys across the player's
	// children, multiplying values.
	playerMaps := make(map[int]map[K]T)
	for _, c := range children {
		m := relationToMap(msgs[c], cod)
		o := msgOwner[c]
		if cur, ok := playerMaps[o]; ok {
			playerMaps[o] = intersectMaps(q, cur, m)
		} else {
			playerMaps[o] = m
		}
	}
	return convergeOverPacking(r, playerMaps, target, packing, start, itemBits, cod)
}

// generalStar implements the heterogeneous-star case of Algorithm 1:
// the center relation is first broadcast over the packing (chunked per
// tree), each child owner computes its value vector over the center's
// tuple indices, and the vectors converge with component-wise ⊗
// (footnote 24). Index keys are packed uint64s throughout.
func generalStar[T any](r *runner[T], v int, children []int, msgs map[int]*relation.Relation[T],
	msgOwner map[int]int, target int, packing []*flow.SteinerTree, start int) (map[uint64]T, int, error) {
	q := r.s.Q
	center := r.rel[v]
	src := r.owner[v]
	tupleBits := clampBits(r.s.TupleBits(center.Arity()), r.s.Bits())

	// Broadcast the center relation, chunked across the packing with the
	// same key-hash chunking the converge phase uses (one counting pass).
	chunkCount := make([]int, len(packing))
	for i := 0; i < center.Len(); i++ {
		chunkCount[keys.Chunk(keys.Pack1(int32(i)), 1, len(packing))]++
	}
	broadcastDone := make([]int, len(packing))
	for ti, st := range packing {
		n := chunkCount[ti]
		spec := &broadcastSpec{
			net:      r.net,
			tree:     &netsim.Tree{Root: src, Edges: st.Edges},
			start:    start,
			items:    n,
			itemBits: tupleBits,
		}
		done, err := spec.run()
		if err != nil {
			return nil, 0, err
		}
		broadcastDone[ti] = done
	}

	// Each player's vector over center tuple indices: for every child it
	// owns, index i survives iff the child's message has the matching
	// key; values multiply.
	idxBits := clampBits(keys.Bits(maxInt(center.Len(), 2)-1)+r.s.ValueBits(), r.s.Bits())
	playerMaps := make(map[int]map[uint64]T)
	for _, c := range children {
		cols, err := columnsOf(center.Schema(), msgs[c].Schema())
		if err != nil {
			return nil, 0, err
		}
		vec := make(map[uint64]T, center.Len())
		if len(cols) <= keys.MaxPacked {
			lookup := relationToMap(msgs[c], u64Codec(len(cols)))
			for i := 0; i < center.Len(); i++ {
				if val, ok := lookup[keys.PackCols(center.Tuple(i), cols)]; ok {
					vec[keys.Pack1(int32(i))] = val
				}
			}
		} else {
			lookup := relationToMap(msgs[c], strCodec())
			for i := 0; i < center.Len(); i++ {
				if val, ok := lookup[keys.EncodeCols(center.Tuple(i), cols)]; ok {
					vec[keys.Pack1(int32(i))] = val
				}
			}
		}
		o := msgOwner[c]
		if cur, ok := playerMaps[o]; ok {
			playerMaps[o] = intersectMaps(q, cur, vec)
		} else {
			playerMaps[o] = vec
		}
	}
	// Converge each chunk after its broadcast completes.
	return convergeOverPackingStaggered(r, playerMaps, target, packing, broadcastDone, idxBits, u64Codec(1))
}

// convergeOverPacking runs one keyed converge-cast per packed tree
// (chunked by key hash) and merges the root streams.
func convergeOverPacking[K cmp.Ordered, T any](r *runner[T], playerMaps map[int]map[K]T, target int,
	packing []*flow.SteinerTree, start, itemBits int, cod keyCodec[K]) (map[K]T, int, error) {
	starts := make([]int, len(packing))
	for i := range starts {
		starts[i] = start
	}
	return convergeOverPackingStaggered(r, playerMaps, target, packing, starts, itemBits, cod)
}

func convergeOverPackingStaggered[K cmp.Ordered, T any](r *runner[T], playerMaps map[int]map[K]T, target int,
	packing []*flow.SteinerTree, starts []int, itemBits int, cod keyCodec[K]) (map[K]T, int, error) {
	q := r.s.Q
	var terminals []int
	for u := range playerMaps {
		terminals = append(terminals, u)
	}
	terminals = topology.SortedUnique(append(terminals, target))
	// Partition each player's keys across the packed trees once (a map
	// per chunk per player), instead of re-hashing every key per tree.
	parts := make(map[int][]map[K]T, len(playerMaps))
	//faqlint:allow mapiter(order-free partition: every write is keyed by the player u)
	for u, full := range playerMaps {
		ps := make([]map[K]T, len(packing))
		for i := range ps {
			ps[i] = make(map[K]T)
		}
		//faqlint:allow mapiter(order-free distribution: every write is keyed by the tuple key k)
		for k, val := range full {
			ps[cod.chunk(k, len(packing))][k] = val
		}
		parts[u] = ps
	}
	out := make(map[K]T)
	finish := 0
	for _, s := range starts {
		if s > finish {
			finish = s
		}
	}
	for ti, st := range packing {
		tree := pruneToTerminals(r.s.G, &netsim.Tree{Root: target, Edges: st.Edges}, terminals)
		spec := &convergeSpec[K, T]{
			net:      r.net,
			tree:     tree,
			start:    starts[ti],
			itemBits: itemBits,
			local: func(node int) map[K]T {
				ps, ok := parts[node]
				if !ok {
					return nil // the node only relays
				}
				return ps[ti]
			},
			combine: q.S.Mul,
		}
		stream, err := spec.run()
		if err != nil {
			return nil, 0, err
		}
		for _, k := range stream.keys {
			tv := stream.m[k]
			out[k] = tv.val
			if tv.ready > finish {
				finish = tv.ready
			}
		}
	}
	return out, finish, nil
}

// corePhase finishes a cyclic query: children of the fat root (core
// factors and reduced pendant-tree roots) are routed to the output
// player with the trivial protocol (Lemma 3.1), which then joins them
// and aggregates the remaining bound variables.
func (r *runner[T]) corePhase(root int, children []int) error {
	q := r.s.Q
	out := r.s.Output
	// Sharded flow analysis, sequential ledger: the per-child MaxFlow
	// calls are pure reads of the topology, so they run across the exec
	// pool; all RoutePath bookings below stay in child order on the
	// sequential netsim ledger, keeping the Report byte-identical at any
	// worker count (same split as RunTrivial's).
	flows := make([]*flow.Result, len(children))
	if err := exec.Default().MapErr(len(children), func(i int) error {
		c := children[i]
		src := r.owner[c]
		bits := r.rel[c].Len() * r.s.TupleBits(r.rel[c].Arity())
		if src == out || bits == 0 { // same predicate as the ledger loop below
			return nil
		}
		res, err := flow.MaxFlow(r.s.G, src, out)
		if err != nil {
			return err
		}
		flows[i] = res
		return nil
	}); err != nil {
		return err
	}
	for i, c := range children {
		src := r.owner[c]
		if src == out {
			continue
		}
		bits := r.rel[c].Len() * r.s.TupleBits(r.rel[c].Arity())
		if bits == 0 {
			d, err := notifyEmpty(r.net, r.s.G, src, out, r.finish[c])
			if err != nil {
				return err
			}
			if d > r.finish[c] {
				r.finish[c] = d
			}
			continue
		}
		res := flows[i]
		if res.Value == 0 {
			return fmt.Errorf("protocol: no route from %d to %d", src, out)
		}
		share := ceilDiv(bits, res.Value)
		done := r.finish[c]
		for _, p := range res.Paths {
			d, err := r.net.RoutePath(p, r.finish[c], share)
			if err != nil {
				return err
			}
			if d > done {
				done = d
			}
		}
		r.finish[c] = done
	}
	// Local computation at the output: the fat root's node task — join
	// everything, aggregate the bound variables innermost-first.
	done := 0
	for _, c := range children {
		if r.finish[c] > done {
			done = r.finish[c]
		}
	}
	cur, err := faq.NodeMessage(q, r.p, nil, r.rel, root)
	if err != nil {
		return err
	}
	r.rel[root] = cur
	r.owner[root] = out
	r.finish[root] = done
	return nil
}

// finalize aggregates the root relation down to the free variables at
// its owner and ships the answer to the output player if needed.
func (r *runner[T]) finalize() (*relation.Relation[T], error) {
	q := r.s.Q
	root := r.g.Root
	cur, err := faq.AggregateNode(q, r.p, root, r.rel[root])
	if err != nil {
		return nil, err
	}
	if r.owner[root] != r.s.Output {
		path := r.s.G.ShortestPath(r.owner[root], r.s.Output, nil)
		if path == nil {
			return nil, fmt.Errorf("protocol: answer holder %d cannot reach output %d", r.owner[root], r.s.Output)
		}
		bits := cur.Len() * r.s.TupleBits(cur.Arity())
		if bits == 0 {
			bits = 1 // an empty answer still needs a round to say so
		}
		if _, err := r.net.RoutePath(path, r.finish[root], bits); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// localStar reduces a star without communication (all relations at one
// player). Each child message's schema is a subset of the center's, so
// filtering-and-weighting the center by a message is exactly the natural
// join — which the relation kernel executes with a sorted merge whenever
// the shared variables are a schema prefix.
func localStar[T any](q *faq.Query[T], center *relation.Relation[T], children []int, msgs map[int]*relation.Relation[T]) *relation.Relation[T] {
	cur := center
	for _, c := range children {
		cur = relation.Join(q.S, cur, msgs[c])
	}
	return cur
}

// relationToMap renders a message relation as key → value (keys encode
// the full tuple in schema order).
func relationToMap[K cmp.Ordered, T any](m *relation.Relation[T], cod keyCodec[K]) map[K]T {
	out := make(map[K]T, m.Len())
	for i := 0; i < m.Len(); i++ {
		out[cod.encode(m.Tuple(i), nil)] = m.Value(i)
	}
	return out
}

// intersectMaps keeps keys present in both maps, multiplying values —
// the local fold when one player owns several star leaves.
func intersectMaps[K cmp.Ordered, T any](q *faq.Query[T], a, b map[K]T) map[K]T {
	out := make(map[K]T)
	//faqlint:allow mapiter(order-free intersection: writes keyed by k, semiring Mul applied per key)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = q.S.Mul(va, vb)
		}
	}
	return out
}

// columnsOf maps variables vs to their column indices in schema. GHD
// invariants normally guarantee vs ⊆ schema, but that is verified rather
// than trusted: an unverified sort.SearchInts miss would silently yield
// a wrong or out-of-range column and corrupt the converge-cast keys.
func columnsOf(schema, vs []int) ([]int, error) {
	cols := make([]int, len(vs))
	for i, v := range vs {
		j := sort.SearchInts(schema, v)
		if j >= len(schema) || schema[j] != v {
			return nil, fmt.Errorf("protocol: variable %d not in schema %v", v, schema)
		}
		cols[i] = j
	}
	return cols, nil
}

func clampBits(bits, cap int) int {
	if bits > cap {
		return cap
	}
	if bits <= 0 {
		return 1
	}
	return bits
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
