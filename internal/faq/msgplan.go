package faq

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// MessagePlan is the data-independent half of the GHD bottom-up pass of
// Theorem G.3, derived once per solve and shared by every executor —
// the local forest pass, incremental views (internal/delta), the
// cluster coordinator, and the paper's protocol engine — so a node's
// message schema has exactly one definition.
//
// Node v's message joins its own factor (the hyperedges placed at v,
// in ascending edge order; the multiplicative unit when none) with its
// children's messages in Children order, then aggregates out every
// variable outside Keep[v] innermost-first (the push-down of
// Corollary G.2). A node's joined schema never leaves χ(v), so
// Keep[v] = χ(v) ∩ (F ∪ χ(parent)) is also the message's schema.
type MessagePlan struct {
	G        *ghd.GHD
	Order    []int   // postorder: children before parents
	Children [][]int // node → children, ascending (the join order)
	Edges    [][]int // node → hyperedges placed at the node, ascending
	Keep     [][]int // node → χ(v) ∩ (F ∪ χ(parent)), sorted; F at the root
}

// NewMessagePlan derives the pass over g for free variables free. The
// paper's free-variable restriction applies (F ⊆ V(C(H)),
// Appendix G.5): a free variable outside the root bag is rejected with
// an error wrapping ErrFreeOutsideRoot.
func NewMessagePlan(g *ghd.GHD, free []int) (*MessagePlan, error) {
	rootBag := g.Bags[g.Root]
	for _, x := range free {
		if !hypergraph.ContainsSorted(rootBag, x) {
			return nil, fmt.Errorf("faq: free variable %d outside root bag %v: %w", x, rootBag, ErrFreeOutsideRoot)
		}
	}
	free = append([]int(nil), free...)
	sort.Ints(free)
	n := g.NumNodes()
	p := &MessagePlan{
		G:        g,
		Order:    g.PostOrder(),
		Children: g.Children(),
		Edges:    make([][]int, n),
		Keep:     make([][]int, n),
	}
	for e, v := range g.NodeOf {
		p.Edges[v] = append(p.Edges[v], e)
	}
	for v := 0; v < n; v++ {
		var parentBag []int
		if v != g.Root {
			parentBag = g.Bags[g.Parent[v]]
		}
		for _, x := range g.Bags[v] {
			if hypergraph.ContainsSorted(free, x) || hypergraph.ContainsSorted(parentBag, x) {
				p.Keep[v] = append(p.Keep[v], x)
			}
		}
	}
	return p, nil
}

// NodeFactor joins the factors placed at node v in ascending edge
// order, or returns nil when v carries none (a fat core root).
func NodeFactor[T any](s semiring.Semiring[T], p *MessagePlan, factors []*relation.Relation[T], v int) *relation.Relation[T] {
	var cur *relation.Relation[T]
	for _, e := range p.Edges[v] {
		if cur == nil {
			cur = factors[e]
		} else {
			cur = relation.Join(s, cur, factors[e])
		}
	}
	return cur
}

// AggregateNode applies node v's aggregation step to r, whose schema
// must lie within χ(v) (or, at the root, anywhere): every variable
// outside Keep[v] is eliminated innermost-first.
func AggregateNode[T any](q *Query[T], p *MessagePlan, v int, r *relation.Relation[T]) (*relation.Relation[T], error) {
	keep := p.Keep[v]
	return AggregateOut(q, r, func(x int) bool { return hypergraph.ContainsSorted(keep, x) })
}

// NodeMessage is the node task: own (nil for the multiplicative unit)
// joined with the children's messages msgs[c] in child order, then
// aggregated by AggregateNode.
func NodeMessage[T any](q *Query[T], p *MessagePlan, own *relation.Relation[T], msgs []*relation.Relation[T], v int) (*relation.Relation[T], error) {
	cur := own
	if cur == nil {
		cur = relation.Unit(q.S, q.S.One())
	}
	for _, c := range p.Children[v] {
		cur = relation.Join(q.S, cur, msgs[c])
	}
	return AggregateNode(q, p, v, cur)
}

// Pass runs the local bottom-up pass of q over p and returns every
// node's message (indexed by GHD node). Sibling subtrees run in
// parallel on opts.Pool (exec.Pool.Forest orders each node after its
// children); the per-node work is fixed, so the messages are
// bit-identical at any worker count. A non-nil ctx gates every node
// task. opts.Timed and opts.Shaped select the measurement mode;
// opts.Distributed is ignored. The caller validates q.
func Pass[T any](ctx context.Context, q *Query[T], p *MessagePlan, opts SolveOptions) ([]*relation.Relation[T], SolveMetrics, error) {
	var metrics SolveMetrics
	msgs := make([]*relation.Relation[T], p.G.NumNodes())
	task := func(v int) error {
		m, err := NodeMessage(q, p, NodeFactor(q.S, p, q.Factors, v), msgs, v)
		if err != nil {
			return err
		}
		msgs[v] = m
		return nil
	}
	run := task
	if ctx != nil {
		// The same per-task ctx gate ForestCtx applies, threaded here so
		// the timed/shaped variants stay cancellable too.
		run = func(v int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return task(v)
		}
	}
	pool := opts.Pool
	if pool == nil {
		pool = exec.Default()
	}
	var err error
	switch {
	case opts.Shaped:
		metrics.Shapes, err = pool.ForestShaped(p.G.Parent, run)
	case opts.Timed:
		metrics.Costs, err = pool.ForestTimed(p.G.Parent, run)
	default:
		err = pool.ForestCtx(ctx, p.G.Parent, task)
	}
	if err != nil {
		return nil, SolveMetrics{}, err
	}
	return msgs, metrics, nil
}
