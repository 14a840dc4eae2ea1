package faq_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// countFactors fills every hyperedge of h with seeded Count rows.
func countFactors(h *hypergraph.Hypergraph, seed int64, dom, rows int) []*relation.Relation[int64] {
	sc := semiring.Count{}
	r := rand.New(rand.NewSource(seed))
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for e := range factors {
		schema := h.Edge(e)
		b := relation.NewBuilder(sc, schema)
		row := make([]int32, len(schema))
		for i := 0; i < rows; i++ {
			for k := range row {
				row[k] = int32(r.Intn(dom))
			}
			b.AddRow(row, int64(1+r.Intn(3)))
		}
		factors[e] = b.Build()
	}
	return factors
}

// checkMessageSchemas runs faq.Pass and asserts the invariant every
// executor relies on: each node's message has schema exactly Keep[v],
// Keep[v] lies within χ(v), the root keeps exactly F, and the root
// message is the brute-force answer.
func checkMessageSchemas(t *testing.T, q *faq.Query[int64], g *ghd.GHD) *faq.MessagePlan {
	t.Helper()
	p, err := faq.NewMessagePlan(g, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	msgs, _, err := faq.Pass(context.Background(), q, p, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range msgs {
		if !slices.Equal(m.Schema(), p.Keep[v]) {
			t.Errorf("node %d: message schema %v, Keep %v", v, m.Schema(), p.Keep[v])
		}
		for _, x := range p.Keep[v] {
			if !hypergraph.ContainsSorted(g.Bags[v], x) {
				t.Errorf("node %d: Keep %v leaves χ(v) = %v", v, p.Keep[v], g.Bags[v])
			}
		}
	}
	if root := p.Keep[g.Root]; !slices.Equal(root, q.Free) {
		t.Errorf("root Keep %v, want F = %v", root, q.Free)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(q.S, msgs[g.Root], want) {
		t.Error("root message differs from BruteForce")
	}
	return p
}

// TestMessagePlanFatCoreRoot covers the cyclic tri-pendant shape
// (triangle A,B,C plus pendant C,D): the planner roots it at the
// factorless fat core root of Construction 2.8, whose message starts
// from the multiplicative unit. The acyclic templates are covered by
// the cluster package, whose partition keys rest on the same invariant.
func TestMessagePlanFatCoreRoot(t *testing.T) {
	h := hypergraph.New(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(0, 2)
	h.AddEdge(2, 3)
	for _, free := range [][]int{nil, {2}, {0, 1, 2}} {
		q := &faq.Query[int64]{S: semiring.Count{}, H: h, Factors: countFactors(h, 5, 4, 12), Free: free, DomSize: 4}
		g, err := faq.PlanGHD(h, free)
		if err != nil {
			t.Fatal(err)
		}
		p := checkMessageSchemas(t, q, g)
		if g.CoreRoot != g.Root || len(p.Edges[g.Root]) != 0 {
			t.Fatalf("F=%v: root %d (core root %d) carries edges %v; want the factorless fat core root",
				free, g.Root, g.CoreRoot, p.Edges[g.Root])
		}
	}
}

// TestMessagePlanSharedNode covers a node carrying two factors: the
// duplicate edges {A,B} both map to node 0, whose own factor is their
// join in ascending edge order.
func TestMessagePlanSharedNode(t *testing.T) {
	h := hypergraph.New(3)
	h.AddEdge(0, 1)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	g := &ghd.GHD{
		H:        h,
		Bags:     [][]int{{0, 1}, {1, 2}},
		Labels:   [][]int{{0, 1}, {2}},
		Parent:   []int{-1, 0},
		Root:     0,
		NodeOf:   []int{0, 0, 1},
		CoreRoot: -1,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, free := range [][]int{nil, {0}, {0, 1}} {
		q := &faq.Query[int64]{S: semiring.Count{}, H: h, Factors: countFactors(h, 9, 3, 6), Free: free, DomSize: 3}
		p := checkMessageSchemas(t, q, g)
		if !slices.Equal(p.Edges[0], []int{0, 1}) {
			t.Errorf("node 0 edges %v, want [0 1]", p.Edges[0])
		}
	}
}

func TestNewMessagePlanRejectsFreeOutsideRoot(t *testing.T) {
	h := hypergraph.PathGraph(5)
	g, err := ghd.Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faq.NewMessagePlan(g, []int{0, 4}); !errors.Is(err, faq.ErrFreeOutsideRoot) {
		t.Fatalf("NewMessagePlan error = %v, want wrapped ErrFreeOutsideRoot", err)
	}
}
