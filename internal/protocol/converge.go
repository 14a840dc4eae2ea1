package protocol

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// keyed converge-cast: the scheduling core of Theorem 3.11 and of the
// star protocol. Each participating node holds a keyed map of semiring
// values; the converge-cast streams (key, value) items up a Steiner tree
// toward its root, one item per reservation, combining values per key at
// every node and dropping keys absent from any constraining branch —
// exactly the pipelined semijoin chains of Examples 2.1–2.3 when the
// tree is a path.
//
// Streams are generic in the key type: packed uint64 keys carry tuples
// of ≤ keys.MaxPacked columns (and tuple indices) allocation-free, and
// wider tuples travel as big-endian string keys. Items are sorted,
// deduplicated and costed on the wire, so both keys are injective —
// never a hash (see keyCodec).

// timedValue is a value annotated with the round at which it became
// available at the current node.
type timedValue[T any] struct {
	val   T
	ready int
}

// keyedStream is a deterministic (sorted-key) stream of timed values.
type keyedStream[K cmp.Ordered, T any] struct {
	keys []K
	m    map[K]timedValue[T]
}

func newKeyedStream[K cmp.Ordered, T any]() *keyedStream[K, T] {
	return &keyedStream[K, T]{m: make(map[K]timedValue[T])}
}

func (s *keyedStream[K, T]) add(k K, v T, ready int) {
	if _, dup := s.m[k]; dup {
		//faqlint:allow nopanic(invariant check: converge streams are built key-unique by construction)
		panic("protocol: duplicate key in stream")
	}
	s.keys = append(s.keys, k)
	s.m[k] = timedValue[T]{v, ready}
}

func (s *keyedStream[K, T]) sortKeys() { slices.Sort(s.keys) }

// convergeSpec configures one keyed converge-cast over one tree.
type convergeSpec[K cmp.Ordered, T any] struct {
	net   *netsim.Network
	tree  *netsim.Tree
	start int
	// itemBits is the channel cost of one (key, value) item.
	itemBits int
	// local returns a node's own keyed contribution (nil when the node
	// only relays). Keys must be unique per node.
	local func(node int) map[K]T
	// combine is the semiring product folding branch values.
	combine func(a, b T) T
}

// run executes the converge-cast and returns the root's stream (keys
// surviving every constraining branch, with combined values and the
// rounds at which the root held them).
func (c *convergeSpec[K, T]) run() (*keyedStream[K, T], error) {
	g := c.net.Graph()
	// Orient the tree.
	in := make(map[int]bool, len(c.tree.Edges))
	for _, e := range c.tree.Edges {
		in[e] = true
	}
	children := make(map[int][]int)
	seen := map[int]bool{c.tree.Root: true}
	queue := []int{c.tree.Root}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj(u) {
			id, _ := g.EdgeID(u, v)
			if !in[id] || seen[v] {
				continue
			}
			seen[v] = true
			children[u] = append(children[u], v)
			queue = append(queue, v)
			count++
		}
	}
	if count != len(c.tree.Edges)+1 {
		return nil, fmt.Errorf("protocol: converge edge set is not a tree rooted at %d", c.tree.Root)
	}
	//faqlint:allow mapiter(per-key in-place sort of the child lists; key visit order immaterial)
	for u := range children {
		slices.Sort(children[u])
	}

	var walk func(u int) (*keyedStream[K, T], error)
	walk = func(u int) (*keyedStream[K, T], error) {
		// Gather branch streams, shipping each child's stream up its
		// edge with pipelined per-item reservations.
		var branches []*keyedStream[K, T]
		for _, v := range children[u] {
			sub, err := walk(v)
			if err != nil {
				return nil, err
			}
			shipped := newKeyedStream[K, T]()
			for _, k := range sub.keys {
				tv := sub.m[k]
				arrive, err := c.net.Reserve(v, u, maxInt(tv.ready, c.start), c.itemBits)
				if err != nil {
					return nil, err
				}
				shipped.add(k, tv.val, arrive)
			}
			branches = append(branches, shipped)
		}
		loc := c.local(u)
		// Intersection semantics: a key survives iff present in every
		// branch and in the local contribution (when the node has one).
		out := newKeyedStream[K, T]()
		if len(branches) == 0 && loc == nil {
			return out, nil // bare relay leaf: contributes nothing
		}
		// Candidate keys: the first constraining source.
		var candidates []K
		if loc != nil {
			candidates = sortedKeys(loc)
		} else {
			candidates = branches[0].keys
		}
		for _, k := range candidates {
			ready := c.start
			var have bool
			var acc T
			if loc != nil {
				acc, have = loc[k], true
			}
			dead := false
			for _, br := range branches {
				tv, ok := br.m[k]
				if !ok {
					dead = true
					break
				}
				if tv.ready > ready {
					ready = tv.ready
				}
				if have {
					acc = c.combine(acc, tv.val)
				} else {
					acc, have = tv.val, true
				}
			}
			if !dead {
				out.add(k, acc, ready)
			}
		}
		out.sortKeys()
		return out, nil
	}
	return walk(c.tree.Root)
}

func sortedKeys[K cmp.Ordered, T any](m map[K]T) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// broadcastSpec streams an indexed item sequence from the root down a
// tree, pipelined (item i can leave a node the round after arriving).
type broadcastSpec struct {
	net      *netsim.Network
	tree     *netsim.Tree
	start    int
	items    int
	itemBits int
}

// run returns the round at which the last node holds the last item.
func (b *broadcastSpec) run() (int, error) {
	g := b.net.Graph()
	in := make(map[int]bool, len(b.tree.Edges))
	for _, e := range b.tree.Edges {
		in[e] = true
	}
	finish := b.start
	// arrival[i] at the current node; recurse down.
	var walk func(u int, arrival []int, visited map[int]bool) error
	walk = func(u int, arrival []int, visited map[int]bool) error {
		visited[u] = true
		for _, v := range g.Adj(u) {
			id, _ := g.EdgeID(u, v)
			if !in[id] || visited[v] {
				continue
			}
			childArr := make([]int, b.items)
			for i := 0; i < b.items; i++ {
				t, err := b.net.Reserve(u, v, maxInt(arrival[i], b.start), b.itemBits)
				if err != nil {
					return err
				}
				childArr[i] = t
				if t > finish {
					finish = t
				}
			}
			if err := walk(v, childArr, visited); err != nil {
				return err
			}
		}
		return nil
	}
	rootArr := make([]int, b.items)
	for i := range rootArr {
		rootArr[i] = b.start + i // the source releases one item per round
	}
	if err := walk(b.tree.Root, rootArr, map[int]bool{}); err != nil {
		return 0, err
	}
	return finish, nil
}

// pruneToTerminals drops non-terminal leaves from a Steiner tree so that
// converge-cast leaves always carry constraints.
func pruneToTerminals(g *topology.Graph, tree *netsim.Tree, terminals []int) *netsim.Tree {
	isTerm := make(map[int]bool, len(terminals))
	for _, t := range terminals {
		isTerm[t] = true
	}
	edges := append([]int(nil), tree.Edges...)
	for {
		deg := make(map[int]int)
		for _, e := range edges {
			u, v := g.Edge(e)
			deg[u]++
			deg[v]++
		}
		removed := false
		var keep []int
		for _, e := range edges {
			u, v := g.Edge(e)
			if (deg[u] == 1 && !isTerm[u] && u != tree.Root) || (deg[v] == 1 && !isTerm[v] && v != tree.Root) {
				removed = true
				continue
			}
			keep = append(keep, e)
		}
		edges = keep
		if !removed {
			break
		}
	}
	return &netsim.Tree{Root: tree.Root, Edges: edges}
}
