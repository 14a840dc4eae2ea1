package main

// The -parallel dimension: speedup-vs-workers curves for the exec-layer
// GHD engine, written to BENCH_parallel.json. Two workloads:
//
//   - multi-subtree: 16 independent arm chains under one root — the
//     embarrassingly parallel shape where inter-node (Forest)
//     parallelism alone already approaches the work bound.
//   - single-heavy-node: one arm chain, so the GHD critical path equals
//     the total work and inter-node parallelism is worthless (atomic
//     sim speedup pins at 1.0×). All speedup must come from intra-node
//     partitioning — the range-split merge joins, partitioned hash
//     joins, and parallel Builder sorts of internal/relation.
//
// Three speedup notions are reported per worker count:
//
//   - sim_speedup: total work / exec.Makespan over the measured per-node
//     costs — PR 2's atomic-node accounting, conservative in that it
//     treats each node task as indivisible.
//   - sim_speedup_shaped: total work / exec.MakespanShaped over the
//     shapes measured by a sequential shaped SolveGHD run, which
//     additionally records how much of each node's cost was spent in
//     kernels that partition across workers (exec.Divisible regions) and
//     replays that portion as parallel chunks. Like internal/netsim's
//     round ledger, both are simulated accounting: deterministic and
//     independent of how many physical cores the measuring host has.
//   - wall_ns: measured wall clock on this host at that worker setting
//     (exec.SetWorkers). On a single-core CI container these stay flat
//     (or degrade slightly); on real multi-core hardware they track the
//     simulated curves up to memory-bandwidth limits.
//
// Every worker count's answer is checked bit-identical to the
// sequential reference before any number is reported.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

type workerPoint struct {
	Workers             int     `json:"workers"`
	WallNS              int64   `json:"wall_ns"`
	SimMakespanNS       int64   `json:"sim_makespan_ns"`
	SimSpeedup          float64 `json:"sim_speedup"`
	SimMakespanShapedNS int64   `json:"sim_makespan_shaped_ns"`
	SimSpeedupShaped    float64 `json:"sim_speedup_shaped"`
	BitIdentical        bool    `json:"bit_identical"`
}

type parallelBench struct {
	Name           string        `json:"name"`
	N              int           `json:"n"`
	Arms           int           `json:"arms"`
	Nodes          int           `json:"nodes"`
	TotalWorkNS    int64         `json:"total_work_ns"`
	DivisibleNS    int64         `json:"divisible_ns"`
	CriticalPathNS int64         `json:"critical_path_ns"`
	Workers        []workerPoint `json:"workers"`
	Speedup8W      float64       `json:"speedup_8w"`
	Speedup8WSh    float64       `json:"speedup_8w_shaped"`
}

type parallelReport struct {
	HostCPUs    int             `json:"host_cpus"`
	GoMaxProcs  int             `json:"gomaxprocs"`
	Methodology string          `json:"methodology"`
	Benchmarks  []parallelBench `json:"benchmarks"`
}

// multiSubtreeQuery builds the benchmark workload: `arms` independent
// chains x0—a_i—b_i—c_i hanging off a shared root variable, each factor
// holding n tuples arranged so every per-arm join stays at n tuples.
// The GYO-GHD is a root with `arms` independent depth-3 subtrees — the
// embarrassingly parallel shape of the Theorem G.3 pass.
func multiSubtreeQuery(n, arms int) (*faq.Query[int64], *ghd.GHD, error) {
	const rootDom = 64
	b := hypergraph.NewBuilder()
	b.Edge("x0") // a small dedicated root factor keeps the root task cheap
	for i := 0; i < arms; i++ {
		a, bb, c := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)
		b.Edge("x0", a)
		b.Edge(a, bb)
		b.Edge(bb, c)
	}
	h := b.Build()
	s := semiring.Count{}
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		if e == 0 { // {x0}
			bb := relation.NewBuilderHint[int64](s, h.Edge(0), rootDom)
			for x := 0; x < rootDom; x++ {
				bb.Add([]int{x}, 1)
			}
			factors[0] = bb.Build()
			continue
		}
		bb := relation.NewBuilderHint[int64](s, h.Edge(e), n)
		switch (e - 1) % 3 {
		case 0: // {x0, a_i}: a_i covers [0, n), x0 folds into [0, rootDom)
			for x := 0; x < n; x++ {
				bb.Add([]int{x % rootDom, x}, 1)
			}
		case 1: // {a_i, b_i}: a bijection on [0, n) keeps the join at n tuples
			for x := 0; x < n; x++ {
				bb.Add([]int{x, (x*7 + 13) % n}, 1)
			}
		case 2: // {b_i, c_i}
			for x := 0; x < n; x++ {
				bb.Add([]int{x, (x*5 + 1) % n}, 1)
			}
		}
		factors[e] = bb.Build()
	}
	q := &faq.Query[int64]{S: s, H: h, Factors: factors, Free: nil, DomSize: n}
	// Build the decomposition explicitly as a star of arm chains —
	// ghd.Minimize's GYO pass produces a caterpillar (each top node
	// parented to the previous arm's top), which strings all root-level
	// joins onto the critical path. Node 0 is the {x0} root; arm i's top
	// ({x0, a_i}) is node 1+3i, with its middle and leaf chained below.
	nodes := h.NumEdges()
	g := &ghd.GHD{
		H:        h,
		Bags:     make([][]int, nodes),
		Labels:   make([][]int, nodes),
		Parent:   make([]int, nodes),
		Root:     0,
		NodeOf:   make([]int, nodes),
		CoreRoot: -1,
	}
	for v := 0; v < nodes; v++ {
		g.Bags[v] = h.Edge(v)
		g.Labels[v] = []int{v}
		g.NodeOf[v] = v
		switch {
		case v == 0:
			g.Parent[v] = -1
		case v%3 == 1:
			g.Parent[v] = 0 // arm tops are siblings under the root
		default:
			g.Parent[v] = v - 1 // chain within the arm
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return q, g, nil
}

func identicalCount(a, b *relation.Relation[int64]) bool {
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Value(i) != b.Value(i) {
			return false
		}
	}
	return relation.Equal(semiring.Count{}, a, b)
}

func runParallelBench(name string, n, arms, reps int, workerCounts []int) (parallelBench, error) {
	bench := parallelBench{Name: name, N: n, Arms: arms}
	q, g, err := multiSubtreeQuery(n, arms)
	if err != nil {
		return bench, err
	}
	bench.Nodes = g.NumNodes()

	// Sequential reference: answer + per-node shapes (minimum-total rep).
	// Shapes carry the atomic cost vector (Work) plus the divisible
	// portion each node spent in partitionable kernels.
	prev := exec.SetWorkers(1)
	defer exec.SetWorkers(prev)
	var ref *relation.Relation[int64]
	var shapes []exec.TaskShape
	var costs []int64
	for rep := 0; rep < reps; rep++ {
		ans, m, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{Shaped: true})
		if err != nil {
			return bench, err
		}
		sh := m.Shapes
		c := make([]int64, len(sh))
		for v := range sh {
			c[v] = sh[v].Work
		}
		if costs == nil || exec.TotalCost(c) < exec.TotalCost(costs) {
			costs, shapes = c, sh
		}
		ref = ans
	}
	bench.TotalWorkNS = exec.TotalCost(costs)
	for _, sh := range shapes {
		bench.DivisibleNS += sh.Div
	}
	bench.CriticalPathNS = exec.Makespan(g.Parent, costs, g.NumNodes())

	for _, w := range workerCounts {
		exec.SetWorkers(w)
		var best int64
		identical := true
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			ans, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
			el := time.Since(t0).Nanoseconds()
			if err != nil {
				return bench, err
			}
			if best == 0 || el < best {
				best = el
			}
			if !identicalCount(ans, ref) {
				identical = false
			}
		}
		if !identical {
			// Fail before anything is written: a BENCH_parallel.json must
			// never be regenerated from a run that broke bit-identity.
			return bench, fmt.Errorf("%s n=%d workers=%d: answer not bit-identical to sequential", name, n, w)
		}
		mk := exec.Makespan(g.Parent, costs, w)
		mkSh := exec.MakespanShaped(g.Parent, shapes, w)
		pt := workerPoint{
			Workers:             w,
			WallNS:              best,
			SimMakespanNS:       mk,
			SimSpeedup:          float64(bench.TotalWorkNS) / float64(mk),
			SimMakespanShapedNS: mkSh,
			SimSpeedupShaped:    float64(bench.TotalWorkNS) / float64(mkSh),
			BitIdentical:        identical,
		}
		bench.Workers = append(bench.Workers, pt)
		if w == 8 {
			bench.Speedup8W = pt.SimSpeedup
			bench.Speedup8WSh = pt.SimSpeedupShaped
		}
	}
	return bench, nil
}

// runParallel executes the scaling benchmarks and writes the JSON
// artifact.
func runParallel(outPath string) error {
	rep := parallelReport{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Methodology: "sim_speedup = total_work_ns / exec.Makespan(per-node costs from a 1-worker " +
			"shaped SolveGHD run, replayed atomically at the given worker budget); " +
			"sim_speedup_shaped = total_work_ns / exec.MakespanShaped(same run's TaskShapes: " +
			"Work plus the Divisible portion spent in partitionable relation kernels, replayed " +
			"as parallel chunks + serial tail per node); wall_ns = fastest-of-reps wall clock at " +
			"exec.SetWorkers(workers) on this host. Answers at every worker count are verified " +
			"bit-identical to the sequential reference.",
	}
	for _, n := range []int{10000, 100000} {
		reps := 3
		b, err := runParallelBench("multi-subtree", n, 16, reps, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		// One arm: the GHD is a chain, critical path == total work, and
		// the atomic model cannot beat 1.0× — every gain in the shaped
		// column is intra-node partitioning.
		b, err = runParallelBench("single-heavy-node", n, 1, reps, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("parallel GHD engine scaling (host: %d CPU(s))\n", rep.HostCPUs)
	fmt.Printf("%-18s %-8s %-8s %-10s %-12s %-10s %-14s %-10s\n",
		"benchmark", "n", "workers", "wall_ms", "sim_atomic", "speedup", "sim_shaped", "speedup")
	for _, b := range rep.Benchmarks {
		for _, p := range b.Workers {
			fmt.Printf("%-18s %-8d %-8d %-10.2f %-12.2f %-10.2f %-14.2f %-10.2f\n",
				b.Name, b.N, p.Workers, float64(p.WallNS)/1e6,
				float64(p.SimMakespanNS)/1e6, p.SimSpeedup,
				float64(p.SimMakespanShapedNS)/1e6, p.SimSpeedupShaped)
		}
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
