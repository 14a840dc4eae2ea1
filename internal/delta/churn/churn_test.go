package churn_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/delta/churn"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// driver runs one churn sequence for a concrete semiring; the table
// below instantiates the generic harness per value type.
type driver struct {
	name     string
	strategy delta.Strategy
	run      func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result
}

func drive[T any](t *testing.T, s semiring.Semiring[T], tpl workload.Template, mix churn.Mix, cfg churn.Config, val func(*rand.Rand) T) churn.Result {
	t.Helper()
	res, err := churn.Run(context.Background(), s, tpl, mix, cfg, val)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// drivers covers every maintained strategy: ring deltas (Count,
// SumProduct, F2), support counting (Bool), and the recompute fallback
// (MinPlus). Annotations are integer-valued so even the float rings
// compare bit-identically against the from-scratch rebuild.
func drivers() []driver {
	return []driver{
		{"bool", delta.StrategySupport, func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result {
			return drive(t, semiring.Bool{}, tpl, mix, cfg, func(*rand.Rand) bool { return true })
		}},
		{"count", delta.StrategyRing, func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result {
			return drive(t, semiring.Count{}, tpl, mix, cfg, func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
		}},
		{"f2", delta.StrategyRing, func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result {
			return drive(t, semiring.F2{}, tpl, mix, cfg, func(*rand.Rand) byte { return 1 })
		}},
		{"sumproduct", delta.StrategyRing, func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result {
			return drive(t, semiring.SumProduct{}, tpl, mix, cfg, func(r *rand.Rand) float64 { return float64(1 + r.Intn(3)) })
		}},
		{"minplus", delta.StrategyRecompute, func(t *testing.T, tpl workload.Template, mix churn.Mix, cfg churn.Config) churn.Result {
			return drive(t, semiring.MinPlus{}, tpl, mix, cfg, func(r *rand.Rand) float64 { return float64(r.Intn(6)) })
		}},
	}
}

// TestChurnDifferential is the headline acceptance matrix: ≥1000-op
// uniform churn per template × semiring, swept at 1/2/8 workers (each
// run gets a private pool, so subtests parallelize safely), checking
// the materialized answer against a from-scratch solve after every op.
func TestChurnDifferential(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, tpl := range workload.Templates() {
			for _, d := range drivers() {
				workers, tpl, d := workers, tpl, d
				t.Run(tpl.Name+"/"+d.name+"/w"+itoa(workers), func(t *testing.T) {
					t.Parallel()
					cfg := churn.Config{
						Seed:    int64(1000*workers + len(tpl.Name)),
						Ops:     1000,
						Workers: workers,
					}
					mix, _ := churn.MixByName("uniform")
					res := d.run(t, tpl, mix, cfg)
					if res.Ops != cfg.Ops {
						t.Fatalf("ran %d of %d ops", res.Ops, cfg.Ops)
					}
					if res.Strategy != d.strategy {
						t.Fatalf("strategy = %v, want %v", res.Strategy, d.strategy)
					}
					if res.Inserts == 0 || res.Deletes == 0 {
						t.Fatalf("degenerate mix: %d inserts, %d deletes", res.Inserts, res.Deletes)
					}
				})
			}
		}
	}
}

// wide4 is a test-local arity-4 template: consecutive edges share three
// variables, so every join, group-by and cached delta index keys on a
// word wider than one packed uint64, and MinPlus's recompute ledger
// keys on whole arity-4 rows. It stays out of workload.Templates, whose
// list the load generator and the benchmark read.
var wide4 = workload.Template{Name: "wide4", Spec: "A,B,C,D;B,C,D,E;C,D,E,F;D,E,F,G", Free: []string{"A"}}

// TestChurnWideKeys is the differential matrix on wide4 × every
// semiring at 1/2/8 workers. A domain of 3 keeps the 3-column keys
// dense enough (27 values) that joins match and deletes drain groups.
func TestChurnWideKeys(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, d := range drivers() {
			workers, d := workers, d
			t.Run(d.name+"/w"+itoa(workers), func(t *testing.T) {
				t.Parallel()
				cfg := churn.Config{Seed: int64(4000 + workers), Ops: 1000, Dom: 3, Workers: workers}
				mix, _ := churn.MixByName("uniform")
				res := d.run(t, wide4, mix, cfg)
				if res.Ops != cfg.Ops || res.Strategy != d.strategy {
					t.Fatalf("ran %d of %d ops under %v, want %v", res.Ops, cfg.Ops, res.Strategy, d.strategy)
				}
				if res.Inserts == 0 || res.Deletes == 0 {
					t.Fatalf("degenerate mix: %d inserts, %d deletes", res.Inserts, res.Deletes)
				}
			})
		}
	}
}

// TestChurnAdversarialMixes drives the named adversarial distributions
// — drain-to-empty, duplicate reinsertion, single-leaf hammering, and
// root-bag churn — across representative strategies and both an
// acyclic and a cyclic (fat-root) template.
func TestChurnAdversarialMixes(t *testing.T) {
	tpls := []string{"path7", "tri-pendant"}
	reps := []string{"count", "minplus", "bool"}
	for _, mix := range churn.Mixes() {
		if mix.Name == "uniform" {
			continue
		}
		for _, tplName := range tpls {
			for _, d := range drivers() {
				if !contains(reps, d.name) {
					continue
				}
				mix, d := mix, d
				tpl, ok := workload.TemplateByName(tplName)
				if !ok {
					t.Fatalf("unknown template %s", tplName)
				}
				t.Run(mix.Name+"/"+tpl.Name+"/"+d.name, func(t *testing.T) {
					t.Parallel()
					cfg := churn.Config{Seed: int64(len(mix.Name)*31 + len(tpl.Name)), Ops: 400}
					res := d.run(t, tpl, mix, cfg)
					if mix.Name == "delete-everything" && res.Drained == 0 {
						t.Fatal("delete-everything mix never drained an edge")
					}
				})
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
