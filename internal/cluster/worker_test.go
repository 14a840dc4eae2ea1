package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/relation"
	"repro/internal/rpc"
	"repro/internal/semiring"
	"repro/internal/shard"
)

// TestWorkerRejectsStaleSession replays the straggler race of an
// abandoned solve deterministically: a worker sets up session 1, then
// session 2, and only then receives session 1's Reset, Query, Load, and
// Store. Every stale frame must be rejected, and session 2 must answer
// exactly as on a worker that never saw session 1.
func TestWorkerRejectsStaleSession(t *testing.T) {
	ctx := context.Background()
	sc := semiring.Count{}
	_, cod, err := Profile[int64]("count")
	if err != nil {
		t.Fatal(err)
	}
	shardOf := func(vals ...int64) []byte {
		b := relation.NewBuilder[int64](sc, []int{0, 1})
		for i, v := range vals {
			b.Add([]int{i, i % 2}, v)
		}
		return shard.Encode(b.Build(), cod)
	}
	send := func(w *Worker, kind uint8, epoch uint64, a, b int32, body []byte) *rpc.Frame {
		return w.Handle(ctx, &rpc.Frame{Kind: kind, A: a, B: b, Body: withEpoch(epoch, body)})
	}
	setup := func(w *Worker, epoch uint64, factor []byte) {
		t.Helper()
		for _, f := range []*rpc.Frame{
			send(w, kindReset, epoch, 0, 0, nil),
			send(w, kindQuery, epoch, 0, 0, encodeQuery("count", 4)),
			send(w, kindLoad, epoch, 0, 0, factor),
		} {
			if f.Kind != kindOK {
				t.Fatalf("session %d setup: kind %d %q", epoch, f.Kind, f.Body)
			}
		}
	}
	compute := func(w *Worker, epoch uint64) []byte {
		t.Helper()
		resp := send(w, kindCompute, epoch, 0, 0, encodeVars([]int{1}))
		if resp.Kind != kindRel {
			t.Fatalf("session %d compute: kind %d %q", epoch, resp.Kind, resp.Body)
		}
		return resp.Body
	}

	ref := NewWorker()
	setup(ref, 2, shardOf(1, 2, 3))
	want := compute(ref, 2)

	w := NewWorker()
	setup(w, 1, shardOf(7, 7))
	setup(w, 2, shardOf(1, 2, 3))
	for _, stale := range []*rpc.Frame{
		send(w, kindReset, 1, 0, 0, nil),
		send(w, kindQuery, 1, 0, 0, encodeQuery("bool", 4)),
		send(w, kindLoad, 1, 0, 0, shardOf(9)),
		send(w, kindStore, 1, 0, 0, shardOf(9)),
	} {
		if stale.Kind != kindErr {
			t.Fatalf("stale session-1 frame accepted: kind %d", stale.Kind)
		}
	}
	if got := compute(w, 2); !bytes.Equal(got, want) {
		t.Fatal("stale session-1 frames changed session 2's answer")
	}
	// A frame for a session that was never set up is rejected too.
	if resp := send(w, kindLoad, 3, 0, 0, shardOf(1)); resp.Kind != kindErr {
		t.Fatalf("load for an unknown session accepted: kind %d", resp.Kind)
	}
}

// TestClientsTakeTurnsOnOneFleet: two coordinators alternating solves
// on the same workers both keep being served — each new solve's epoch
// outranks every earlier session, whichever Client opened it.
func TestClientsTakeTurnsOnOneFleet(t *testing.T) {
	sc := semiring.Count{}
	q, g := templateQuery(t, sc, "star6", 31, func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for w := range addrs {
		srv, err := rpc.Serve("127.0.0.1:0", NewWorker().Handle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[w] = srv.Addr()
	}
	solvers := make([]*Solver[int64], 2)
	for i := range solvers {
		tr, err := NewTCPTransport(addrs, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(tr, Options{})
		t.Cleanup(func() { c.Close() })
		if solvers[i], err = NewSolver[int64](c, "count"); err != nil {
			t.Fatal(err)
		}
	}
	for turn := 0; turn < 6; turn++ {
		ans, err := solvers[turn%2].SolveGHD(context.Background(), q, g)
		if err != nil {
			t.Fatalf("turn %d: %v", turn, err)
		}
		if !relation.Equal(sc, ans, want) {
			t.Fatalf("turn %d: answer differs from local", turn)
		}
	}
}
