// Package cluster implements real distributed execution of the GHD
// bottom-up pass: a coordinator that hash-partitions each factor across
// shard workers, drives every star reduction as a scatter/gather of
// routed message slices, and merges the root answer.
//
// # Execution scheme
//
// Planning starts from faq.MessagePlan, the same derivation the local
// faq.SolveGHD pass runs on (postorder, child join order, and each
// node's keep set χ(v) ∩ (free ∪ χ(parent))). Each GHD node v carrying
// a factor gets a static partition key K_v:
//
//   - a leaf partitions its factor on the columns its message keeps;
//   - an internal node partitions on the intersection of its children's
//     message schemas — a subset of every child message's columns, so
//     routing child messages by the same key co-locates every joining
//     pair of rows;
//   - an empty key (including any node with a factorless child) sends
//     all rows to worker 0, the correct serialized fallback.
//
// Factorless nodes (the fat core root of Construction 2.8) run the
// shared node task (faq.NodeMessage) at the coordinator on the
// already-gathered child messages, exactly as the netsim protocols run
// their core phase at one player.
//
// Per star, the coordinator scatters each merged child message as
// routed slices (StoreMsg), asks every worker to join its shard with
// its slices in child order and aggregate (ComputeStar), then gathers
// and merges the partials in worker order. Partitioning preserves the
// relations' sorted order and duplicate groups merge through the same
// ⊕ as the local pass, so answers are bit-identical to faq.SolveGHD
// for exact semirings at any worker count — the same contract the exec
// layer holds for threads, extended to processes.
//
// # Session epochs
//
// Every solve is one worker session, stamped with an epoch: the
// coordinator's wall clock in nanoseconds, bumped past its previous
// epoch, so epochs rise across solves, coordinator restarts, and
// coordinators taking turns on one fleet. Each session frame carries it
// as an 8-byte body prefix. A failed fan-out poisons its
// connections, but frames already written are still served afterwards;
// the worker rejects any frame older than its current session, so a
// straggling Reset, Load, or Store from an abandoned solve can never
// clear or overwrite the next solve's state.
//
// The Transport seam carries the protocol either over real TCP
// (internal/rpc) or over the netsim ledger in-process (SimTransport),
// so the differential harness runs identical frames both ways.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/semiring"
	"repro/internal/shard"
)

// Frame kinds of the cluster protocol (rpc.Frame.Kind). Every kind but
// kindPing is a session frame whose body starts with the session epoch
// (withEpoch); the bodies below follow that prefix.
const (
	kindPing    uint8 = iota + 1 // liveness probe → kindOK
	kindReset                    // drop all session state → kindOK
	kindQuery                    // begin a session: semiring name + domain → kindOK
	kindLoad                     // A = GHD node; body = factor shard → kindOK
	kindStore                    // A = node, B = child index; body = routed message slice → kindOK
	kindCompute                  // A = node, B = child count; body = keep vars → kindRel
	kindOK                       // success, empty reply
	kindRel                      // success, body = encoded relation
	kindErr     uint8 = 0x7f     // failure, body = error text
)

// Profile resolves a registry semiring name to the typed semiring and
// wire codec both transport ends use. The instantiated type parameter
// must match the semiring's value type.
func Profile[T any](name string) (semiring.Semiring[T], shard.Codec[T], error) {
	var s, c any
	switch name {
	case "bool":
		s, c = semiring.Bool{}, shard.Codec[bool]{
			Enc: func(v bool) uint64 {
				if v {
					return 1
				}
				return 0
			},
			Dec: func(k uint64) bool { return k != 0 },
		}
	case "count":
		s, c = semiring.Count{}, shard.Codec[int64]{
			Enc: func(v int64) uint64 { return uint64(v) },
			Dec: func(k uint64) int64 { return int64(k) },
		}
	case "sumproduct":
		s, c = semiring.SumProduct{}, floatCodec()
	case "minplus":
		s, c = semiring.MinPlus{}, floatCodec()
	case "maxtimes":
		s, c = semiring.MaxTimes{}, floatCodec()
	case "f2":
		s, c = semiring.F2{}, shard.Codec[byte]{
			Enc: func(v byte) uint64 { return uint64(v & 1) },
			Dec: func(k uint64) byte { return byte(k & 1) },
		}
	default:
		return nil, shard.Codec[T]{}, fmt.Errorf("cluster: unknown semiring %q", name)
	}
	sr, ok := s.(semiring.Semiring[T])
	cod, ok2 := c.(shard.Codec[T])
	if !ok || !ok2 {
		var zero T
		return nil, shard.Codec[T]{}, fmt.Errorf("cluster: semiring %q does not carry values of type %T", name, zero)
	}
	return sr, cod, nil
}

func floatCodec() shard.Codec[float64] {
	return shard.Codec[float64]{Enc: math.Float64bits, Dec: math.Float64frombits}
}

// withEpoch prefixes a session frame body with its epoch:
// [u64 epoch][body].
func withEpoch(epoch uint64, body []byte) []byte {
	buf := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint64(buf, epoch)
	return append(buf, body...)
}

// splitEpoch is withEpoch's inverse.
func splitEpoch(body []byte) (uint64, []byte, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("cluster: session frame without an epoch (%d bytes)", len(body))
	}
	return binary.BigEndian.Uint64(body), body[8:], nil
}

// encodeQuery serializes a session header: [u32 domSize][name bytes].
func encodeQuery(name string, domSize int) []byte {
	buf := make([]byte, 0, 4+len(name))
	buf = binary.BigEndian.AppendUint32(buf, uint32(domSize))
	return append(buf, name...)
}

func decodeQuery(body []byte) (name string, domSize int, err error) {
	if len(body) < 4 {
		return "", 0, fmt.Errorf("cluster: truncated query header (%d bytes)", len(body))
	}
	return string(body[4:]), int(binary.BigEndian.Uint32(body)), nil
}

// encodeVars serializes a sorted variable list: [u32 k][k × u32 ids].
func encodeVars(vs []int) []byte {
	buf := make([]byte, 0, 4+4*len(vs))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(v)))
	}
	return buf
}

func decodeVars(body []byte) ([]int, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("cluster: truncated variable list (%d bytes)", len(body))
	}
	k := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	if k < 0 || len(body) != 4*k {
		return nil, fmt.Errorf("cluster: variable list is %d bytes, want %d ids", len(body), k)
	}
	vs := make([]int, k)
	for i := range vs {
		vs[i] = int(int32(binary.BigEndian.Uint32(body[4*i:])))
	}
	return vs, nil
}
