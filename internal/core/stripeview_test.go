package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/nodeengine"
)

// nodeRPCs sums the chunk reads and version probes the cluster's nodes
// were asked for (refused and cancelled ones included — what counts is
// what the coordinator issued).
func (ts *testSystem) nodeRPCs() (readChunk, readVersions int64) {
	for j := 0; j < ts.code.N(); j++ {
		m := ts.shardNode(j).Metrics()
		readChunk += m.Reads.Load()
		readVersions += m.VersionQueries.Load()
	}
	return readChunk, readVersions
}

// TestGatherRPCsPerOperation pins what each operation outside the
// healthy path costs in node RPCs on the Figure-3 (15,8) fixture: every
// one of them takes a single gather of the stripe — per round, for the
// stripe repair — and judges that snapshot.
func TestGatherRPCsPerOperation(t *testing.T) {
	const n, k = 15, 8
	ctx := context.Background()
	staleParities := func(t *testing.T, ts *testSystem) {
		ts.cluster.Crash(13)
		ts.cluster.Crash(14)
		if err := ts.sys.WriteBlock(ctx, ts.stripe(1), 2, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
			t.Fatal(err)
		}
		ts.cluster.Restart(13)
		ts.cluster.Restart(14)
	}
	cases := []struct {
		name    string
		prepare func(*testing.T, *testSystem)
		op      func(*testing.T, *testSystem)
		// Inclusive bounds on ReadChunk and ReadVersions RPCs. When
		// downChunkMax is set, shard down's ReadChunk RPCs are bounded
		// by it alone and the chunk bounds count the other shards.
		chunkMin, chunkMax, probeMin, probeMax int64
		down                                   int
		downChunkMax                           int64
	}{
		{
			name: "scrub healthy",
			op: func(t *testing.T, ts *testSystem) {
				if rep, err := ts.sys.ScrubStripe(ctx, ts.stripe(1)); err != nil || !rep.Healthy {
					t.Fatalf("scrub: %v %v", rep, err)
				}
			},
			chunkMin: n, chunkMax: n,
		},
		{
			name: "scrub unreadable",
			prepare: func(t *testing.T, ts *testSystem) {
				for j := 0; j < 9; j++ {
					ts.cluster.Crash(j)
				}
			},
			op: func(t *testing.T, ts *testSystem) {
				rep, err := ts.sys.ScrubStripe(ctx, ts.stripe(1))
				if err != nil || rep.FreshVector != nil || len(rep.UnreachableShards) != 9 {
					t.Fatalf("scrub: %v %v", rep, err)
				}
			},
			chunkMin: n, chunkMax: n,
		},
		{
			name:    "repair stripe, two stale parities",
			prepare: staleParities,
			op: func(t *testing.T, ts *testSystem) {
				// One round: every shard is rebuildable from the first
				// snapshot, fresh ones reinstalled identically.
				repaired, ahead, err := ts.sys.RepairStripe(ctx, ts.stripe(1))
				if err != nil || repaired != n || len(ahead) != 0 {
					t.Fatalf("RepairStripe = %d %v %v", repaired, ahead, err)
				}
			},
			chunkMin: n, chunkMax: n,
		},
		{
			name:    "repair shard",
			prepare: staleParities,
			op: func(t *testing.T, ts *testSystem) {
				if err := ts.sys.RepairShard(ctx, ts.stripe(1), 13); err != nil {
					t.Fatal(err)
				}
			},
			chunkMin: n - 1, chunkMax: n - 1,
		},
		{
			name:    "degraded read, data node down",
			prepare: func(t *testing.T, ts *testSystem) { ts.cluster.Crash(2) },
			op: func(t *testing.T, ts *testSystem) {
				if _, _, err := ts.sys.ReadBlock(ctx, ts.stripe(1), 2); err != nil {
					t.Fatal(err)
				}
				if m := ts.sys.Metrics(); m.DecodeReads != 1 {
					t.Fatalf("metrics = %+v, want one decode read", m)
				}
			},
			// One decode attempt: at least the k shards it decodes from,
			// at most every live shard — where first-k stops in between
			// depends on scheduling. The down data node is asked at most
			// twice: by the decode gather, and by an optimistic direct
			// read when early termination cancelled its version probe.
			// The version check probes at most the n−k+1 trapezoid
			// positions.
			chunkMin: k, chunkMax: n - 1, probeMin: 1, probeMax: n - k + 1,
			down: 2, downChunkMax: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := fig3System(t, Options{})
			ts.seed(t, 1, 64)
			if tc.prepare != nil {
				tc.prepare(t, ts)
			}
			downReads := ts.shardNode(tc.down).Metrics().Reads.Load
			chunk0, probe0 := ts.nodeRPCs()
			down0 := downReads()
			tc.op(t, ts)
			chunk1, probe1 := ts.nodeRPCs()
			got := chunk1 - chunk0
			if tc.downChunkMax > 0 {
				down := downReads() - down0
				if down > tc.downChunkMax {
					t.Errorf("ReadChunk RPCs at down shard %d = %d, want at most %d", tc.down, down, tc.downChunkMax)
				}
				got -= down
			}
			if got < tc.chunkMin || got > tc.chunkMax {
				t.Errorf("ReadChunk RPCs = %d, want %d..%d", got, tc.chunkMin, tc.chunkMax)
			}
			if got := probe1 - probe0; got < tc.probeMin || got > tc.probeMax {
				t.Errorf("ReadVersions RPCs = %d, want %d..%d", got, tc.probeMin, tc.probeMax)
			}
		})
	}
}

// viewOf builds the snapshot a gather of a (k data + parity) stripe
// would return: data[t] is data shard t's version, parity[p] parity
// shard k+p's vector; a zero version or nil vector is an unreachable
// shard. Every record entry carries its slot's version and sum 7.
func viewOf(data []uint64, parity [][]uint64) *stripeView {
	rec := func(versions []uint64) []client.BlockSum {
		sums := make([]client.BlockSum, len(versions))
		for i, v := range versions {
			sums[i] = client.BlockSum{Version: v, Sum: 7}
		}
		return sums
	}
	v := &stripeView{k: len(data)}
	for _, version := range data {
		a := shardAnswer{err: client.ErrNodeDown}
		if version != 0 {
			a = shardAnswer{versions: []uint64{version}, sums: rec([]uint64{version}), data: []byte{1}}
		}
		v.shards = append(v.shards, a)
	}
	for _, vector := range parity {
		a := shardAnswer{err: client.ErrNodeDown}
		if vector != nil {
			a = shardAnswer{versions: vector, sums: rec(vector), data: []byte{1}}
		}
		v.shards = append(v.shards, a)
	}
	return v
}

// TestStripeViewJudgement exercises the three pure functions every
// degraded path shares on hand-built snapshots of a (6,3) stripe.
func TestStripeViewJudgement(t *testing.T) {
	members := func(sets []consistentSet) [][]int {
		var out [][]int
		for _, set := range sets {
			out = append(out, set.members)
		}
		return out
	}
	// Block 1 was written to version 2; parity 5 missed the update.
	v := viewOf([]uint64{1, 2, 1}, [][]uint64{{1, 2, 1}, {1, 2, 1}, {1, 1, 1}})
	if got, want := members(v.decodableSets(-1, 0, -1)), [][]int{{0, 2, 5}, {0, 1, 2, 3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sets = %v, want %v", got, want)
	}
	if set := freshest(v.decodableSets(-1, 0, -1)); set == nil || !reflect.DeepEqual(set.vector, []uint64{1, 2, 1}) {
		t.Errorf("freshest = %+v, want vector [1 2 1]", set)
	}
	// Restricted to block 1 at version 2, and never counting shard 1.
	if got, want := members(v.decodableSets(1, 2, 1)), [][]int{{0, 2, 3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sets for block 1 @ 2 = %v, want %v", got, want)
	}
	if got := v.decodableSets(1, 3, 1); got != nil {
		t.Errorf("sets for block 1 @ 3 = %v, want none", got)
	}
	if got, want := v.classify([]uint64{1, 2, 1}), []shardState{0, 0, 0, 0, 0, shardStale}; !reflect.DeepEqual(got, want) {
		t.Errorf("classify = %v, want %v", got, want)
	}
	if got, want := v.classify([]uint64{1, 1, 1}), []shardState{0, shardAhead, 0, shardAhead, shardAhead, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("classify against the stale vector = %v, want %v", got, want)
	}

	// No parity survives: the data shards' own vector is the candidate,
	// unless one of them is the shard left out.
	v = viewOf([]uint64{3, 1, 2}, [][]uint64{nil, nil, nil})
	if sets := v.decodableSets(-1, 0, 4); len(sets) != 1 || !reflect.DeepEqual(sets[0].vector, []uint64{3, 1, 2}) {
		t.Errorf("data-only sets = %+v, want the one vector [3 1 2]", sets)
	}
	if sets := v.decodableSets(-1, 0, 0); sets != nil {
		t.Errorf("data-only sets without shard 0 = %+v, want none", sets)
	}
	v.shards[3].err = client.ErrCorrupt
	if got, want := v.classify(nil), []shardState{0, 0, 0, shardCorrupt, shardUnreachable, shardUnreachable}; !reflect.DeepEqual(got, want) {
		t.Errorf("reachability = %v, want %v", got, want)
	}

	// Opinions: parity 3 disagrees with parity 4 and data shard 0's own
	// record about block 0 — a 2:1 plurality, a tie once the data shard
	// is the one being judged, and no opinion at another version.
	v = viewOf([]uint64{1, 1, 1}, [][]uint64{{1, 1, 1}, {1, 1, 1}, nil})
	v.shards[3].sums[0].Sum = 9
	if got := v.opinion(0, 1, -1); got != (sumOpinion{sum: 7, known: true}) {
		t.Errorf("opinion = %+v, want sum 7", got)
	}
	if got := v.opinion(0, 1, 0); got.known {
		t.Errorf("opinion without the data shard = %+v, want a tie", got)
	}
	if got := v.opinion(0, 2, -1); got.known {
		t.Errorf("opinion at version 2 = %+v, want none", got)
	}
}

// TestGatherSkipsAndReports checks the gather's own contract: the
// excluded shard is not asked, a probe asks parity shards only and
// carries no bytes, and an ErrCorrupt answer is reported exactly once.
func TestGatherSkipsAndReports(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	ctx := context.Background()
	reports := 0
	ts.sys.SetCorruptionHandler(func(int) { reports++ })
	if err := ts.shardNode(9).Engine().CorruptChunk(ctx, chunkID(1, 9), nodeengine.CorruptBitFlip); err != nil {
		t.Fatal(err)
	}
	view := ts.sys.gather(ctx, ts.stripe(1), 4, gatherOpt{})
	for shard, a := range view.shards {
		switch {
		case shard == 4 && !errors.Is(a.err, errNotAsked):
			t.Errorf("excluded shard 4: err = %v", a.err)
		case shard == 9 && !errors.Is(a.err, client.ErrCorrupt):
			t.Errorf("corrupt shard 9: err = %v", a.err)
		case shard != 4 && shard != 9 && (a.err != nil || len(a.data) != 64):
			t.Errorf("shard %d: %d bytes, err = %v", shard, len(a.data), a.err)
		}
	}
	if reports != 1 {
		t.Errorf("corruption reports = %d, want 1", reports)
	}
	chunk0, probe0 := ts.nodeRPCs()
	view = ts.sys.gather(ctx, ts.stripe(1), -1, gatherOpt{read: make([]bool, 8)})
	chunk1, probe1 := ts.nodeRPCs()
	if chunk1 != chunk0 || probe1-probe0 != 7 {
		t.Errorf("probe issued %d ReadChunk and %d ReadVersions, want 0 and 7", chunk1-chunk0, probe1-probe0)
	}
	for shard, a := range view.shards {
		if asked := shard >= 8; asked == errors.Is(a.err, errNotAsked) || a.data != nil {
			t.Errorf("probe shard %d: err = %v, %d bytes", shard, a.err, len(a.data))
		}
	}
}
