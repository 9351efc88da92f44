package core

import (
	"context"
	"errors"
	"slices"
	"sort"

	"trapquorum/client"
	"trapquorum/internal/erasure"
)

// This file holds the one rule everything outside the healthy path
// rests on — Case 2 of Algorithm 2, "k mutually consistent shards" —
// and the one gather that feeds it. The stripe read, the degraded
// read, the verified decode, shard and stripe repair and the scrubber
// all take a stripeView from gather; the degraded paths judge it with
// the same three pure functions: decodableSets, opinion and classify.
//
// Consistency is judged on full version vectors, the information the
// paper's V matrix carries: two parity shards agree iff their vectors
// are identical; a data shard t agrees with a vector iff its own
// version equals the vector's component t. Matching only the target
// block's slot, as the paper words it, mixes shards that fold
// different versions of *other* blocks and decodes garbage
// (naive_decode_test.go demonstrates it).

// errNotAsked fills the slot of a shard the gather left out or had not
// heard from when it was cut short; it never escapes the package.
var errNotAsked = errors.New("core: shard not asked")

// shardAnswer is what one gather learned about one shard.
type shardAnswer struct {
	versions []uint64
	sums     []client.BlockSum
	data     []byte // nil when the gather probed versions only
	sum      uint64 // erasure.Sum64(data), taken by a probing gather
	err      error
}

// answered reports whether the slot holds an answer: a shard the
// gather has not heard from, or whose RPC it cancelled, gave none.
func (a *shardAnswer) answered() bool {
	return !errors.Is(a.err, errNotAsked) && !errors.Is(a.err, context.Canceled)
}

// stripeView is the snapshot one gather of a stripe took: one answer
// per shard. It is immutable once gather returns, so any number of
// goroutines may judge it concurrently.
type stripeView struct {
	k      int
	shards []shardAnswer
}

// gatherOpt selects what a gather asks and when it stops.
type gatherOpt struct {
	// read, when set, shapes the gather for a stripe read: the parity
	// shards are asked for their records only (ReadVersions), and a data
	// shard is read only when read marks it — a read that a gather ending
	// early abandons rather than cancels (abandonable).
	read []bool
	// hedge re-issues slow reads under the system's hedging policy.
	hedge bool
	// known holds what an earlier round of the same read gathered: a
	// shard whose slot carries data is answered from it, not asked.
	known []shardAnswer
	// stop, when set, is consulted after every answer; true cancels the
	// reads still in flight ("first-k") and freezes the view: answers
	// settling later are not recorded.
	stop func(*stripeView) bool
}

// gather asks every shard of the stripe except `without` (-1: none)
// in parallel and returns what they answered. Every ErrCorrupt answer
// is reported once, here, whatever the caller goes on to do with the
// view.
func (s *System) gather(ctx context.Context, st Stripe, without int, opt gatherOpt) *stripeView {
	k, n := s.code.K(), s.code.N()
	v := &stripeView{k: k, shards: make([]shardAnswer, n)}
	for shard := range v.shards {
		v.shards[shard].err = errNotAsked
	}
	hedge := s.hedge
	if !opt.hedge {
		hedge = nil
	}
	frozen := false
	Fanout(ctx, s.opLimit(), n, func(cctx context.Context, shard int) (shardAnswer, error) {
		stripeRead := opt.read != nil
		if shard == without || stripeRead && shard < k && !opt.read[shard] {
			return shardAnswer{}, errNotAsked
		}
		if opt.known != nil && opt.known[shard].data != nil {
			return opt.known[shard], nil
		}
		ask := func(hctx context.Context) (shardAnswer, error) {
			return hedged(hctx, hedge, func(hctx context.Context) (shardAnswer, error) {
				if stripeRead && shard >= k {
					versions, sums, err := s.node(st, shard).ReadVersions(hctx, chunkID(st.ID, shard))
					return shardAnswer{versions: versions, sums: sums}, err
				}
				chunk, err := s.node(st, shard).ReadChunk(hctx, chunkID(st.ID, shard))
				a := shardAnswer{versions: chunk.Versions, sums: chunk.Sums, data: chunk.Data}
				if stripeRead && err == nil {
					a.sum = erasure.Sum64(chunk.Data)
				}
				return a, err
			})
		}
		if stripeRead && shard < k {
			return abandonable(cctx, ask)
		}
		return ask(cctx)
	}, func(shard int, a shardAnswer, err error) bool {
		if isCorruptErr(err) {
			s.reportCorrupt(st, shard)
		}
		if frozen {
			return true
		}
		a.err = err
		v.shards[shard] = a
		frozen = opt.stop != nil && opt.stop(v)
		return !frozen
	})
	return v
}

// recordsPending reports whether some parity shard has not answered.
func (v *stripeView) recordsPending() bool {
	for shard := v.k; shard < len(v.shards); shard++ {
		if !v.shards[shard].answered() {
			return true
		}
	}
	return false
}

// consistentSet is one mutually consistent set of shards: the version
// vector they agree on and the members in shard order.
type consistentSet struct {
	vector  []uint64
	members []int
}

// decodableSets returns every mutually consistent set of at least k
// answered shards, never counting shard `without` (-1: none), in a
// deterministic order independent of arrival order. The candidate
// vectors are the distinct parity vectors plus the vector the k data
// shards spell out on their own (the only one left when no parity
// survives). With block >= 0 only vectors holding `version` for that
// block qualify.
func (v *stripeView) decodableSets(block int, version uint64, without int) []consistentSet {
	k := v.k
	usable := func(shard int) bool {
		slots := 1 // a data shard versions its own block only
		if shard >= k {
			slots = k
		}
		a := &v.shards[shard]
		return shard != without && a.err == nil && len(a.versions) == slots
	}
	answered, dataAnswered := 0, 0
	for shard := range v.shards {
		if usable(shard) {
			answered++
			if shard < k {
				dataAnswered++
			}
		}
	}
	if answered < k {
		return nil
	}
	vectors := make(map[string][]uint64)
	for shard := k; shard < len(v.shards); shard++ {
		if have := v.shards[shard].versions; usable(shard) && (block < 0 || have[block] == version) {
			vectors[vectorKey(have)] = have
		}
	}
	if dataAnswered == k {
		dataVector := make([]uint64, k)
		for shard := range dataVector {
			dataVector[shard] = v.shards[shard].versions[0]
		}
		if block < 0 || dataVector[block] == version {
			vectors[vectorKey(dataVector)] = dataVector
		}
	}
	keys := make([]string, 0, len(vectors))
	for key := range vectors {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var sets []consistentSet
	for _, key := range keys {
		set := consistentSet{vector: vectors[key], members: make([]int, 0, answered)}
		for shard := range v.shards {
			if !usable(shard) {
				continue
			}
			have := v.shards[shard].versions
			if shard < k && have[0] == set.vector[shard] || shard >= k && slices.Equal(have, set.vector) {
				set.members = append(set.members, shard)
			}
		}
		if len(set.members) >= k {
			sets = append(sets, set)
		}
	}
	return sets
}

// vectorKey renders a version vector as a map key.
func vectorKey(v []uint64) string {
	buf := make([]byte, 0, len(v)*8)
	for _, x := range v {
		for shift := 0; shift < 64; shift += 8 {
			buf = append(buf, byte(x>>uint(shift)))
		}
	}
	return string(buf)
}

// freshest picks the set with the freshest version vector, the first
// of equals in the sets' deterministic order; nil when there is none.
// Fresher means a larger component sum: a simple total preference —
// concurrent residue vectors are incomparable, and the order resolves
// them the same way for every caller.
func freshest(sets []consistentSet) *consistentSet {
	var best *consistentSet
	var bestSum uint64
	for i := range sets {
		var sum uint64
		for _, x := range sets[i].vector {
			sum += x
		}
		if best == nil || sum > bestSum {
			best, bestSum = &sets[i], sum
		}
	}
	return best
}

// fill lays the members' bytes out as the n-slot shard array the
// erasure decoder takes; dst must be all nil on entry.
func (v *stripeView) fill(dst [][]byte, members []int) {
	for _, shard := range members {
		dst[shard] = v.shards[shard].data
	}
}

// opinion is the content hash the answered shards' cross-checksum
// records expect of data block `block` at `version`: every parity
// record votes with its slot for the block, the block's own data shard
// votes with its single-slot record, and shard `without` never votes —
// pass the shard whose bytes are being judged or rebuilt, since a node
// must not vouch for its own content.
func (v *stripeView) opinion(block int, version uint64, without int) sumOpinion {
	tally := make(map[uint64]int)
	for shard := range v.shards {
		a := &v.shards[shard]
		switch {
		case shard == without || a.err != nil:
		case shard >= v.k:
			tallyOpinion(tally, a.sums, block, version)
		case shard == block && len(a.sums) == 1:
			tallyOpinion(tally, a.sums, 0, version)
		}
	}
	return pluralitySum(tally)
}

// shardState is how one shard stands against a version vector.
type shardState int

const (
	shardFresh       shardState = iota // answered, every slot equal
	shardStale                         // some slot lags, none leads (or the vector is malformed)
	shardAhead                         // some slot leads: failed-write residue or an in-flight update
	shardUnreachable                   // no answer
	shardCorrupt                       // answered client.ErrCorrupt
)

// classify judges every shard against vector: a data shard by its own
// version against the vector's component, a parity shard slot by slot.
// Against a nil vector (no decodable set) only reachability is judged.
func (v *stripeView) classify(vector []uint64) []shardState {
	states := make([]shardState, len(v.shards))
	for shard := range v.shards {
		a := &v.shards[shard]
		switch {
		case isCorruptErr(a.err):
			states[shard] = shardCorrupt
		case a.err != nil:
			states[shard] = shardUnreachable
		case vector != nil:
			want := vector
			if shard < v.k {
				want = vector[shard : shard+1]
			}
			if len(a.versions) != len(want) {
				states[shard] = shardStale
				continue
			}
			for slot, have := range a.versions {
				if have > want[slot] {
					states[shard] = shardAhead
					break
				}
				if have < want[slot] {
					states[shard] = shardStale
				}
			}
		}
	}
	return states
}
