package main

import (
	"sort"
	"time"

	"trapquorum/client"
	"trapquorum/internal/erasure"
	"trapquorum/internal/gf256"
	"trapquorum/internal/wire"
)

// The codec layers sit behind no interface, so no span can time them
// inside an op. They are calibrated instead: their public functions are
// timed directly at the workloads' shapes, and the result is set beside
// the op latency it is part of.

// timeCall returns the median seconds per call of fn over several
// batches, each long enough to time.
func timeCall(fn func()) float64 {
	const batches, batchTime = 7, 8 * time.Millisecond
	fn() // warm pools and tables
	var per []float64
	for b := 0; b < batches; b++ {
		n := 0
		start := time.Now()
		for time.Since(start) < batchTime {
			fn()
			n++
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

func blocks(n, size int, seed byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		for j := range out[i] {
			out[i][j] = seed + byte(i*31+j*7)
		}
	}
	return out
}

func calibrate(sp spec, e2e map[string]metric, put func(string, float64)) {
	code, err := erasure.New(codeN, codeK)
	if err != nil {
		logf("calibrate: %v", err)
		return
	}
	encode := func(size int) float64 {
		data, parity := blocks(codeK, size, 1), blocks(codeN-codeK, size, 0)
		return timeCall(func() {
			if err := code.EncodeInto(parity, data); err != nil {
				panic(err)
			}
		})
	}
	enc64k, enc4k := encode(64<<10), encode(4<<10)
	put("erasure.encode_mb_per_s", float64(codeK*(64<<10))/1e6/enc64k)
	put("erasure.encode_us_4k_stripe", enc4k*1e6)

	// One block write ships one delta to every parity holder.
	oldB, newB := blocks(1, 4<<10, 3)[0], blocks(1, 4<<10, 9)[0]
	delta, adj := make([]byte, 4<<10), make([]byte, 4<<10)
	deltaUpdate := timeCall(func() {
		erasure.DataDeltaInto(delta, oldB, newB)
		for j := codeK; j < codeN; j++ {
			code.ParityAdjustmentInto(adj, j, 0, delta)
		}
	})
	put("erasure.delta_update_us_4k", deltaUpdate*1e6)

	// Rebuild the most a (9,6) stripe can lose: three data shards.
	full := blocks(codeK, 64<<10, 5)
	parity, err := code.Encode(full)
	if err != nil {
		logf("calibrate: %v", err)
		return
	}
	shards := append(append([][]byte(nil), full...), parity...)
	work := make([][]byte, codeN)
	reconstruct := timeCall(func() {
		copy(work, shards)
		work[0], work[1], work[2] = nil, nil, nil
		if err := code.ReconstructData(work); err != nil {
			panic(err)
		}
	})
	put("erasure.reconstruct_mb_per_s", float64(3*(64<<10))/1e6/reconstruct)

	buf := blocks(1, 64<<10, 7)[0]
	var sink uint64
	put("erasure.sum64_gb_per_s", float64(len(buf))/1e9/timeCall(func() { sink += erasure.Sum64(buf) }))
	dst := make([]byte, len(buf))
	put("gf256.muladd_gb_per_s", float64(len(buf))/1e9/timeCall(func() { gf256.MulAddSlice(0x1d, dst, buf) }))
	_ = sink

	for _, c := range []struct {
		name string
		size int
	}{{"wire.roundtrip_us_4k", 4 << 10}, {"wire.roundtrip_us_64k", 64 << 10}} {
		req := wire.Request{Op: wire.OpPutChunk, ID: client.ChunkID{Stripe: 7, Shard: 3},
			Versions: make([]uint64, codeK), Sums: make([]client.BlockSum, codeK), Data: blocks(1, c.size, 2)[0]}
		var frame []byte
		put(c.name, 1e6*timeCall(func() {
			frame = wire.AppendRequest(frame[:0], &req)
			if _, err := wire.DecodeRequest(frame); err != nil {
				panic(err)
			}
		}))
	}

	// The codec's estimated share of this workload's write: a whole
	// object's encode for Put/PutReader, one delta update for WriteAt.
	if w := e2e["write_p50_ms"].Value; w > 0 {
		codec := deltaUpdate
		if sp.churn {
			perStripe := enc4k
			if sp.blockSize == 64<<10 {
				perStripe = enc64k
			}
			stripe := codeK * sp.blockSize
			codec = perStripe * float64((sp.objectSize+stripe-1)/stripe)
		}
		put("erasure.share_of_write_est", codec*1e3/w)
	}
}
