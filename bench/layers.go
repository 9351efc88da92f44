package main

import (
	"runtime"
	"sort"

	"trapquorum/client"
)

// layerInput is what a traced run hands the per-layer analysis.
type layerInput struct {
	sp      spec
	win     *window
	est     estimates
	e2e     map[string]metric
	ops     []sample // window ops, tail deletes and phase ops: the S1 spans
	spans   []span   // S2..S5
	tracer  *tracer
	rebuilt *rebuild

	// Filled by attribute: the S1 spans followed by spans in start
	// order, ops and parents resolved.
	merged []span
}

type interval struct{ a, b int64 }

// unionOf merges intervals and returns the covered length and the
// number of disjoint pieces.
func unionOf(iv []interval) (length int64, pieces int) {
	if len(iv) == 0 {
		return 0, 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a <= cur.b {
			if x.b > cur.b {
				cur.b = x.b
			}
			continue
		}
		length += cur.b - cur.a
		pieces++
		cur = x
	}
	return length + cur.b - cur.a, pieces + 1
}

type matchKey struct {
	node  int16
	kind  uint8
	chunk client.ChunkID
}

// enclosing finds, among candidate spans sorted by start, the latest
// one that starts no later than s and contains it.
func enclosing(all []span, candidates []int32, s span) int32 {
	i := sort.Search(len(candidates), func(i int) bool { return all[candidates[i]].start > s.start })
	for back := 0; back < 4 && i-1-back >= 0; back++ {
		c := candidates[i-1-back]
		if all[c].start <= s.start && s.end <= all[c].end {
			return c
		}
	}
	return -1
}

// attribute builds the merged span list (S1 first) and resolves what
// the sockets hide: an S4 span belongs to the S3 span of the same node,
// RPC kind and chunk that encloses it in time, an S5 span to the S4
// span of the same node and chunk that encloses it; both inherit the
// op. S2 hangs under its op's S1, S3 under the enclosing S2 (or S1 on
// the direct path).
func (in *layerInput) attribute() {
	all := make([]span, 0, len(in.ops)+len(in.spans))
	s1 := make(map[uint64]int32, len(in.ops))
	for _, o := range in.ops {
		s1[o.op] = int32(len(all))
		all = append(all, span{op: o.op, seam: seamDriver, kind: o.kind, node: -1,
			start: int64(o.start.Sub(in.tracer.epoch)), end: int64(o.end.Sub(in.tracer.epoch)), parent: -1})
	}
	first := len(all)
	all = append(all, in.spans...)
	sort.SliceStable(all[first:], func(i, j int) bool { return all[first+i].start < all[first+j].start })

	s2ByOp := make(map[uint64][]int32)
	s3ByKey := make(map[matchKey][]int32)
	for i := first; i < len(all); i++ {
		s := &all[i]
		s.parent = -1
		switch s.seam {
		case seamTenant:
			s2ByOp[s.op] = append(s2ByOp[s.op], int32(i))
			if p, ok := s1[s.op]; ok {
				s.parent = p
			}
		case seamClient:
			k := matchKey{s.node, s.kind, s.chunk}
			s3ByKey[k] = append(s3ByKey[k], int32(i))
		}
	}
	s4ByKey := make(map[matchKey][]int32)
	for i := first; i < len(all); i++ {
		s := &all[i]
		switch s.seam {
		case seamClient:
			if p := enclosing(all, s2ByOp[s.op], *s); p >= 0 {
				s.parent = p
			} else if p, ok := s1[s.op]; ok {
				s.parent = p
			}
		case seamNode:
			if p := enclosing(all, s3ByKey[matchKey{s.node, s.kind, s.chunk}], *s); p >= 0 {
				s.parent, s.op = p, all[p].op
			}
			k := matchKey{node: s.node, chunk: s.chunk}
			s4ByKey[k] = append(s4ByKey[k], int32(i))
		}
	}
	for i := first; i < len(all); i++ {
		s := &all[i]
		if s.seam != seamStore {
			continue
		}
		if p := enclosing(all, s4ByKey[matchKey{node: s.node, chunk: s.chunk}], *s); p >= 0 {
			s.parent, s.op = p, all[p].op
		}
	}
	in.merged = all
}

// opBudget is one client op's time, split by layer. A layer's self
// time is the part of the op during which it was the innermost layer
// at work: its spans' union minus the union of the spans one seam
// further in. The five shares add up to the op's latency exactly.
type opBudget struct {
	kind                                 uint8
	total                                float64 // ms
	gateway, service, tcp, engine, store float64 // ms
	rpcs, rounds                         int
	payload                              int64 // chunk payload bytes its RPCs carried
}

func (in *layerInput) budgets() []opBudget {
	type acc struct {
		iv      [seamStore + 1][]interval
		rpcs    int
		payload int64
	}
	byOp := make(map[uint64]*acc, len(in.ops))
	for _, s := range in.merged {
		if s.op == 0 {
			continue
		}
		a := byOp[s.op]
		if a == nil {
			a = &acc{}
			byOp[s.op] = a
		}
		a.iv[s.seam] = append(a.iv[s.seam], interval{s.start, s.end})
		if s.seam == seamClient {
			a.rpcs++
			a.payload += int64(s.bytes)
		}
	}
	var out []opBudget
	for _, o := range in.ops {
		a := byOp[o.op]
		if !o.ok || a == nil {
			continue
		}
		var u [seamStore + 1]int64
		var rounds int
		for s := seamDriver; s <= seamStore; s++ {
			var pieces int
			u[s], pieces = unionOf(a.iv[s])
			if s == seamClient {
				rounds = pieces
			}
		}
		if len(a.iv[seamTenant]) == 0 { // direct path, or a maintenance call made past the gateway
			u[seamTenant] = u[seamDriver]
		}
		f := func(ns int64) float64 { return float64(ns) / 1e6 }
		out = append(out, opBudget{
			kind: o.kind, total: f(u[seamDriver]),
			gateway: f(u[seamDriver] - u[seamTenant]),
			service: f(u[seamTenant] - u[seamClient]),
			tcp:     f(u[seamClient] - u[seamNode]),
			engine:  f(u[seamNode] - u[seamStore]),
			store:   f(u[seamStore]),
			rpcs:    a.rpcs, rounds: rounds, payload: a.payload,
		})
	}
	return out
}

// layerMetrics turns one traced run into every per-layer metric.
func layerMetrics(in *layerInput) map[string]metric {
	in.attribute()
	m := make(map[string]metric)
	put := func(name string, v float64) { m[name] = metric{v, perLayerUnit(name)} }

	budgets := in.budgets()
	pick := func(kind uint8, f func(opBudget) float64) []float64 {
		var out []float64
		for _, b := range budgets {
			if b.kind == kind {
				out = append(out, f(b))
			}
		}
		return out
	}
	for _, k := range []uint8{opWrite, opRead, opDelete} {
		n := opNames[k]
		// The budget of the typical op: the layer shares are averaged
		// over the middle fifth of the ops by latency. Shares of one op
		// add up to its latency exactly, so these add up to the mean
		// latency of that band, which sits at the median; medians taken
		// layer by layer would not add up.
		var band []opBudget
		for _, b := range budgets {
			if b.kind == k {
				band = append(band, b)
			}
		}
		sort.Slice(band, func(i, j int) bool { return band[i].total < band[j].total })
		band = band[len(band)*2/5 : (len(band)*3+4)/5]
		total := median(pick(k, func(b opBudget) float64 { return b.total }))
		var sum float64
		for _, l := range []struct {
			name string
			f    func(opBudget) float64
		}{
			{"gateway", func(b opBudget) float64 { return b.gateway }},
			{"service", func(b opBudget) float64 { return b.service }},
			{"tcp", func(b opBudget) float64 { return b.tcp }},
			{"nodeengine", func(b opBudget) float64 { return b.engine }},
			{"diskstore", func(b opBudget) float64 { return b.store }},
		} {
			var v float64
			for _, b := range band {
				v += l.f(b) / float64(len(band))
			}
			sum += v
			put(l.name+".self_ms_"+n, v)
		}
		put("trace."+n+"_p50_ms", total)
		if total > 0 {
			put("trace.budget_gap_"+n, (sum-total)/total)
		}
		put("core.rpcs_per_"+n, mean(pick(k, func(b opBudget) float64 { return float64(b.rpcs) })))
		put("core.rounds_per_"+n, mean(pick(k, func(b opBudget) float64 { return float64(b.rounds) })))
		if k != opDelete {
			payload := mean(pick(k, func(b opBudget) float64 { return float64(b.payload) }))
			put("tcp.payload_bytes_per_"+n, payload)
			if k == opWrite {
				put("tcp.payload_blocks_per_write", payload/float64(in.sp.blockSize))
			}
		}
	}

	// Per-RPC and per-store-call figures, from the spans directly.
	var rpcLat [nRPCKinds][]float64
	var storeLat [nStoreKinds][]float64
	var s3Time, s4InS3, s4Time, s5InS4 int64
	var s3Count, s4Count, mutations, staged, epochInstalls int
	childTime := make(map[int32]int64)
	for _, s := range in.merged {
		if s.parent >= 0 && (s.seam == seamNode || s.seam == seamStore) {
			childTime[s.parent] += s.end - s.start
		}
	}
	for i, s := range in.merged {
		d := s.end - s.start
		switch s.seam {
		case seamClient:
			rpcLat[s.kind] = append(rpcLat[s.kind], float64(d)/1e6)
			if c, ok := childTime[int32(i)]; ok {
				s3Time += d
				s4InS3 += c
				s3Count++
			}
		case seamNode:
			s4Time += d
			s5InS4 += childTime[int32(i)]
			s4Count++
			if s.kind == rpcSetEpoch {
				epochInstalls++
			}
		case seamStore:
			kind := s.kind
			if kind >= storePutStaged {
				kind -= storePutStaged - storePut
				staged++
			}
			storeLat[kind] = append(storeLat[kind], float64(d)/1e6)
			if kind != storeGet {
				mutations++
			}
		}
	}
	for _, k := range []uint8{rpcReadVersions, rpcReadChunk, rpcPutChunk, rpcCompareAndPut, rpcCompareAndAdd, rpcDeleteChunk} {
		put("tcp.rpc_p50_ms."+rpcNames[k], median(rpcLat[k]))
	}
	if s3Count > 0 {
		put("tcp.self_ms_per_rpc", float64(s3Time-s4InS3)/1e6/float64(s3Count))
	}
	if s4Count > 0 {
		put("nodeengine.self_ms_per_rpc", float64(s4Time-s5InS4)/1e6/float64(s4Count))
	}
	put("diskstore.put_p50_ms", median(storeLat[storePut]))
	put("diskstore.get_p50_ms", median(storeLat[storeGet]))
	put("diskstore.delete_p50_ms", median(storeLat[storeDelete]))

	// Window deltas of the counters the program already exposes.
	winOps := float64(len(in.win.samples()))
	put("diskstore.mutations_per_op", float64(mutations)/float64(len(in.ops)))
	if mutations > 0 {
		put("diskstore.staged_share", float64(staged)/float64(mutations))
	}
	put("service.epoch_installs", float64(epochInstalls))
	put("nodeengine.version_queries_per_op", float64(in.win.engine.versionQueries)/winOps)
	put("nodeengine.version_rejects", float64(in.win.engine.versionRejects))
	if reads := in.win.core.directReads + in.win.core.decodeReads; reads > 0 {
		put("core.direct_read_share", float64(in.win.core.directReads)/float64(reads))
	}
	put("core.hedged_rpcs", float64(in.win.core.hedged))
	put("core.rollbacks", float64(in.win.core.rollbacks))
	put("core.failed_writes", float64(in.win.core.failedWrites))
	if in.sp.gateway {
		put("gateway.bytes_per_user_byte", float64(in.win.gatewayBytes)/in.win.moved)
	}
	put("gateway.overloads", float64(in.win.gwOverloads))

	put("process.cpu_ms_per_op", ms(in.win.cpu)/winOps)
	put("process.cpu_util", in.win.cpu.Seconds()/in.win.wall.Seconds()/float64(runtime.NumCPU()))
	put("process.allocs_per_op", float64(in.win.mallocs)/winOps)
	put("process.alloc_bytes_per_op", float64(in.win.allocBytes)/winOps)
	put("process.gc_pause_ms", ms(in.win.gcPause))
	put("process.peak_rss_mb", peakRSSMB())

	// Tails are reported, never gated.
	var tailQ float64
	for _, k := range []uint8{opWrite, opRead, opDelete} {
		lat := latencies(in.ops, k)
		v, q := tail(lat)
		put("client."+opNames[k]+"_tail_ms", v)
		put("client.samples_"+opNames[k], float64(len(lat)))
		if q > tailQ {
			tailQ = q
		}
	}
	put("client.tail_q", tailQ)

	put("host.steal_frac", mean(in.win.steal))
	put("host.quiet_slices", float64(in.est.quiet))
	put("host.nproc", float64(runtime.NumCPU()))
	put("trace.ops_per_s", in.est.opsPerS)
	put("trace.spans", float64(len(in.merged)))

	if r := in.rebuilt; r != nil {
		put("service.repair_mb_per_s", median(r.repairMBps))
		put("service.drain_mb_per_s", r.drainMBps)
		for _, ph := range []struct {
			kind uint8
			name string
		}{{opRepair, "service.repair_self_share"}, {opDrain, "service.drain_self_share"}} {
			var wall, rpc float64
			for _, b := range budgets {
				if b.kind == ph.kind {
					wall += b.total
					rpc += b.total - b.gateway - b.service
				}
			}
			if wall > 0 {
				put(ph.name, 1-rpc/wall)
			}
		}
	}

	calibrate(in.sp, in.e2e, put)

	// Every workload reports every per-layer metric; one that does not
	// apply (a delete figure on a workload without deletes, a gateway
	// figure on the direct path) reads 0.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			put(d.name, 0)
		}
	}
	return m
}
