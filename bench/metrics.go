package main

// metricDef declares one metric of BENCHMARK.json. The tables below
// are the benchmark's contract; TestBenchmarkJSONMatchesTables pins
// that the file at the repository root lists exactly these.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is reported by the untraced run of every workload. The
// bounds are sized on the spreads six sets of ten seeds showed on the
// sandbox (README "Bounds"): its CPU speed wanders by a quarter over
// tens of minutes, and the CPU-bound timings with it. Read latency
// spread 26 % and is reported per layer instead (trace.read_p50_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"delete_p50_ms", "ms", "lower", 0.20},
	{"wire_bytes_per_user_byte", "B/B", "lower", 0.02},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0.02},
}

// perLayer is reported by the traced run of every workload; a metric
// that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, layer := range []string{"gateway", "service", "tcp", "nodeengine", "diskstore"} {
		add("ms", "lower", layer+".self_ms_write", layer+".self_ms_read", layer+".self_ms_delete")
	}
	add("ms", "lower", "trace.write_p50_ms", "trace.read_p50_ms", "trace.delete_p50_ms")
	add("frac", "lower", "trace.budget_gap_write", "trace.budget_gap_read", "trace.budget_gap_delete")
	add("count", "lower", "core.rpcs_per_write", "core.rpcs_per_read", "core.rpcs_per_delete",
		"core.rounds_per_write", "core.rounds_per_read", "core.rounds_per_delete")
	add("frac", "higher", "core.direct_read_share")
	add("count", "lower", "core.hedged_rpcs", "core.rollbacks", "core.failed_writes")
	for _, rpc := range []uint8{rpcReadVersions, rpcReadChunk, rpcPutChunk, rpcCompareAndPut, rpcCompareAndAdd, rpcDeleteChunk} {
		add("ms", "lower", "tcp.rpc_p50_ms."+rpcNames[rpc])
	}
	add("ms", "lower", "tcp.self_ms_per_rpc", "nodeengine.self_ms_per_rpc")
	add("B", "lower", "tcp.payload_bytes_per_write", "tcp.payload_bytes_per_read")
	add("count", "lower", "tcp.payload_blocks_per_write")
	add("us", "lower", "wire.roundtrip_us_4k", "wire.roundtrip_us_64k")
	add("count", "lower", "nodeengine.version_queries_per_op", "nodeengine.version_rejects")
	add("ms", "lower", "diskstore.put_p50_ms", "diskstore.get_p50_ms", "diskstore.delete_p50_ms")
	add("count", "lower", "diskstore.mutations_per_op")
	add("frac", "higher", "diskstore.staged_share")
	add("count", "lower", "service.epoch_installs")
	add("B/B", "lower", "gateway.bytes_per_user_byte")
	add("count", "lower", "gateway.overloads")
	add("MB/s", "higher", "erasure.encode_mb_per_s", "erasure.reconstruct_mb_per_s")
	add("us", "lower", "erasure.encode_us_4k_stripe", "erasure.delta_update_us_4k")
	add("GB/s", "higher", "erasure.sum64_gb_per_s", "gf256.muladd_gb_per_s")
	add("frac", "lower", "erasure.share_of_write_est")
	add("MB/s", "higher", "service.repair_mb_per_s", "service.drain_mb_per_s")
	add("frac", "lower", "service.repair_self_share", "service.drain_self_share")
	add("ms", "lower", "client.write_tail_ms", "client.read_tail_ms", "client.delete_tail_ms")
	add("frac", "higher", "client.tail_q")
	add("count", "higher", "client.samples_write", "client.samples_read", "client.samples_delete")
	add("ms", "lower", "process.cpu_ms_per_op", "process.gc_pause_ms")
	add("frac", "lower", "process.cpu_util")
	add("count", "lower", "process.allocs_per_op")
	add("B", "lower", "process.alloc_bytes_per_op")
	add("MiB", "lower", "process.peak_rss_mb")
	add("frac", "lower", "host.steal_frac")
	add("count", "higher", "host.quiet_slices", "host.nproc")
	add("1/s", "higher", "trace.ops_per_s")
	add("count", "lower", "trace.spans")
	return d
}()

var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// perLayerUnit returns the declared unit; an undeclared name is a bug
// in this package, caught by TestTracedRunReportsDeclaredMetrics.
func perLayerUnit(name string) string {
	if u, ok := perLayerUnits[name]; ok {
		return u
	}
	return "undeclared"
}
