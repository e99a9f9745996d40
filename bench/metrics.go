package main

// metricDef names one reported metric. The two lists below are the contract
// with BENCHMARK.json: an untraced run reports exactly endToEnd, a traced run
// exactly perLayer, and a name the workload does not exercise reads 0.
// bench_test.go checks both against the file.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"resident_mb", "MB"},
}

var perLayer = []metricDef{
	// ring: per limb, at the level the op's arithmetic starts.
	{"ring.ntt_us", "us"},
	{"ring.intt_us", "us"},
	{"ring.mulcoeffs_add_us", "us"},
	{"ring.automorphism_us", "us"},
	{"ring.par_speedup", "x"},

	// ckks: one call at the workload's parameters and level.
	{"ckks.encode_ms", "ms"},
	{"ckks.mulplain_ms", "ms"},
	{"ckks.rotate_ms", "ms"},
	{"ckks.rotate_hoisted_ms_per_rot", "ms"},
	{"ckks.mulrelin_ms", "ms"},
	{"ckks.rescale_ms", "ms"},
	{"ckks.encrypt_ms", "ms"},
	{"ckks.decrypt_decode_ms", "ms"},
	{"ckks.allocs_per_rotate", "count"},
	{"ckks.allocs_per_mulrelin", "count"},
	{"ckks.keygen_ms_per_rotkey", "ms"},
	{"ckks.ct_wire_bytes", "bytes"},
	{"ckks.marshal_ms", "ms"},
	{"ckks.unmarshal_ms", "ms"},
	{"ckks.ks_over_pmult_measured", "x"},
	{"hw.ks_over_pmult_model", "x"},

	// fhir: the compiled program of he-rot and he-mul.
	{"fhir.compile_ms", "ms"},
	{"fhir.values", "count"},
	{"fhir.keyswitch", "count"},
	{"fhir.decomp", "count"},
	{"fhir.moddown", "count"},
	{"fhir.rescale", "count"},
	{"fhir.pmult", "count"},
	{"fhir.evaluate_ms_p50", "ms"},
	{"fhir.model_ms", "ms"},
	{"fhir.model_ratio", "x"},
	{"fhir.model_encode_pct", "%"},
	{"fhir.unattributed_pct", "%"},

	// hefloat: he-boot.
	{"hefloat.new_bootstrapper_s", "s"},
	{"hefloat.bootstrap_ms_p50", "ms"},
	{"hefloat.dft_ms", "ms"},
	{"hefloat.sine_share", "share"},
	{"hefloat.precision_bits", "bits"},

	// cluster and the live serving path: traced he-rot only.
	{"fhir.lower_cluster_ms", "ms"},
	{"cluster.run_ms_1card", "ms"},
	{"cluster.run_ms_2card", "ms"},
	{"cluster.speedup_2card", "x"},
	{"serve.live_job_ms_p50", "ms"},
	{"serve.live_overhead_ms", "ms"},

	// model, mapping, task, isa, sim: the Hydra-L row of sim-fleet.
	{"model.build_ms", "ms"},
	{"task.nodes", "count"},
	{"task.bytes", "bytes"},
	{"sim.run_ms", "ms"},
	{"sim.nodes_per_s", "1/s"},
	{"sim.peak_rss_mb", "MB"},
	{"sim.simulated_s_geomean", "s"},
	{"sim.paper_err_pct", "%"},
	{"sim.comm_share_bert_l", "share"},
	{"sim.exposed_comm_s", "s"},
	{"sim.max_compute_busy_s", "s"},
	{"sim.energy_j", "J"},
	{"isa.marshal_ms", "ms"},
	{"isa.unmarshal_ms", "ms"},
	{"isa.blob_mb", "MB"},

	// serve: serve-replay, per load point.
	{"serve.replay_util.l050", "share"},
	{"serve.replay_util.l100", "share"},
	{"serve.replay_util.l125", "share"},
	{"serve.replay_wait_p50_s.l100", "s"},
	{"serve.replay_wait_p99_s.l100", "s"},
	{"serve.replay_vjobs_per_s.l125", "1/s"},
	{"serve.replay_coalesced.l125", "count"},
	{"serve.replay_refills.l125", "count"},
	{"serve.replay_shed.l125", "count"},
	{"serve.replay_grants.l125", "count"},
	{"serve.sched_us_per_job", "us"},

	// bench: the harness itself, every workload.
	{"bench.op_raw_ms_p50", "ms"},
	{"bench.op_raw_ms_tail", "ms"},
	{"bench.samples", "count"},
	{"bench.ref_ms_p50", "ms"},
	{"bench.ref_spread_pct", "%"},
	{"bench.mallocs_per_op", "count"},
	{"bench.cpu_ms_per_op", "ms"},
	{"bench.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// workloadNames is the fixed list later issues cite.
var workloadNames = []string{"he-rot", "he-mul", "he-boot", "sim-fleet", "serve-replay"}

func newWorkload(name string, smoke bool) workload { // nil for an unknown name
	switch name {
	case "he-rot":
		return newHeRot(smoke)
	case "he-mul":
		return newHeMul(smoke)
	case "he-boot":
		return newHeBoot(smoke)
	case "sim-fleet":
		return newSimFleet(smoke)
	case "serve-replay":
		return newServeReplay(smoke)
	}
	return nil
}
