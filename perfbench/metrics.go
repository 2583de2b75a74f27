package main

import "strconv"

// metricDef names one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the
// same names, units and directions (metrics_test.go checks that).
type metricDef struct {
	name, unit, better string
}

// endToEnd is reported by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"topk_p50_ms", "ms", "lower"},
	{"topk_p90_ms", "ms", "lower"},
	{"scan_p50_ms", "ms", "lower"},
	{"retained_mb", "MB", "lower"},
}

// Shapes the per-shape layer metrics cover.
var (
	allShapes    = []string{"path4", "tri", "c4", "c5", "bowtie", "chorded5"}
	cyclicShapes = []string{"tri", "c4", "c5", "bowtie", "chorded5"}
	edgeCyclic   = []string{"tri", "c4", "c5", "bowtie"}
	delayShapes  = []string{"path4", "c5"}
	// searchedShapes are the shapes whose Compile runs a hypergraph
	// search: a join tree for path4, a costed decomposition for bowtie
	// and chorded5. The facade maps tri, c4 and c5 onto canonical
	// cycle plans without one.
	searchedShapes = []string{"path4", "bowtie", "chorded5"}
	delayKs        = []int{10, 100, 1000, 10000}
)

// perLayer is reported by every workload with --trace 1.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"server.topk_fixed_us", "us", "lower"},
		{"server.topk_allocs", "count", "lower"},
		{"server.encode_us_per_line", "us", "lower"},
		{"server.patch_overhead_ms", "ms", "lower"},
		{"server.plan_cache_hit_ratio", "ratio", "higher"},
		{"obs.overhead_us", "us", "lower"},
		{"relation.ingest_ms", "ms", "lower"},
		{"catalog.collect_ms", "ms", "lower"},
		{"yannakakis.full_reduce_ms.path4", "ms", "lower"},
		{"dp.instantiate_ms.path4", "ms", "lower"},
		{"decomp.bag_reuse_ratio", "ratio", "higher"},
		{"core.ttf_prep_slope", "ratio", "lower"},
		{"core.ttf_output_slope", "ratio", "lower"},
		{"sample.trials_per_s", "1/s", "higher"},
		{"sample.accept_ratio.tri", "ratio", "higher"},
		{"sample.accept_ratio.chorded5", "ratio", "higher"},
		{"trace.overhead_pct.topk_p50_ms", "%", "lower"},
		{"trace.overhead_pct.ops_per_s", "%", "higher"},
	}
	for _, s := range searchedShapes {
		m = append(m, metricDef{"hypergraph.decompose_ms." + s, "ms", "lower"})
	}
	for _, s := range allShapes {
		m = append(m,
			metricDef{"repro.compile_ms." + s, "ms", "lower"},
			metricDef{"repro.first_run_ms." + s, "ms", "lower"},
			metricDef{"core.ttf_us." + s, "us", "lower"},
		)
	}
	for _, s := range cyclicShapes {
		m = append(m,
			metricDef{"wcoj.materialize_ms." + s, "ms", "lower"},
			metricDef{"wcoj.tuples." + s, "count", "lower"},
		)
	}
	for _, s := range edgeShapes {
		m = append(m, metricDef{"repro.apply_delta_ms." + s.name, "ms", "lower"})
	}
	for _, s := range edgeCyclic {
		m = append(m, metricDef{"decomp.bags_rebuilt." + s, "count", "lower"})
	}
	for _, s := range delayShapes {
		for _, k := range delayKs {
			m = append(m, metricDef{delayName(s, k), "us", "lower"})
		}
		m = append(m, metricDef{"core.delay_log_slope." + s, "us", "lower"})
	}
	return m
}()

func delayName(shape string, k int) string {
	return "core.delay_us.k" + strconv.Itoa(k) + "." + shape
}
