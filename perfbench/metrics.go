package main

import (
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics of an untraced run (--trace 0), with their
// units, in the order BENCHMARK.json lists them. Every workload reports
// every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"gates", "count"},
	{"depth", "count"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"req_per_s", "1/s"},
	{"decided_share", "ratio"},
	{"peak_rss_mb", "MB"},
}

// suitePasses are the pass names of the scripts the workloads run
// (resyn-x on the suite workloads, resyn on serve and in verify set-up).
var suitePasses = []string{"TFx", "depthopt", "BF", "TFD", "TF5x", "TF"}

// perLayer lists the metrics of a traced run (--trace 1). A layer a
// workload does not reach reads 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, p := range suitePasses {
		add("engine.pass_s."+p, "s")
	}
	add("engine.outside_pass_s", "s")
	add("engine.iterations", "count")
	add("cut.enumerate_s", "s")
	add("cut.cuts", "count")
	add("npn.canon4_s", "s")
	add("npn.canon5_s", "s")
	add("npn.functions5", "count")
	add("db.lookup_s", "s")
	add("db.lookups", "count")
	add("db.cache_hit_rate", "ratio")
	add("db.cache_lookups", "count")
	add("db.lookup5_hits", "count")
	add("db.lookup5_misses", "count")
	add("exact.ladders", "count")
	add("exact.ladder_failed", "count")
	add("exact.ladder_s", "s")
	add("exact.conflicts", "count")
	add("rewrite.evaluate_s", "s")
	add("rewrite.commit_s", "s")
	add("rewrite.replacements", "count")
	add("extract.select_s", "s")
	add("extract.choices", "count")
	add("extract.saved", "count")
	add("depthopt.gates_added", "count")
	add("depthopt.prepare_s", "s")
	for _, phase := range []string{"parse", "queue_wait", "optimize", "encode"} {
		add("server."+phase+"_ms.p50", "ms")
		add("server."+phase+"_ms.p90", "ms")
	}
	add("server.requests", "count")
	add("verify.sim_s", "s")
	add("verify.sat_s", "s")
	add("verify.sim_refuted", "count")
	add("verify.sat_proven", "count")
	add("verify.sat_timeouts", "count")
	add("trace.wall_s", "s")
	add("trace.overhead_s", "s")
	return out
}()

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
