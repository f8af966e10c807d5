package main

import (
	"math"
	"slices"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root mirrors these tables with each metric's direction and bound;
// TestMetricTablesMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports for every workload.
// One "unit of work" is a pass over the paper figures, one simulation rep,
// or one daemon run (POST to the stream's end line). Wall time is not among
// them: on a shared virtual machine it drifts by more than a tenth between
// runs of one commit, so it is reported with the per-layer metrics, which
// carry no bound.
var endToEnd = []metricDef{
	{"peak_rss_mib", "MiB"}, // peak resident set of an operation, median
	{"allocs_k", "k"},       // thousands of heap allocations per unit
	{"setup_s", "s"},        // child exec to first timed call, median of probes
}

// perLayer are the metrics a traced run reports. A layer that does no work
// on a workload reads 0 there; none of them but wall_p50_ms is a raw time,
// so a 0 is a measurement, not a missing timer.
var perLayer = func() []metricDef {
	defs := []metricDef{{"wall_p50_ms", "ms"}} // median unit of the untraced run
	for _, l := range layerNames {
		defs = append(defs, metricDef{layerMetric(l), "%"})
	}
	defs = append(defs,
		metricDef{"process.cpu_util", "%"},
		metricDef{"trace.overhead", "%"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_cpu_s", "1/s"},
		metricDef{"cache.ram_hit", "%"},
		metricDef{"cache.flash_hit", "%"},
		metricDef{"core.host.blocks", "count"},
		metricDef{"core.host.ops", "count"},
		metricDef{"core.cluster.epochs", "count"},
		metricDef{"core.cluster.barrier_msgs", "count"},
		metricDef{"core.cluster.barrier_wait_share", "%"},
		metricDef{"core.cluster.merge_share", "%"},
		metricDef{"core.cluster.imbalance", "ratio"},
		metricDef{"filer.phase1_share", "%"},
		metricDef{"filer.phase2_share", "%"},
		metricDef{"filer.max_queue", "count"},
		metricDef{"tracegen.fileset_share", "%"},
		metricDef{"devices.flash_busy", "%"},
		metricDef{"stats.samples", "count"},
		metricDef{"serve.runs_per_s", "1/s"},
		metricDef{"serve.admit_share", "%"},
		metricDef{"serve.ttfs_share", "%"},
		metricDef{"serve.inject_share", "%"},
		metricDef{"serve.report_share", "%"},
		metricDef{"serve.tail_ratio", "ratio"},
		metricDef{"serve.stream_lines", "count"},
		metricDef{"serve.stream_kib", "KiB"},
	)
	for _, f := range figureNames {
		defs = append(defs, metricDef{"experiments." + f + "_share", "%"})
	}
	return defs
}()

// layerMetric names a layer's CPU-share metric; the runtime's two buckets
// read runtime.gc_share and runtime.sched_share.
func layerMetric(layer string) string {
	if rest, ok := strings.CutPrefix(layer, "runtime."); ok {
		return "runtime." + rest + "_share"
	}
	return layer + ".cpu_share"
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills a table's metrics by name. Setting a name the table does
// not declare is a harness bug.
type metricSet struct {
	defs map[string]string
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: make(map[string]string), m: make(map[string]metric)}
	for _, d := range defs {
		s.defs[d.name] = d.unit
		s.m[d.name] = metric{Unit: d.unit}
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	unit, ok := s.defs[name]
	if !ok {
		panic("flashbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics derives the end-to-end metrics from the untraced child
// and the set-up probes.
func endToEndMetrics(plain *childResult, setups []float64) map[string]metric {
	s := newMetricSet(endToEnd)
	s.set("peak_rss_mib", median(plain.Samples[samplePeakRSS]))
	s.set("allocs_k", plain.AllocsPerUnit/1000)
	s.set("setup_s", median(setups))
	return s.m
}

// perLayerMetrics derives the per-layer metrics from the traced child, its
// profile's layer shares and the untraced child it is compared with.
//
// Samples follow a naming rule: "<layer>.<name>_ms" is a per-unit time,
// reported as "<layer>.<name>_share", its percentage of the median unit;
// any other sample is reported under its own name as its median.
func perLayerMetrics(traced, plain *childResult, shares map[string]float64) map[string]metric {
	s := newMetricSet(perLayer)
	for layer, share := range shares {
		s.set(layerMetric(layer), share)
	}
	wall := median(traced.Samples[sampleWall])
	for key, xs := range traced.Samples {
		switch {
		case key == sampleWall || key == sampleSimSeconds || key == samplePeakRSS || strings.HasPrefix(key, "setup."):
		case strings.HasSuffix(key, "_ms"):
			s.set(strings.TrimSuffix(key, "_ms")+"_share", 100*ratio(median(xs), wall))
		default:
			s.set(key, median(xs))
		}
	}
	units := float64(traced.Units)
	plainWall := median(plain.Samples[sampleWall])
	s.set("wall_p50_ms", plainWall)
	s.set("process.cpu_util", 100*ratio(traced.CPUS, traced.WallS*float64(traced.GOMAXPROCS)))
	s.set("trace.overhead", 100*(ratio(wall, plainWall)-1))
	s.set("sim.events_per_cpu_s", ratio(median(traced.Samples["sim.events"])*units, traced.CPUS))
	if fileset, ok := traced.Samples[sampleFileSet]; ok {
		s.set("tracegen.fileset_share", 100*ratio(median(fileset), 1000*traced.SetupS))
	}
	// Only the daemon workload drives the serve layer; its throughput and
	// tail are serve's.
	if _, ok := traced.Samples["serve.ttfs_ms"]; ok {
		s.set("serve.runs_per_s", ratio(units, traced.WallS))
		s.set("serve.tail_ratio", ratio(quantile(traced.Samples[sampleWall], 0.95), wall))
	}
	return s.m
}

// detail collects the absolute numbers behind the metrics for result.json:
// the median of every sample, the 95th percentile of every time, and the
// throughput figures the end-to-end table leaves out.
func detail(r *childResult) map[string]float64 {
	d := make(map[string]float64)
	for key, xs := range r.Samples {
		d[key+"_p50"] = median(xs)
		if strings.HasSuffix(key, "_ms") {
			d[key+"_p95"] = quantile(xs, 0.95)
		}
	}
	d["units"] = float64(r.Units)
	d["units_per_s"] = ratio(float64(r.Units), r.WallS)
	d["cpu_s"] = r.CPUS
	if sim, ok := r.Samples[sampleSimSeconds]; ok {
		d["sim_s_per_s"] = ratio(median(sim), median(r.Samples[sampleWall])/1000)
	}
	return d
}
