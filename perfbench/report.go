package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: BENCHMARK.json lists the same set.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of every workload sees, measured with
// tracing off. Each is defined for every workload and is never zero.
//
// Timing bounds are wide because on a shared two-vCPU VM host speed
// drifted by up to 30% between sets of runs, wall and CPU time alike;
// allocation is deterministic except for the seeded serve-plan request
// mix (quartile spread up to 0.04).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// registryWorkloads and artifactIDs name the per-workload and
// per-artifact metrics; TestRegistriesMatchMetrics keeps them equal to
// the registries.
var registryWorkloads = []string{
	"gatk4", "gatk4-full", "lr-large", "lr-small", "pagerank", "sql", "svm", "terasort", "trianglecount",
}

var artifactIDs = []string{
	"ablation-gc", "ablation-model", "errorbars", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig2", "fig3", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9", "gatk4-full", "headline",
	"memvolume", "multidisk", "ousterhout", "resilience", "scheduler", "speculation", "tab4", "tab5",
}

var missKinds = []string{"predict", "whatif", "sweep", "recommend"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	// workloads / spark on sim-default.
	for _, w := range registryWorkloads {
		add("spark.run_ms."+w, "ms", "lower")
	}
	add("spark.ns_per_task", "ns", "lower")
	add("spark.allocs_per_task", "count", "lower")
	add("spark.bytes_per_task", "B", "lower")
	add("spark.tasks_per_s", "1/s", "higher")
	add("workloads.build_ms", "ms", "lower")
	add("runtime.gc_cycles", "count", "lower")
	// sim / runtime CPU self-time shares, every workload.
	for _, n := range []string{"cpu.sim.engine_pct", "cpu.sim.flow_pct", "cpu.sim.corepool_pct", "cpu.spark_pct",
		"cpu.runtime.gc_pct", "cpu.runtime.malloc_pct", "cpu.core_pct", "cpu.serve_pct", "cpu.json_pct",
		"cpu.net_pct", "cpu.optimizer_pct"} {
		add(n, "%", "lower")
	}
	// spark memory / fault paths on campaign-stress.
	for _, c := range pointClasses {
		add("campaign.point_ms."+c, "ms", "lower")
	}
	add("campaign.runner_overhead_ms", "ms", "lower")
	add("spark.spilled_tasks", "count", "lower")
	add("spark.gc_pauses", "count", "lower")
	add("spark.retries", "count", "lower")
	add("spark.recomputes", "count", "lower")
	add("core.model_err_p50_pct", "%", "lower")
	add("core.model_err_p90_pct", "%", "lower")
	add("core.calibrate_ms", "ms", "lower")
	// serve / optimizer on serve-plan.
	add("serve.req_p50_ms", "ms", "lower")
	add("serve.req_p99_ms", "ms", "lower")
	add("serve.req_samples", "count", "higher")
	add("serve.hit_p50_ms", "ms", "lower")
	for _, k := range missKinds {
		add("serve.miss_p50_ms."+k, "ms", "lower")
	}
	add("serve.cache_hit_ratio", "ratio", "higher")
	add("serve.shed", "count", "lower")
	// experiments on repro-all.
	for _, id := range artifactIDs {
		add("experiments.artifact_ms."+id, "ms", "lower")
	}
	add("experiments.pool_speedup", "x", "higher")
	// harness.
	add("trace.overhead_pct", "%", "lower")
	add("runtime.peak_rss_mb", "MiB", "lower")
	return out
}()

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// pass is one timed repetition of a workload's fixed unit of work.
type pass struct {
	wall time.Duration
	ops  int
	use  memSnap // resources the pass used
}

// report is everything one workload run produced.
type report struct {
	setups []time.Duration // one per set-up repetition
	passes []pass          // untraced passes: the end-to-end figures
	layer  map[string]float64
	check  checker
	notes  []string
	spans  []span
}

func newReport() *report { return &report{layer: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) endToEndMetrics() map[string]metricValue {
	var walls, allocs, cpus []float64
	var ops int
	var total time.Duration
	for _, p := range r.measured() {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.use.alloc)/(1<<20))
		cpus = append(cpus, p.use.cpu.Seconds())
		ops += p.ops
		total += p.wall
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	vals := map[string]float64{
		"setup_s":   median(setups),
		"wall_s":    median(walls),
		"ops_per_s": float64(ops) / total.Seconds(),
		"alloc_mb":  median(allocs),
		"cpu_s":     median(cpus),
	}
	return pick(endToEnd, vals)
}

func (r *report) layerMetrics() map[string]metricValue { return pick(perLayer, r.layer) }

// pick renders exactly the declared metrics, 0 for any the run did not
// produce.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// checker counts operations and the ones whose output was wrong.
type checker struct {
	attempted, failed int
	errs              []string // the first few failure messages
}

// op records one operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *checker) merge(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, e := range o.errs {
		if len(c.errs) < 10 {
			c.errs = append(c.errs, e)
		}
	}
}

func (c *checker) failRatio() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// memSnap brackets a pass with allocator counters, the process's CPU
// time and the host's steal time.
type memSnap struct {
	alloc, mallocs uint64
	gc             uint32
	cpu            time.Duration // user+system time of every thread
	steal          time.Duration // summed over the machine's CPUs
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gc: ms.NumGC, cpu: processCPU(), steal: hostSteal()}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{alloc: a.alloc - b.alloc, mallocs: a.mallocs - b.mallocs, gc: a.gc - b.gc,
		cpu: a.cpu - b.cpu, steal: a.steal - b.steal}
}

const (
	// minPasses is the fewest passes any run makes; a traced run needs
	// one untraced pass to compare against and one traced.
	minPasses = 2
	// stealLimit is the share of the machine's CPU time the hypervisor
	// may steal during a pass before the pass counts as disturbed.
	stealLimit = 0.05
	// maxStretch bounds how long, in multiples of --seconds, an untraced
	// run waits for minPasses undisturbed passes.
	maxStretch = 1.5
)

// disturbed reports a pass during which the host took the CPUs away:
// its time says more about the neighbours than about the program.
func (p pass) disturbed() bool {
	return float64(p.use.steal) > stealLimit*float64(p.wall)*float64(runtime.NumCPU())
}

// undisturbed returns the passes the host left alone.
func (r *report) undisturbed() []pass {
	var clean []pass
	for _, p := range r.passes {
		if !p.disturbed() {
			clean = append(clean, p)
		}
	}
	return clean
}

// measured returns the passes the end-to-end metrics use: the
// undisturbed ones, or all of them when every pass was disturbed.
func (r *report) measured() []pass {
	if clean := r.undisturbed(); len(clean) > 0 {
		return clean
	}
	return r.passes
}

// timedLoop runs passes until the timed phase has used seconds and at
// least max(o.minPasses, minPasses) passes ran. An untraced run also
// waits, up to maxStretch × seconds, until that many of its passes were
// undisturbed.
func (r *report) timedLoop(o options, fn func(i int) error) error {
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	need := max(o.minPasses, minPasses)
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= need && elapsed >= budget &&
			(o.trace || len(r.undisturbed()) >= need || elapsed >= time.Duration(maxStretch*float64(budget))) {
			return nil
		}
		if err := fn(i); err != nil {
			return err
		}
	}
}

// overheadPct compares traced and untraced pass walls.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u <= 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/u - 1) * 100
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
