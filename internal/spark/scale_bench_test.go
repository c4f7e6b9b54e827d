package spark

// Scale benchmarks: the production-size input the ROADMAP aims at
// (64 nodes × 32 cores, >100k tasks), measured with wave coalescing on
// and off. The coalesced/pertask pair is what docs/BENCH_simcore.json
// gates — refreshing the baseline is described in docs/PERF.md.
//
//	go test -bench BenchmarkSimScale -benchmem ./internal/spark

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// scaleApp is a synthetic two-stage map/reduce application sized like a
// production batch job: scaleTasks map tasks reading HDFS blocks and
// writing shuffle output, and one reduce wave pulling it back in.
func scaleApp(slaves, cores int) App {
	mapTasks := scaleTasks
	reduceTasks := slaves * cores
	perMap := 32 * units.MB
	perReduce := units.ByteSize(int64(mapTasks) * int64(perMap) / int64(reduceTasks))
	return App{
		Name: "scale",
		Stages: []Stage{
			{Name: "map", Groups: []TaskGroup{{
				Name:  "map",
				Count: mapTasks,
				Ops: []Op{
					IOC(OpHDFSRead, perMap, 0, 0, 40*time.Millisecond),
					Compute(120 * time.Millisecond),
					IO(OpShuffleWrite, perMap/2, 0, 0),
				},
			}}},
			{Name: "reduce", Groups: []TaskGroup{{
				Name:  "reduce",
				Count: reduceTasks,
				Ops: []Op{
					IOC(OpShuffleRead, perReduce/2, ShuffleReadReqSize(perReduce/2, mapTasks), units.MBps(60), 200*time.Millisecond),
					Compute(500 * time.Millisecond),
					IO(OpHDFSWrite, perReduce/4, 0, 0),
				},
			}}},
		},
	}
}

const (
	scaleSlaves = 64
	scaleCores  = 32
	scaleTasks  = 102_400 // 64 nodes × 32 cores × 50 full waves
)

func benchSimScale(b *testing.B, disableCoalescing bool) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(scaleSlaves, scaleCores, ssd, ssd)
	cfg.ComputeJitter = 0 // homogeneous: the coalescing-eligible regime
	cfg.DisableCoalescing = disableCoalescing
	app := scaleApp(scaleSlaves, scaleCores)
	b.ReportAllocs()
	mallocs := mallocCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stages[0].Tasks != scaleTasks {
			b.Fatalf("map stage ran %d tasks", res.Stages[0].Tasks)
		}
	}
	if disableCoalescing {
		reportPerTaskLayers(b, cfg, app, mallocs)
	}
}

// mallocCount returns the process's cumulative heap allocation count.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// reportPerTaskLayers adds the per-layer counters of a per-task
// benchmark to its output: engine events and water-filling passes per
// run (counted on one extra, untimed run — the simulation is
// deterministic), and heap allocations per simulated task over the
// timed loop, which began at the cumulative count mallocs0. benchgate
// ignores these columns; they say which layer an ns/op change came
// from.
func reportPerTaskLayers(b *testing.B, cfg ClusterConfig, app App, mallocs0 uint64) {
	b.StopTimer()
	mallocs := mallocCount() - mallocs0
	r := newRunner(cfg, app, true)
	if _, err := r.run(); err != nil {
		b.Fatal(err)
	}
	var reallocs uint64
	for _, n := range r.ns {
		reallocs += n.hdfs.Reallocations() + n.local.Reallocations()
		if n.nic != nil {
			reallocs += n.nic.Reallocations()
		}
	}
	tasks := 0
	for _, s := range app.Stages {
		tasks += s.Tasks()
	}
	b.ReportMetric(float64(r.eng.Steps()), "events/op")
	b.ReportMetric(float64(reallocs), "reallocs/op")
	b.ReportMetric(float64(mallocs)/float64(b.N)/float64(tasks), "allocs/task")
}

// BenchmarkSimScale is the headline scale benchmark (coalesced path).
func BenchmarkSimScale(b *testing.B) { benchSimScale(b, false) }

// BenchmarkSimScalePerTask is the same input forced down the per-task
// path — the pre-optimisation cost, kept runnable so the coalescing
// speedup stays measurable instead of historical.
func BenchmarkSimScalePerTask(b *testing.B) { benchSimScale(b, true) }

// BenchmarkSimMedium is a mid-size fallback-path benchmark (jittered,
// so never coalesced): it tracks the per-task path's own regressions,
// which the scale benchmark would hide behind coalescing.
func BenchmarkSimMedium(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(8, 8, ssd, ssd) // default jitter 0.15
	app := scaleAppSized(8, 8, 6400)
	b.ReportAllocs()
	mallocs := mallocCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, app); err != nil {
			b.Fatal(err)
		}
	}
	reportPerTaskLayers(b, cfg, app, mallocs)
}

// scaleAppSized is scaleApp with an explicit map-task count.
func scaleAppSized(slaves, cores, mapTasks int) App {
	app := scaleApp(slaves, cores)
	app.Stages[0].Groups[0].Count = mapTasks
	return app
}

// faultScaleConfig is the degraded-mode scale input: the production
// 64×32×100k job with faults, speculation and stragglers all enabled,
// at rates low enough that most nodes draw no degradation event — the
// partial-coalescing regime docs/PERF.md describes. The probabilities
// are per-attempt, so ~2 task failures, ~2 stragglers and a fetch
// failure or two are expected across the run.
func faultScaleConfig() (ClusterConfig, App) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(scaleSlaves, scaleCores, ssd, ssd)
	cfg.ComputeJitter = 0
	cfg.Seed = 42
	cfg.Speculation = true
	cfg.StragglerFraction = 2e-5
	cfg.StragglerSlowdown = 3
	cfg.Faults = FaultConfig{
		TaskFailureProb:         2e-5,
		ShuffleFetchFailureProb: 1e-4,
		RetryBackoff:            0.1,
		Seed:                    7,
	}
	return cfg, scaleApp(scaleSlaves, scaleCores)
}

// BenchmarkSimFaultScale is the degraded-mode headline benchmark: the
// docs/BENCH_simfault.json baseline gates it. Faults, speculation and
// stragglers force the simulator off the fully-symmetric fast path, so
// this prices the clean-node partial-coalescing + zero-alloc fallback
// machinery that resilience and chaos campaigns live on.
func BenchmarkSimFaultScale(b *testing.B) {
	cfg, app := faultScaleConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Faults.TaskFailures == 0 {
			b.Fatal("benchmark config must inject at least one task failure")
		}
	}
}

// TestScaleAppCoalesces pins the benchmark's premise: the scale config
// qualifies for coalescing, and both paths produce identical Results
// even at the 64×32×100k production size.
func TestScaleAppCoalesces(t *testing.T) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(scaleSlaves, scaleCores, ssd, ssd)
	cfg.ComputeJitter = 0
	app := scaleApp(scaleSlaves, scaleCores)
	if dirty, clean := planCoalescing(cfg, app); dirty != nil || clean != cfg.Slaves {
		t.Fatalf("scale benchmark config must coalesce fully; plan %v (%d clean)", dirty, clean)
	}
	a, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableCoalescing = true
	b, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("paths disagree at production scale:\ncoalesced: %+v\nper-task:  %+v", a, b)
	}
}

// BenchmarkSimMemSpill is the memory layer's hot path: the mid-size
// jittered input with a heap small enough that every wave spills and
// collects, so each task pays reservation accounting, spill I/O through
// the Local device and a seeded GC stall on top of the fallback path
// BenchmarkSimMedium prices.
func BenchmarkSimMemSpill(b *testing.B) {
	ssd := disk.NewSSD()
	cfg := DefaultTestbed(8, 8, ssd, ssd) // default jitter 0.15
	cfg.Memory = MemoryConfig{HeapGB: 0.5}
	app := scaleAppSized(8, 8, 6400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mem.SpilledTasks == 0 {
			b.Fatal("benchmark config must exercise the spill path")
		}
	}
}
