package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/spark"
	"repro/internal/workloads"
)

// clusterShape is one cluster size with its HDFS/Local device pair.
type clusterShape struct {
	name         string
	nodes, cores int
	hdfs, local  string
}

// simShapes pair a large cluster on SSD HDFS with a small all-HDD one,
// so both the SSD and the contended HDD flow regimes run.
var simShapes = []clusterShape{
	{"10x36-ssd-hdd", 10, 36, "ssd", "hdd"},
	{"4x16-hdd-hdd", 4, 16, "hdd", "hdd"},
}

// simOp is one serial Build+Run on the default testbed.
type simOp struct {
	key      string
	workload workloads.Workload
	shape    clusterShape
	seed     uint64
	tasks    int
}

// config builds the op's cluster (devices are built per run, as every
// caller of the simulator does).
func (op simOp) config() (spark.ClusterConfig, error) {
	hdfs, err := cloud.ParseDevice(op.shape.hdfs)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	local, err := cloud.ParseDevice(op.shape.local)
	if err != nil {
		return spark.ClusterConfig{}, err
	}
	cfg := spark.DefaultTestbed(op.shape.nodes, op.shape.cores, hdfs, local)
	cfg.Seed = op.seed
	return cfg, nil
}

// simGrid is every registry workload on every shape at two seeds drawn
// from the workload seed.
func simGrid(seed uint64) ([]simOp, error) {
	seeds := []uint64{splitmix(seed, 1), splitmix(seed, 2)}
	var ops []simOp
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, sh := range simShapes {
			for _, s := range seeds {
				op := simOp{key: fmt.Sprintf("%s/%s/s%d", name, sh.name, s), workload: w, shape: sh, seed: s}
				cfg, err := op.config()
				if err != nil {
					return nil, err
				}
				app := w.Build(cfg)
				if err := app.Validate(); err != nil {
					return nil, fmt.Errorf("%s: %w", op.key, err)
				}
				op.tasks = appTasks(app)
				ops = append(ops, op)
			}
		}
	}
	return ops, nil
}

func appTasks(app spark.App) int {
	n := 0
	for _, st := range app.Stages {
		n += st.Tasks()
	}
	return n
}

// warmupWorkloads are the grid's four cheapest workloads.
var warmupWorkloads = []string{"sql", "svm", "terasort", "trianglecount"}

// simSetup resolves the grid, builds and validates every app once, and
// runs the cheapest workloads on each shape to fault in code and heap.
func simSetup(seed uint64) ([]simOp, error) {
	ops, err := simGrid(seed)
	if err != nil {
		return nil, err
	}
	for _, name := range warmupWorkloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, sh := range simShapes {
			cfg, err := simOp{workload: w, shape: sh, seed: seed}.config()
			if err != nil {
				return nil, err
			}
			if _, err := spark.Run(cfg, w.Build(cfg)); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", name, err)
			}
		}
	}
	return ops, nil
}

// checkSimResult applies the structural checks every seed gets: stage
// durations sum to Total and every planned task ran.
func checkSimResult(res *spark.Result, tasks int) error {
	var sum time.Duration
	ran := 0
	for _, st := range res.Stages {
		sum += st.Duration()
		ran += st.Tasks
	}
	switch {
	case res.Total <= 0:
		return errors.New("non-positive total")
	case sum != res.Total:
		return fmt.Errorf("stage durations sum to %v, total %v", sum, res.Total)
	case ran != tasks:
		return fmt.Errorf("%d tasks ran, app plans %d", ran, tasks)
	}
	return nil
}

// simTiming is one traced op's per-layer measurements.
type simTiming struct {
	build, run      time.Duration
	mallocs, allocs uint64
}

func runSimDefault(o options, rec *recorder) (*report, error) {
	rep := newReport()
	var ops []simOp
	for i := 0; i < 9; i++ {
		start := time.Now()
		var err error
		if ops, err = simSetup(o.seed); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	tasksPerPass := 0
	for _, op := range ops {
		tasksPerPass += op.tasks
	}
	rep.notef("grid: %d workloads x %d shapes x 2 seeds = %d serial Build+Run ops, %d simulated tasks per pass",
		len(registryWorkloads), len(simShapes), len(ops), tasksPerPass)

	tr := newTracer(o.trace)
	results := make([]*spark.Result, len(ops))
	errs := make([]error, len(ops))
	timings := make([]simTiming, len(ops))
	var tracedWalls, untracedWalls, gcs []float64
	var prof *cpuProfile
	runPass := func(traced bool) (pass, error) {
		var t *tracer
		if traced {
			t = tr
		}
		before := readMem()
		start := time.Now()
		root := t.begin("pass", 0, 0, 1)
		for i, op := range ops {
			id := t.begin("op "+op.key, root, i+1, 1)
			cfg, err := op.config()
			if err != nil {
				return pass{}, err
			}
			var m0, m1 memSnap
			b := t.begin("workloads.Build", id, i+1, 1)
			t0 := time.Now()
			app := op.workload.Build(cfg)
			t1 := time.Now()
			t.end(b)
			if traced {
				m0 = readMem()
			}
			r := t.begin("spark.Run", id, i+1, 1)
			t2 := time.Now()
			results[i], errs[i] = spark.Run(cfg, app)
			t3 := time.Now()
			t.end(r)
			if traced {
				m1 = readMem()
				timings[i] = simTiming{build: t1.Sub(t0), run: t3.Sub(t2), mallocs: m1.mallocs - m0.mallocs, allocs: m1.alloc - m0.alloc}
			}
			t.end(id)
		}
		t.end(root)
		wall := time.Since(start)
		return pass{wall: wall, ops: len(ops), use: readMem().sub(before)}, nil
	}
	check := func() {
		for i, op := range ops {
			if errs[i] != nil {
				rep.check.op(fmt.Errorf("%s: %w", op.key, errs[i]))
				continue
			}
			err := checkSimResult(results[i], op.tasks)
			if err == nil {
				var d string
				if d, err = digestJSON(results[i]); err == nil {
					err = rec.verify(op.key, d)
				}
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", op.key, err)
			}
			rep.check.op(err)
			results[i] = nil
		}
	}

	var buildPerPass []float64
	perWorkload := map[string][]float64{}
	var sumRun time.Duration
	var sumMallocs, sumAllocs uint64
	var tracedTasks int
	err := rep.timedLoop(o, func(i int) error {
		traced := o.trace && i > 0
		if traced && prof == nil {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
		}
		p, err := runPass(traced)
		if err != nil {
			return err
		}
		check()
		if !traced {
			untracedWalls = append(untracedWalls, p.wall.Seconds())
			if !o.trace {
				rep.passes = append(rep.passes, p)
			}
			return nil
		}
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		gcs = append(gcs, float64(p.use.gc))
		var build time.Duration
		for j, op := range ops {
			tm := timings[j]
			build += tm.build
			sumRun += tm.run
			sumMallocs += tm.mallocs
			sumAllocs += tm.allocs
			tracedTasks += op.tasks
			perWorkload[op.workload.Name] = append(perWorkload[op.workload.Name], ms(tm.run))
		}
		buildPerPass = append(buildPerPass, ms(build))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.notef("passes: %d untraced, %d traced", len(untracedWalls), len(tracedWalls))
	if o.trace {
		shares, err := attributeCPU(prof.stop())
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			rep.layer[k] = v
		}
		for name, v := range perWorkload {
			rep.layer["spark.run_ms."+name] = median(v)
		}
		var tracedWall float64
		for _, w := range tracedWalls {
			tracedWall += w
		}
		rep.layer["spark.ns_per_task"] = float64(sumRun) / float64(tracedTasks)
		rep.layer["spark.allocs_per_task"] = float64(sumMallocs) / float64(tracedTasks)
		rep.layer["spark.bytes_per_task"] = float64(sumAllocs) / float64(tracedTasks)
		rep.layer["spark.tasks_per_s"] = float64(tracedTasks) / tracedWall
		rep.layer["workloads.build_ms"] = median(buildPerPass)
		rep.layer["runtime.gc_cycles"] = median(gcs)
		rep.layer["trace.overhead_pct"] = overheadPct(untracedWalls, tracedWalls)
		rep.spans = tr.all()
	}
	return rep, nil
}
