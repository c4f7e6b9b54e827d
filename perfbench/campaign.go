package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// campaignWorkloads are the registry workloads the study sweeps; the two
// heaviest (lr-large, gatk4-full) are left to sim-default so a study
// pass stays a few seconds.
var campaignWorkloads = []string{"gatk4", "lr-small", "pagerank", "sql", "svm", "terasort", "trianglecount"}

// pointClasses split the study's points by the spark layers they
// actually used: spill or GC for the memory layer, retries for the fetch
// failure layer. lr-small and pagerank read no shuffle data, so their
// fetch-failure points see no failures and count as plain or spill.
var pointClasses = []string{"plain", "spill", "fetchfail", "mixed"}

func pointClass(r campaign.PointResult) string {
	mem := r.SpilledTasks > 0 || r.GCPauses > 0
	switch {
	case mem && r.Retries > 0:
		return "mixed"
	case mem:
		return "spill"
	case r.Retries > 0:
		return "fetchfail"
	}
	return "plain"
}

// studyHeapGB is the study's heap-on executor heap per node. At 1 GB
// every study workload spills and pauses for GC at both node counts;
// at 8 GB only terasort did.
const studyHeapGB = 1

// campaignConfig is the model-mode study: every point simulates on the
// default testbed and predicts with the calibrated model.
func campaignConfig(seed uint64) (campaign.Config, error) {
	js := fmt.Sprintf(`{
  "name": "perfbench-stress",
  "mode": "model",
  "base": {"seed": %d, "max_task_failures": 8},
  "axes": {
    "workloads": ["gatk4", "lr-small", "pagerank", "sql", "svm", "terasort", "trianglecount"],
    "nodes": [4, 10],
    "devices": ["hdd", "ssd"],
    "heap_gbs": [0, %d],
    "fetch_fail_probs": [0, 0.02]
  },
  "parallel": 2
}`, splitmix(seed, 3)%1000000, studyHeapGB)
	return campaign.ParseConfig([]byte(js))
}

// campaignSetup parses the study and calibrates every workload's model
// on two workers, returning the summed calibration time.
func campaignSetup(seed uint64, tr *tracer) (campaign.Config, time.Duration, error) {
	cfg, err := campaignConfig(seed)
	if err != nil {
		return cfg, 0, err
	}
	var mu sync.Mutex
	var total time.Duration
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for name := range next {
				id := tr.begin("experiments.SharedTestbedCalibration "+name, 0, 0, tid)
				start := time.Now()
				_, err := experiments.SharedTestbedCalibration(context.Background(), name)
				d := time.Since(start)
				tr.end(id)
				mu.Lock()
				total += d
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(w + 1)
	}
	for _, name := range campaignWorkloads {
		next <- name
	}
	close(next)
	wg.Wait()
	return cfg, total, firstErr
}

// checkPoint applies the structural checks every seed gets.
func checkPoint(p campaign.Point, r campaign.PointResult) error {
	switch {
	case r.TotalSeconds <= 0 || r.CoreSeconds <= 0:
		return errors.New("non-positive simulated time")
	case r.Tasks <= 0:
		return errors.New("no tasks")
	case r.PredictedSeconds <= 0 || math.IsNaN(r.ModelErrPct) || math.IsInf(r.ModelErrPct, 0):
		return errors.New("no model prediction")
	case p.HeapGB == 0 && (r.SpilledTasks != 0 || r.GCPauses != 0):
		return errors.New("memory activity with the memory layer off")
	case p.HeapGB > 0 && r.SpilledTasks == 0:
		return fmt.Errorf("no spill at a %g GB heap", p.HeapGB)
	case p.FetchFailProb == 0 && (r.Retries != 0 || r.Recomputes != 0):
		return errors.New("fault recovery with faults off")
	}
	return nil
}

// studyStats are the work counts of one study pass.
type studyStats struct {
	spilled, gcPauses, retries, recomputes int
	tasks                                  int
	absErr                                 []float64
	classes                                map[string]int // points per class
}

func (s *studyStats) add(r campaign.PointResult) {
	s.spilled += r.SpilledTasks
	s.gcPauses += r.GCPauses
	s.retries += r.Retries
	s.recomputes += r.Recomputes
	s.tasks += r.Tasks
	s.absErr = append(s.absErr, math.Abs(r.ModelErrPct))
	if s.classes == nil {
		s.classes = map[string]int{}
	}
	s.classes[pointClass(r)]++
}

// coverage fails a study pass in which some point class is empty: the
// memory or fetch-failure layer then went unexercised.
func (s *studyStats) coverage() error {
	for _, c := range pointClasses {
		if s.classes[c] == 0 {
			return fmt.Errorf("study pass has no %s points (classes %v)", c, s.classes)
		}
	}
	return nil
}

func runCampaign(o options, rec *recorder) (*report, error) {
	rep := newReport()
	// The calibration cache is process-global, so each further set-up
	// sample runs in a fresh child process.
	for i := 0; i < 2; i++ {
		res, err := spawnChild(o, "campaign-setup", false)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, res.Setups...)
	}
	tr := newTracer(o.trace)
	start := time.Now()
	cfg, calib, err := campaignSetup(o.seed, tr)
	if err != nil {
		return nil, err
	}
	rep.setups = append(rep.setups, time.Since(start))
	rep.layer["core.calibrate_ms"] = ms(calib)
	points := cfg.Points()
	rep.notef("study: %d points (%d workloads x nodes {4,10} x devices {hdd,ssd} x heap_gbs {0,%d} x fetch_fail_probs {0,0.02}), mode model, 2 workers",
		len(points), len(campaignWorkloads), studyHeapGB)

	var stats studyStats
	var untracedWalls, tracedWalls, overheads []float64
	classMS := map[string][]float64{}
	var prof *cpuProfile
	err = rep.timedLoop(o, func(i int) error {
		traced := o.trace && i > 0
		var t *tracer
		if traced {
			t = tr
			if prof == nil {
				var err error
				if prof, err = startCPUProfile(); err != nil {
					return err
				}
			}
		}
		dir := filepath.Join(o.outDir, fmt.Sprintf("campaign-%d-%d", os.Getpid(), i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "checkpoint.jsonl")
		before := readMem()
		id := t.begin("campaign.Run", 0, 0, 1)
		t0 := time.Now()
		sum, err := campaign.Run(context.Background(), cfg, campaign.RunOptions{CheckpointPath: path, Parallel: 2})
		wall := time.Since(t0)
		t.end(id)
		delta := readMem().sub(before)
		if err != nil {
			return fmt.Errorf("campaign.Run: %w", err)
		}
		if sum.Executed != len(points) || sum.Failed != 0 {
			return fmt.Errorf("campaign.Run executed %d of %d points, %d failed", sum.Executed, len(points), sum.Failed)
		}
		cp, err := campaign.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		byIndex := make(map[int]campaign.Record, len(cp.Records))
		for _, r := range cp.Records {
			byIndex[r.Index] = r
		}
		stats = studyStats{}
		for _, p := range points {
			r, ok := byIndex[p.Index]
			switch {
			case !ok:
				rep.check.op(fmt.Errorf("%s: missing from checkpoint", p.Name()))
				continue
			case r.Error != "":
				rep.check.op(fmt.Errorf("%s: %s", p.Name(), r.Error))
				continue
			}
			stats.add(r.Result)
			rep.check.op(verifyPoint(rec, p, r.Result))
		}
		rep.check.op(stats.coverage())
		if !traced {
			untracedWalls = append(untracedWalls, wall.Seconds())
			if !o.trace {
				rep.passes = append(rep.passes, pass{wall: wall, ops: len(points), use: delta})
			}
			return nil
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		direct := drivePoints(cfg, points, t, rec, rep, classMS)
		overheads = append(overheads, ms(wall-direct))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.notef("points per class (by what they did): plain %d, spill %d, fetchfail %d, mixed %d",
		stats.classes["plain"], stats.classes["spill"], stats.classes["fetchfail"], stats.classes["mixed"])
	rep.notef("passes: %d untraced, %d traced; study model error |model-sim|/sim p50 %.2f%% p90 %.2f%% over %d points",
		len(untracedWalls), len(tracedWalls), percentile(stats.absErr, 0.5), percentile(stats.absErr, 0.9), len(stats.absErr))
	if o.trace {
		shares, err := attributeCPU(prof.stop())
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			rep.layer[k] = v
		}
		for c, v := range classMS {
			rep.layer["campaign.point_ms."+c] = median(v)
		}
		var tracedWall float64
		for _, w := range tracedWalls {
			tracedWall += w
		}
		rep.layer["campaign.runner_overhead_ms"] = median(overheads)
		rep.layer["spark.tasks_per_s"] = float64(stats.tasks*len(tracedWalls)) / tracedWall
		rep.layer["spark.spilled_tasks"] = float64(stats.spilled)
		rep.layer["spark.gc_pauses"] = float64(stats.gcPauses)
		rep.layer["spark.retries"] = float64(stats.retries)
		rep.layer["spark.recomputes"] = float64(stats.recomputes)
		rep.layer["core.model_err_p50_pct"] = percentile(stats.absErr, 0.5)
		rep.layer["core.model_err_p90_pct"] = percentile(stats.absErr, 0.9)
		rep.layer["trace.overhead_pct"] = overheadPct(untracedWalls, tracedWalls)
		rep.spans = tr.all()
	}
	return rep, nil
}

// verifyPoint checks one point's result structurally and against its
// recorded digest.
func verifyPoint(rec *recorder, p campaign.Point, r campaign.PointResult) error {
	err := checkPoint(p, r)
	if err == nil {
		var d string
		if d, err = digestJSON(r); err == nil {
			err = rec.verify(p.Name(), d)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), err)
	}
	return nil
}

// drivePoints evaluates the study's points through campaign.EvaluatePoint
// on two workers, as campaign.Run does but without its checkpointing,
// and records each point's time under its class. It returns the wall
// time.
func drivePoints(cfg campaign.Config, points []campaign.Point, t *tracer, rec *recorder, rep *report, classMS map[string][]float64) time.Duration {
	type outcome struct {
		res campaign.PointResult
		err error
		d   time.Duration
	}
	out := make([]outcome, len(points))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range next {
				id := t.begin("campaign.EvaluatePoint "+points[i].Name(), 0, points[i].Index+1, tid)
				t0 := time.Now()
				res, err := campaign.EvaluatePoint(context.Background(), cfg, points[i])
				out[i] = outcome{res, err, time.Since(t0)}
				t.end(id)
			}
		}(w + 2)
	}
	for i := range points {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	for i, p := range points {
		if out[i].err != nil {
			rep.check.op(fmt.Errorf("%s: %w", p.Name(), out[i].err))
			continue
		}
		rep.check.op(verifyPoint(rec, p, out[i].res))
		c := pointClass(out[i].res)
		classMS[c] = append(classMS[c], ms(out[i].d))
	}
	return wall
}
