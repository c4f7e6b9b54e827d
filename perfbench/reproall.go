package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// warmupArtifacts are the artifacts that need no calibration: running
// them in set-up faults in code and heap but leaves the calibration
// cache cold, so every RunAll pass still calibrates in its timed phase.
var warmupArtifacts = []string{"tab4", "tab5", "fig5", "fig6"}

// reproSetup runs the warm-up artifacts and checks they left the
// calibration cache untouched.
func reproSetup(tr *tracer) error {
	id := tr.begin("experiments.RunSet warm-up", 0, 0, 1)
	reports, err := experiments.RunSet(context.Background(), warmupArtifacts, experiments.Options{Parallel: 2})
	tr.end(id)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if r.Err != nil {
			return fmt.Errorf("warm-up %s: %w", r.ID, r.Err)
		}
		if r.CacheHits+r.CacheMisses > 0 {
			return fmt.Errorf("warm-up %s used the calibration cache", r.ID)
		}
	}
	return nil
}

// reproPass is one cold child process: set up three times, then one
// experiments.RunAll with two workers, the library form of
// `doppio run -parallel 2 all`.
func reproPass(o options, rec *recorder) (*childResult, error) {
	tr := newTracer(o.trace)
	res := &childResult{Layer: map[string]float64{}}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := reproSetup(tr); err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(start))
	}
	var prof *cpuProfile
	if o.trace {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	before := readMem()
	id := tr.begin("experiments.RunAll", 0, 0, 1)
	start := time.Now()
	reports := experiments.RunAll(context.Background(), experiments.Options{Parallel: 2})
	res.Wall = time.Since(start)
	tr.end(id)
	used := readMem().sub(before)
	res.Alloc, res.CPU, res.Steal = used.alloc, used.cpu, used.steal
	res.Ops = len(reports)
	if prof != nil {
		shares, err := attributeCPU(prof.stop())
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			res.Layer[k] = v
		}
	}
	var chk checker
	var busy time.Duration
	for _, r := range reports {
		busy += r.Runtime
		res.Layer["experiments.artifact_ms."+r.ID] = ms(r.Runtime)
		chk.op(checkArtifact(rec, r))
	}
	res.Layer["experiments.pool_speedup"] = busy.Seconds() / res.Wall.Seconds()
	res.Attempted, res.Failed, res.Errs = chk.attempted, chk.failed, chk.errs
	res.Spans = tr.all()
	return res, nil
}

// checkArtifact verifies one artifact's CSV rendering, which carries no
// timing, against its recorded digest.
func checkArtifact(rec *recorder, r experiments.Report) error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", r.ID, r.Err)
	}
	if r.Table == nil || len(r.Table.Rows) == 0 {
		return fmt.Errorf("%s: empty table", r.ID)
	}
	var b bytes.Buffer
	if err := r.Table.WriteCSV(&b); err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	if err := rec.verify(r.ID, digest(b.Bytes())); err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	return nil
}

func runReproAll(o options, rec *recorder) (*report, error) {
	rep := newReport()
	rep.notef("artifacts resilience and memvolume run the jitter-0 coalescing paths; the rest run the default testbed")
	var untracedWalls, tracedWalls []float64
	layers := map[string][]float64{}
	tidBase := 0
	err := rep.timedLoop(o, func(i int) error {
		traced := o.trace && i > 0
		res, err := spawnChild(o, "repro-pass", traced)
		if err != nil {
			return err
		}
		rec.mergeChild(rep, res)
		rep.setups = append(rep.setups, res.Setups...)
		if !traced {
			untracedWalls = append(untracedWalls, res.Wall.Seconds())
			if !o.trace {
				rep.passes = append(rep.passes, pass{wall: res.Wall, ops: res.Ops, use: memSnap{alloc: res.Alloc, cpu: res.CPU, steal: res.Steal}})
			}
			return nil
		}
		tracedWalls = append(tracedWalls, res.Wall.Seconds())
		for k, v := range res.Layer {
			layers[k] = append(layers[k], v)
		}
		tidBase += 10
		for _, s := range res.Spans {
			s.TID += tidBase
			rep.spans = append(rep.spans, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.notef("passes: %d untraced, %d traced, each a cold child process", len(untracedWalls), len(tracedWalls))
	for k, v := range layers {
		rep.layer[k] = median(v)
	}
	if o.trace {
		rep.layer["trace.overhead_pct"] = overheadPct(untracedWalls, tracedWalls)
	}
	return rep, nil
}
