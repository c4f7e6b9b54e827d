package spark

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/disk"
)

// FuzzFaultyCoalesce drives randomized clean and degraded-mode
// configurations — fault rates, straggler fractions, jitter, seeds,
// speculation knobs and cluster shapes — through the default path and the
// DisableCoalescing per-task oracle, asserting the Results (or the
// fatal errors) are deeply equal. This is the tentpole's safety net:
// whatever the coalescing planner decides (coalesce, bail at
// runtime, or fall through to per-task), the outcome must be
// byte-identical.
//
// The seed corpus covers the paper's degraded-measurement regimes:
// fig-13-style task-failure sweeps, fig-14-style fetch-failure /
// recompute runs, and fig-15-style straggler + speculation studies,
// plus a clean run whose map count leaves remainder nodes dirty and a
// degraded run folding both nodes of a 2-slave cluster.
func FuzzFaultyCoalesce(f *testing.F) {
	// slaves, cores, mapTasks, failP, fetchP, stragF, slow, jitter, spec, specMult, seed, fseed
	f.Add(8, 4, 128, 0.01, 0.0, 0.0, 0.0, 0.0, false, 0.0, uint64(42), uint64(7))   // fig-13: task failures
	f.Add(8, 4, 128, 0.005, 0.02, 0.0, 0.0, 0.0, false, 0.0, uint64(42), uint64(3)) // fig-14: fetch failures + recompute
	f.Add(8, 4, 128, 0.0, 0.0, 0.03, 5.0, 0.0, true, 1.5, uint64(42), uint64(0))    // fig-15: stragglers + speculation
	f.Add(6, 2, 120, 0.01, 0.01, 0.02, 4.0, 0.0, true, 2.0, uint64(1), uint64(11))  // everything on
	f.Add(4, 2, 30, 0.02, 0.0, 0.0, 0.0, 0.15, false, 0.0, uint64(9), uint64(5))    // jittered: per-task regime
	f.Add(3, 1, 33, 0.1, 0.05, 0.1, 6.0, 0.0, true, 1.2, uint64(13), uint64(17))    // indivisible counts, high rates
	f.Add(7, 3, 129, 0.0, 0.0, 0.0, 0.0, 0.0, false, 0.0, uint64(42), uint64(0))    // clean 8x4, 130 maps: only the two remainder nodes dirty
	f.Add(1, 1, 63, 0.001, 0.001, 0.0, 0.0, 0.0, true, 2.0, uint64(1), uint64(9))   // degraded on 2 slaves, no draw hits: both nodes fold
	f.Fuzz(func(t *testing.T, slaves, cores, mapTasks int,
		failP, fetchP, stragF, slow, jitter float64,
		spec bool, specMult float64, seed, fseed uint64) {
		mod := func(v, lo, hi int) int {
			if v < 0 {
				v = -v
			}
			if v < 0 { // math.MinInt
				v = 0
			}
			return lo + v%(hi-lo+1)
		}
		frac := func(v, hi float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return 0
			}
			return math.Mod(v, hi)
		}
		slaves = mod(slaves, 1, 10)
		cores = mod(cores, 1, 4)
		mapTasks = mod(mapTasks, 1, 160)

		ssd := disk.NewSSD()
		cfg := DefaultTestbed(slaves, cores, ssd, ssd)
		cfg.Seed = seed
		cfg.ComputeJitter = frac(jitter, 0.3)
		cfg.Speculation = spec
		cfg.SpeculationMultiplier = frac(specMult, 4)
		cfg.StragglerFraction = frac(stragF, 0.15)
		cfg.StragglerSlowdown = 1 + frac(slow, 8)
		cfg.Faults = FaultConfig{
			TaskFailureProb:         frac(failP, 0.12),
			ShuffleFetchFailureProb: frac(fetchP, 0.12),
			RetryBackoff:            0.05,
			Seed:                    fseed,
		}
		if err := cfg.Validate(); err != nil {
			t.Skipf("config rejected: %v", err)
		}
		app := scaleAppSized(slaves, cores, mapTasks)

		got, gotErr := Run(cfg, app)
		ref := cfg
		ref.DisableCoalescing = true
		want, wantErr := Run(ref, app)

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: default path %v, per-task %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("errors diverge:\n got %#v\nwant %#v", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("default path diverges from per-task replay:\n got %+v\nwant %+v", got, want)
		}
	})
}
