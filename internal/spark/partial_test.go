package spark

import (
	"reflect"
	"testing"

	"repro/internal/disk"
)

// degradedConfigs returns representative degraded-mode configurations
// (faults, speculation, stragglers, and combinations) on a small
// cluster, for identity checks against the per-task oracle.
func degradedConfigs() map[string]ClusterConfig {
	ssd := disk.NewSSD()
	base := func() ClusterConfig {
		cfg := DefaultTestbed(8, 4, ssd, ssd)
		cfg.ComputeJitter = 0
		cfg.Seed = 42
		return cfg
	}
	cfgs := map[string]ClusterConfig{}

	c := base()
	c.Faults = FaultConfig{TaskFailureProb: 0.01, Seed: 7, RetryBackoff: 0.05}
	cfgs["faults"] = c

	c = base()
	c.Faults = FaultConfig{TaskFailureProb: 0.005, ShuffleFetchFailureProb: 0.02, Seed: 3, RetryBackoff: 0.05}
	cfgs["fetch"] = c

	c = base()
	c.Speculation = true
	c.StragglerFraction = 0.03
	c.StragglerSlowdown = 5
	cfgs["stragglers"] = c

	c = base()
	c.Speculation = true
	c.StragglerFraction = 0.02
	c.StragglerSlowdown = 4
	c.Faults = FaultConfig{TaskFailureProb: 0.01, ShuffleFetchFailureProb: 0.01, Seed: 11, RetryBackoff: 0.05}
	cfgs["all"] = c

	c = base()
	c.Faults = FaultConfig{TaskFailureProb: 0.02, Seed: 5, RetryBackoff: 0.05, BlacklistThreshold: 2}
	cfgs["blacklist"] = c

	return cfgs
}

// TestPartialMatchesPerTask pins the tentpole guarantee: on degraded
// runs the default path (coalescing where the plan allows,
// bail-to-per-task otherwise) returns a Result deeply equal to the
// DisableCoalescing per-task replay.
func TestPartialMatchesPerTask(t *testing.T) {
	app := scaleAppSized(8, 4, 128)
	for name, cfg := range degradedConfigs() {
		t.Run(name, func(t *testing.T) {
			got, err := Run(cfg, app)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			ref := cfg
			ref.DisableCoalescing = true
			want, err := Run(ref, app)
			if err != nil {
				t.Fatalf("per-task Run: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("partial path diverges from per-task replay:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestPartialPlanCoalesces asserts the benchmark configuration really
// takes the coalesced path (the perf win is meaningless if the plan
// silently degrades to per-task) and that its plan leaves a large
// clean cohort; and that a clean run with task counts Slaves does not
// divide dirties only the nodes running the remainder tasks.
func TestPartialPlanCoalesces(t *testing.T) {
	cfg, app := faultScaleConfig()
	dirty, clean := planCoalescing(cfg, app)
	if clean == 0 {
		t.Fatal("benchmark config does not coalesce")
	}
	if dirtyCount := cfg.Slaves - clean; dirtyCount == 0 {
		t.Fatal("plan drew zero dirty nodes; the benchmark would not exercise the fault path")
	} else if dirtyCount > cfg.Slaves/2 {
		t.Fatalf("plan drew %d/%d dirty nodes; the clean cohort is too small for the benchmark to demonstrate coalescing", dirtyCount, cfg.Slaves)
	}
	r := newRunner(cfg, app, false)
	if r.rep == nil || dirty[r.rep.id] {
		t.Fatal("runner did not pick a clean representative")
	}
	res, err, bailed := r.runSafe()
	if err != nil {
		t.Fatalf("coalesced run: %v", err)
	}
	if bailed {
		t.Fatal("coalesced run bailed to per-task; the benchmark measures the slow path")
	}
	if res.Faults.TaskFailures == 0 {
		t.Fatal("coalesced run injected no failures; the benchmark would not exercise recovery")
	}

	// Fault-free at jitter 0: 130 maps on 8 slaves put the two remainder
	// tasks on nodes 0 and 1, and the second stage's 32 reducers divide
	// evenly.
	ssd := disk.NewSSD()
	cfg = DefaultTestbed(8, 4, ssd, ssd)
	cfg.ComputeJitter = 0
	uneven := scaleAppSized(8, 4, 130)
	// Two groups in one stage: the second group's remainder starts at
	// the first group's task count (9 on 8 slaves -> node 1).
	twoGroups := scaleAppSized(8, 4, 9)
	twoGroups.Stages[0].Groups = append(twoGroups.Stages[0].Groups, twoGroups.Stages[0].Groups[0])
	for name, tc := range map[string]struct {
		app  App
		want []bool
	}{
		"uneven":    {uneven, []bool{true, true, false, false, false, false, false, false}},
		"twoGroups": {twoGroups, []bool{true, true, false, false, false, false, false, false}},
	} {
		dirty, clean := planCoalescing(cfg, tc.app)
		if !reflect.DeepEqual(dirty, tc.want) || clean != 6 {
			t.Fatalf("%s: plan = %v (%d clean), want the remainder nodes %v dirty", name, dirty, clean, tc.want)
		}
		got, err, bailed := newRunner(cfg, tc.app, false).runSafe()
		if err != nil || bailed {
			t.Fatalf("%s: coalesced run: err %v, bailed %v", name, err, bailed)
		}
		want, err := newRunner(cfg, tc.app, true).run()
		if err != nil {
			t.Fatalf("%s: per-task run: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: coalesced run diverges from per-task replay:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestFaultScalePartialIdentity is the at-scale identity gate: the
// benchmark configuration (64 nodes x 32 cores, ~100k tasks, faults +
// speculation + stragglers) must produce byte-identical Results on
// both paths.
func TestFaultScalePartialIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("at-scale per-task replay is slow; run without -short")
	}
	cfg, app := faultScaleConfig()
	got, err := Run(cfg, app)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := cfg
	ref.DisableCoalescing = true
	want, err := Run(ref, app)
	if err != nil {
		t.Fatalf("per-task Run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial path diverges from per-task replay at scale:\n got %+v\nwant %+v", got, want)
	}
}
