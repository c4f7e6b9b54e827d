package workloads

// Registry-wide golden equivalence for wave coalescing: every workload,
// run on a homogeneous cluster, must produce a byte-identical
// spark.Result whether the simulator takes the coalesced
// (representative-node) path or the per-task path. This is the contract
// that lets the perf optimisation exist at all — see docs/PERF.md.

import (
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/spark"
)

// homogeneousConfig is the paper testbed with every per-task
// heterogeneity source disabled, which is what makes a run eligible for
// coalescing in the first place.
func homogeneousConfig(slaves, cores int, hdfs, local disk.Device) spark.ClusterConfig {
	cfg := spark.DefaultTestbed(slaves, cores, hdfs, local)
	cfg.ComputeJitter = 0
	return cfg
}

func runBothPaths(t *testing.T, cfg spark.ClusterConfig, app spark.App) (coalesced, perTask *spark.Result) {
	t.Helper()
	coalesced, err := spark.Run(cfg, app)
	if err != nil {
		t.Fatalf("coalesced run: %v", err)
	}
	cfg.DisableCoalescing = true
	perTask, err = spark.Run(cfg, app)
	if err != nil {
		t.Fatalf("per-task run: %v", err)
	}
	return coalesced, perTask
}

// TestCoalescingGoldenRegistry runs every registered workload through
// both simulation paths on clusters where the registry's task counts
// divide evenly at many stages and on an odd node count that leaves
// remainder tasks in many groups (their home nodes are simulated
// individually beside the representative), and requires identical
// Results.
func TestCoalescingGoldenRegistry(t *testing.T) {
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	shapes := []struct {
		name          string
		slaves, cores int
		hdfs, local   disk.Device
	}{
		{"4xSSD", 4, 8, ssd, ssd},
		{"4xHDD", 4, 8, hdd, hdd},
		{"8xHybrid", 8, 4, ssd, hdd},
		{"3xSSD", 3, 8, ssd, ssd}, // odd node count: remainder nodes run individually
	}
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			t.Run(name+"/"+sh.name, func(t *testing.T) {
				cfg := homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)
				app := w.Build(cfg)
				a, b := runBothPaths(t, cfg, app)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("coalesced and per-task Results differ for %s on %s:\ncoalesced: %+v\nper-task:  %+v",
						name, sh.name, a, b)
				}
			})
		}
	}
}

// TestCoalescingGoldenJitterFallback checks the other side of the
// contract: with compute jitter on (the registry's default), both calls
// must take the per-task path and still agree — DisableCoalescing is a
// no-op when the run was never eligible.
func TestCoalescingGoldenJitterFallback(t *testing.T) {
	ssd := disk.NewSSD()
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			cfg := spark.DefaultTestbed(4, 8, ssd, ssd) // jitter 0.15 default
			app := w.Build(cfg)
			a, b := runBothPaths(t, cfg, app)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("per-task path is not deterministic for %s", name)
			}
		})
	}
}
