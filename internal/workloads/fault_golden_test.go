package workloads

// Registry-wide golden equivalence for partial (clean-node)
// coalescing: every workload, run with degraded-mode machinery enabled
// — fault injection, speculation, stragglers — must produce a
// byte-identical spark.Result whether the simulator takes its default
// path (coalescing where the pre-drawn plan allows, with
// runtime bail-out) or the DisableCoalescing per-task replay. Together
// with FuzzFaultyCoalesce in internal/spark this is the acceptance
// gate for the degraded-mode fast path — see docs/PERF.md.

import (
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/spark"
)

// faultProfiles are representative degraded configurations applied on
// top of a homogeneous cluster: the regimes of the paper's failure,
// fetch-failure and straggler measurements.
func faultProfiles() map[string]func(cfg *spark.ClusterConfig) {
	return map[string]func(cfg *spark.ClusterConfig){
		"faults": func(cfg *spark.ClusterConfig) {
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.004, Seed: 7, RetryBackoff: 0.05}
		},
		"fetch": func(cfg *spark.ClusterConfig) {
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.002, ShuffleFetchFailureProb: 0.01, Seed: 3, RetryBackoff: 0.05}
		},
		"stragglers": func(cfg *spark.ClusterConfig) {
			cfg.Speculation = true
			cfg.StragglerFraction = 0.01
			cfg.StragglerSlowdown = 4
		},
		"all": func(cfg *spark.ClusterConfig) {
			cfg.Speculation = true
			cfg.StragglerFraction = 0.008
			cfg.StragglerSlowdown = 4
			cfg.Faults = spark.FaultConfig{TaskFailureProb: 0.003, ShuffleFetchFailureProb: 0.005, Seed: 11, RetryBackoff: 0.05}
		},
	}
}

// TestFaultyCoalescingGoldenRegistry runs every registered workload
// under every fault profile on shapes with divisible task counts and on
// an odd node count whose remainder nodes are dirty as well, and
// requires identical Results from both paths.
func TestFaultyCoalescingGoldenRegistry(t *testing.T) {
	hdd, ssd := disk.NewHDD(), disk.NewSSD()
	shapes := []struct {
		name          string
		slaves, cores int
		hdfs, local   disk.Device
	}{
		{"8xSSD", 8, 4, ssd, ssd},
		{"4xHDD", 4, 8, hdd, hdd},
		{"3xSSD", 3, 8, ssd, ssd}, // odd node count: remainder nodes dirty on top of the fault taint
	}
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for prof, apply := range faultProfiles() {
				t.Run(name+"/"+sh.name+"/"+prof, func(t *testing.T) {
					cfg := homogeneousConfig(sh.slaves, sh.cores, sh.hdfs, sh.local)
					apply(&cfg)
					app := w.Build(cfg)
					a, b := runBothPaths(t, cfg, app)
					if !reflect.DeepEqual(a, b) {
						t.Errorf("default and per-task Results differ for %s on %s under %s:\ndefault:  %+v\nper-task: %+v",
							name, sh.name, prof, a, b)
					}
				})
			}
		}
	}
}
