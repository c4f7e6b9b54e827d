// Package scenario is the one declarative description of the platform a
// Doppio question is asked of: N slaves with P executor cores each, the
// HDFS and Spark Local devices behind Eq. 1's BW_HDFS and BW_Local, and
// this reproduction's executor heap, jitter seed, stragglers,
// speculation and injected faults. The doppio CLI flags, the serve API
// request bodies and campaign points all fill a Spec, and Spec.Config is
// the only code that turns one into a spark.ClusterConfig. The paper's
// Section VI-1 calibration recipes live here too, so every surface fits
// the model on the same sample-run platforms.
package scenario

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
)

// Defaults every surface falls back to: the paper's ten-slave,
// 36-core evaluation cluster on SSDs.
const (
	DefaultSlaves = 10
	DefaultCores  = 36
	DefaultDevice = "ssd"
)

// StragglerSlowdown is the compute multiplier applied to straggler
// tasks whenever Spec.Stragglers is positive.
const StragglerSlowdown = 5

// Cluster is the platform shape. Devices use cloud.ParseDevice's
// vocabulary ("hdd", "ssd", "pd-standard:2TB", "pd-ssd:500GB").
type Cluster struct {
	Slaves int    `json:"slaves"`
	Cores  int    `json:"cores"`
	HDFS   string `json:"hdfs"`
	Local  string `json:"local"`
	// HeapGB provisions per-node executor memory, enabling the memory
	// layer (spill + GC) in simulations and the t_mem_limit term in
	// predictions. Zero keeps the legacy memory-free behaviour, and
	// omitempty keeps the JSON of memory-free specs unchanged.
	HeapGB float64 `json:"heap_gb,omitempty"`
}

// FillDefaults replaces every zero-valued shape field with its default.
func (c *Cluster) FillDefaults() {
	if c.Slaves == 0 {
		c.Slaves = DefaultSlaves
	}
	if c.Cores == 0 {
		c.Cores = DefaultCores
	}
	if c.HDFS == "" {
		c.HDFS = DefaultDevice
	}
	if c.Local == "" {
		c.Local = DefaultDevice
	}
}

// Faults is the fault-injection block, mirroring spark.FaultConfig for
// the simulator and core.FaultParams for the model.
type Faults struct {
	TaskFailureProb         float64 `json:"task_failure_prob,omitempty"`
	ShuffleFetchFailureProb float64 `json:"shuffle_fetch_failure_prob,omitempty"`
	MaxTaskFailures         int     `json:"max_task_failures,omitempty"`
	RetryBackoffSeconds     float64 `json:"retry_backoff_seconds,omitempty"`
	Seed                    uint64  `json:"seed,omitempty"`
}

func (f *Faults) config() spark.FaultConfig {
	if f == nil {
		return spark.FaultConfig{}
	}
	return spark.FaultConfig{
		TaskFailureProb:         f.TaskFailureProb,
		ShuffleFetchFailureProb: f.ShuffleFetchFailureProb,
		MaxTaskFailures:         f.MaxTaskFailures,
		RetryBackoff:            spark.DurationParam(f.RetryBackoffSeconds),
		Seed:                    f.Seed,
	}
}

// Spec is one complete scenario. A nil Faults disables fault injection.
type Spec struct {
	Cluster
	Seed       uint64  `json:"seed,omitempty"`
	Stragglers float64 `json:"stragglers,omitempty"`
	Speculate  bool    `json:"speculate,omitempty"`
	Faults     *Faults `json:"faults,omitempty"`
}

// Config builds the simulator configuration: the paper's testbed
// defaults (spark.DefaultTestbed) with the spec's shape, devices, heap,
// seed, stragglers, speculation and faults applied, validated so bad
// input fails here rather than inside spark.Run. Devices are parsed on
// every call because device state is not shareable across runs.
func (s Spec) Config() (spark.ClusterConfig, error) {
	hd, err := cloud.ParseDevice(s.HDFS)
	if err != nil {
		return spark.ClusterConfig{}, fmt.Errorf("hdfs: %w", err)
	}
	ld, err := cloud.ParseDevice(s.Local)
	if err != nil {
		return spark.ClusterConfig{}, fmt.Errorf("local: %w", err)
	}
	cfg := spark.DefaultTestbed(s.Slaves, s.Cores, hd, ld)
	cfg.Memory = spark.MemoryConfig{HeapGB: s.HeapGB}
	cfg.Seed = s.Seed
	if s.Stragglers > 0 {
		cfg.StragglerFraction = s.Stragglers
		cfg.StragglerSlowdown = StragglerSlowdown
	}
	cfg.Speculation = s.Speculate
	cfg.Faults = s.Faults.config()
	if err := cfg.Validate(); err != nil {
		return spark.ClusterConfig{}, err
	}
	return cfg, nil
}

// FaultParams returns the spec's faults as the model's
// core.PredictFaulty parameters.
func (s Spec) FaultParams() core.FaultParams {
	return core.FaultsFor(s.Faults.config())
}

// CloudCalibrationSlaves is the cluster size of the cloud calibration
// recipe (Section VI-1 profiles on three slaves).
const CloudCalibrationSlaves = 3

// CalibrateTestbed fits the model on the paper's physical testbed
// devices (Section VI-1): the four sample runs use an SSD base and an
// HDD probe at the target slave count, because RDD cache-or-persist
// decisions depend on cluster memory and the fitted δ constants must
// live at the target scale.
func CalibrateTestbed(slaves int, build func(spark.ClusterConfig) spark.App) (*core.Calibration, error) {
	ssd, hdd := disk.NewSSD(), disk.NewHDD()
	return core.Calibrate(spark.DefaultTestbed(slaves, 1, ssd, ssd), ssd, hdd, build)
}

// CalibrateCloud fits the model on Google Cloud virtual disks (Section
// VI-1): a 500 GB pd-ssd base and a 200 GB pd-standard probe on
// CloudCalibrationSlaves slaves.
func CalibrateCloud(build func(spark.ClusterConfig) spark.App) (*core.Calibration, error) {
	ssd := cloud.NewDisk(cloud.PDSSD, 500*units.GB)
	hdd := cloud.NewDisk(cloud.PDStandard, 200*units.GB)
	return core.Calibrate(spark.DefaultTestbed(CloudCalibrationSlaves, 1, ssd, ssd), ssd, hdd, build)
}
