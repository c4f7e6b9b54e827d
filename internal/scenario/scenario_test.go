package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

// TestConfigDefaults pins that a defaulted spec is exactly the paper's
// testbed: no memory layer, no jitter seed, no stragglers, no faults.
func TestConfigDefaults(t *testing.T) {
	var s Spec
	s.FillDefaults()
	if s.Cluster != (Cluster{Slaves: 10, Cores: 36, HDFS: "ssd", Local: "ssd"}) {
		t.Fatalf("FillDefaults = %+v", s.Cluster)
	}
	got, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := spark.DefaultTestbed(10, 36, disk.NewSSD(), disk.NewSSD())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config() = %+v\nwant %+v", got, want)
	}
}

// TestConfigEveryField checks that each spec field lands in its
// ClusterConfig field and nowhere else.
func TestConfigEveryField(t *testing.T) {
	s := Spec{
		Cluster:    Cluster{Slaves: 4, Cores: 16, HDFS: "pd-standard:2TB", Local: "hdd", HeapGB: 8},
		Seed:       42,
		Stragglers: 0.1,
		Speculate:  true,
		Faults: &Faults{
			TaskFailureProb:         0.02,
			ShuffleFetchFailureProb: 0.03,
			MaxTaskFailures:         5,
			RetryBackoffSeconds:     1.5,
			Seed:                    9,
		},
	}
	got, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := spark.DefaultTestbed(4, 16, cloud.NewDisk(cloud.PDStandard, 2*units.TB), disk.NewHDD())
	want.Memory = spark.MemoryConfig{HeapGB: 8}
	want.Seed = 42
	want.StragglerFraction = 0.1
	want.StragglerSlowdown = StragglerSlowdown
	want.Speculation = true
	want.Faults = spark.FaultConfig{
		TaskFailureProb:         0.02,
		ShuffleFetchFailureProb: 0.03,
		MaxTaskFailures:         5,
		RetryBackoff:            1.5,
		Seed:                    9,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config() = %+v\nwant %+v", got, want)
	}

	fp := s.FaultParams()
	if fp != (core.FaultParams{TaskFailureProb: 0.02, ShuffleFetchFailureProb: 0.03, MaxTaskFailures: 5, RetryBackoff: 1500 * time.Millisecond}) {
		t.Errorf("FaultParams() = %+v", fp)
	}
	if (Spec{}).FaultParams() != (core.FaultParams{}) {
		t.Error("nil Faults must map to zero FaultParams")
	}
}

func TestConfigRejects(t *testing.T) {
	base := Spec{Cluster: Cluster{Slaves: 3, Cores: 8, HDFS: "ssd", Local: "ssd"}}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"unknown hdfs", func(s *Spec) { s.HDFS = "floppy" }, "hdfs: unknown device"},
		{"zero-sized local", func(s *Spec) { s.Local = "pd-ssd:0GB" }, "local: device \"pd-ssd:0GB\": size must be positive"},
		{"no slaves", func(s *Spec) { s.Slaves = 0 }, "Slaves must be positive"},
		{"negative heap", func(s *Spec) { s.HeapGB = -1 }, "HeapGB"},
		{"stragglers", func(s *Spec) { s.Stragglers = 1 }, "StragglerFraction"},
		{"fault prob", func(s *Spec) { s.Faults = &Faults{TaskFailureProb: 1.5} }, "TaskFailureProb"},
	} {
		s := base
		tc.edit(&s)
		if _, err := s.Config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCalibrationRecipes checks that each recipe profiles on its
// Section VI-1 platform.
func TestCalibrationRecipes(t *testing.T) {
	w, err := workloads.Get("sql")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := CalibrateTestbed(4, w.Build)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := CalibrateCloud(w.Build)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cal    *core.Calibration
		slaves int
	}{{"testbed", tb, 4}, {"cloud", cl, CloudCalibrationSlaves}} {
		runs := []*spark.Result{tc.cal.Run1, tc.cal.Run2, tc.cal.Run3, tc.cal.Run4}
		for i, r := range runs {
			if r.Slaves != tc.slaves {
				t.Errorf("%s run %d on %d slaves, want %d", tc.name, i+1, r.Slaves, tc.slaves)
			}
		}
	}
}
