// Command gatk4sim runs the GATK4 whole-genome pipeline on a simulated
// Spark cluster — the domain binary for the paper's motivating workload.
//
// Usage:
//
//	gatk4sim [-slaves N] [-cores P] [-hdfs DEV] [-local DEV]
//	         [-readpairs M] [-iostat] [-blocked] [-predict]
//
// Devices: hdd, ssd, pd-standard:SIZE, pd-ssd:SIZE.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/spark"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	var spec scenario.Spec
	flag.IntVar(&spec.Slaves, "slaves", 3, "worker node count N")
	flag.IntVar(&spec.Cores, "cores", scenario.DefaultCores, "executor cores per node P")
	flag.StringVar(&spec.HDFS, "hdfs", scenario.DefaultDevice, "HDFS device")
	flag.StringVar(&spec.Local, "local", scenario.DefaultDevice, "Spark Local device")
	readPairs := flag.Int("readpairs", 500, "input size in millions of read pairs (500 = the paper's genome)")
	iostat := flag.Bool("iostat", false, "print per-stage iostat report")
	blocked := flag.Bool("blocked", false, "print blocked-time analysis")
	predict := flag.Bool("predict", false, "calibrate the Doppio model and compare")
	flag.Parse()

	cfg, err := spec.Config()
	if err != nil {
		fatal(err)
	}

	// Scale the genome linearly with read pairs: the paper's 500M pairs
	// correspond to 122 GB in / 334 GB shuffle / 166 GB out.
	params := workloads.DefaultGATK4Params()
	scale := float64(*readPairs) / 500.0
	params.InputBAM = units.ByteSize(scale * float64(params.InputBAM))
	params.ShuffleBytes = units.ByteSize(scale * float64(params.ShuffleBytes))
	params.OutputBAM = units.ByteSize(scale * float64(params.OutputBAM))

	res, err := spark.Run(cfg, params.Build(cfg))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# GATK4, %dM read pairs (%v in, %v shuffle, %v out)\n",
		*readPairs, params.InputBAM, params.ShuffleBytes, params.OutputBAM)
	if _, err := res.WriteTo(os.Stdout); err != nil {
		fatal(err)
	}

	if *iostat {
		fmt.Println()
		if err := profile.WriteIostat(os.Stdout, profile.Iostat(res)); err != nil {
			fatal(err)
		}
	}
	if *blocked {
		fmt.Println()
		if err := profile.WriteBlockedTime(os.Stdout, profile.BlockedTimeAnalysis(res)); err != nil {
			fatal(err)
		}
	}
	if *predict {
		fmt.Println("\n# calibrating Doppio model (4 sample runs)...")
		cal, err := scenario.CalibrateTestbed(spec.Slaves, params.Build)
		if err != nil {
			fatal(err)
		}
		pred, err := cal.Model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %10s %10s %8s %s\n", "stage", "exp(min)", "model(min)", "err", "bottleneck")
		for i, s := range res.Stages {
			p := pred.Stages[i]
			fmt.Printf("%-6s %10.1f %10.1f %7.1f%% %s\n", s.Name,
				s.Duration().Minutes(), p.T.Minutes(),
				core.ErrorRate(p.T, s.Duration())*100, p.Bottleneck)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gatk4sim:", err)
	os.Exit(1)
}
