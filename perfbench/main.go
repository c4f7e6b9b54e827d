// Command perfbench is the repository's end-to-end benchmark. It drives
// the default simulator path, a model-mode campaign, the serve tier and
// the full artifact run through the packages' public entry points, checks
// every operation's output, and prints the metrics listed in
// BENCHMARK.json at the repository root.
//
//	perfbench --workload sim-default --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, taken from a separate traced run that records
// spans around every public call and a CPU profile. perfbench/run.sh
// builds the binary inside the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives traces, CPU profiles and scratch files; it lies
	// inside the checkout.
	outDir string
	// recordPath, when set, merges this run's output digests into the
	// digest file at that path instead of only checking them.
	recordPath string
	// child selects a single-purpose child-process mode (see child.go).
	child string
	// minPasses is the fewest untraced passes the workload measures.
	minPasses int
}

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name string
	// regime labels the simulator configuration the workload exercises,
	// so jitter-0 numbers are never read as default-path speed.
	regime string
	// minPasses is the fewest untraced passes a run measures, even when
	// they take longer than --seconds: the workloads with passes of
	// several seconds still get a median of five.
	minPasses int
	run       func(o options, rec *recorder) (*report, error)
}

var workloadSpecs = []workloadSpec{
	{"sim-default", "default testbed, ComputeJitter 0.15 (per-task path)", minPasses, runSimDefault},
	{"campaign-stress", "default testbed, ComputeJitter 0.15, memory layer (1 GB heap) on half the points, fetch failures on half", 5, runCampaign},
	{"serve-plan", "model only after set-up (no simulation in the timed phase)", minPasses, runServe},
	{"repro-all", "mixed: default-jitter artifacts plus jitter-0 coalescing artifacts (resilience, memvolume); not default-path speed", 5, runReproAll},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (sim-default, campaign-stress, serve-plan, repro-all)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for traces, profiles and scratch files")
	flag.StringVar(&o.recordPath, "record", "", "merge this run's output digests into this digest file")
	flag.StringVar(&o.child, "child", "", "internal: run as a child process of the given kind")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.child != "" {
		return runChild(o, stdout)
	}
	if !o.trace {
		o.minPasses = w.minPasses
	}
	rec, err := newRecorder(w.name, o.seed, o.recordPath != "")
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := w.run(o, rec)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.recordPath != "" {
		if err := rec.save(o.recordPath); err != nil {
			return err
		}
	}
	prov := provenance(w, o)
	for _, line := range prov {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, msg := range rep.check.errs {
		fmt.Fprintln(stdout, "# FAILED:", msg)
	}
	var metrics map[string]metricValue
	if o.trace {
		rep.layer["runtime.peak_rss_mb"] = peakRSSMB()
		metrics = rep.layerMetrics()
		if err := writeTrace(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed)), rep.spans, prov); err != nil {
			return err
		}
	} else {
		metrics = rep.endToEndMetrics()
		walls := make([]string, len(rep.passes))
		for i, p := range rep.passes {
			walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
			if p.disturbed() {
				walls[i] += "(steal)"
			}
		}
		fmt.Fprintf(stdout, "# pass walls (s): %s; %d of %d passes measured (a pass with host steal over %.0f%% of the CPUs is left out unless all are)\n",
			strings.Join(walls, " "), len(rep.measured()), len(rep.passes), stealLimit*100)
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(stdout, "# %-44s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	fmt.Fprintf(stdout, "# attempted=%d failed=%d fail_ratio=%g run_s=%.3f\n",
		rep.check.attempted, rep.check.failed, rep.check.failRatio(), time.Since(start).Seconds())
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.check.failed == 0 && rep.check.attempted > 0, rep.check.attempted, rep.check.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(out))
	return err
}

// provenance describes the build and host a report came from.
func provenance(w workloadSpec, o options) []string {
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%v", w.name, o.seed, o.seconds, o.trace),
		"regime: " + w.regime,
		fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d os=%s/%s", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH),
		"commit=" + commitID(),
	}
}
