package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0.001, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // 9 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond
		{99, 0.9, false},
		{100, 0.9, true},
		{20, 0.5, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v (beyond=%d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-] or longer than 64", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"has space", "slash/name", "", "_lead", "ünicode"} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloadSpecs))
	}
	same := func(kind string, defs []metricDef, got []metric, bounds bool) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounds ||
				(bounds && *g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd, true)
	same("per_layer", perLayer, bench.PerLayer, false)
}

func TestRegistriesMatchMetrics(t *testing.T) {
	if got := workloads.Names(); !reflect.DeepEqual(got, registryWorkloads) {
		t.Errorf("workload registry %v, per-workload metrics name %v", got, registryWorkloads)
	}
	if got := experiments.IDs(); !reflect.DeepEqual(got, artifactIDs) {
		t.Errorf("artifact registry %v, per-artifact metrics name %v", got, artifactIDs)
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	rec := &recorder{want: map[string]string{"op1": digest([]byte("right"))}, got: map[string]string{}}
	var c checker
	c.op(rec.verify("op1", digest([]byte("right"))))
	c.op(rec.verify("op1", digest([]byte("wrong"))))
	c.op(rec.verify("unrecorded", digest([]byte("anything"))))
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 1", c.attempted, c.failed)
	}
	if c.failRatio() != 1.0/3 {
		t.Errorf("fail ratio %v", c.failRatio())
	}
}

func TestRecordedDigestsCoverDefaultAndHeldOutSeeds(t *testing.T) {
	for _, w := range workloadSpecs {
		seeds := []uint64{defaultSeed, heldOutSeed}
		if seedIndependent[w.name] {
			seeds = seeds[:1]
		}
		for _, s := range seeds {
			rec, err := newRecorder(w.name, s, false)
			if err != nil {
				t.Fatal(err)
			}
			if rec.recorded() == 0 {
				t.Errorf("%s: no recorded digests for section %s", w.name, rec.section)
			}
		}
	}
}

func TestRequestStreamFollowsSeed(t *testing.T) {
	bodies := func(seed uint64) []string {
		s := newRequestStream(seed)
		var out []string
		for _, r := range append(s.next(300), s.next(300)...) {
			out = append(out, r.path+" "+string(r.body))
		}
		return out
	}
	a, b, c := bodies(1), bodies(1), bodies(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same request stream")
	}
	kinds := map[string]int{}
	repeats := 0
	seen := map[string]bool{}
	for _, r := range a {
		kinds[strings.Fields(r)[0]]++
		if seen[r] {
			repeats++
		}
		seen[r] = true
	}
	if len(kinds) != 4 {
		t.Errorf("stream covers endpoints %v, want predict, whatif, sweep and recommend", kinds)
	}
	if share := float64(repeats) / float64(len(a)); share < 0.15 || share > 0.35 {
		t.Errorf("repeat share %.2f, want about %.2f", share, repeatShare)
	}
}

func TestStudyAndGridFollowSeed(t *testing.T) {
	ca, err := campaignConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := campaignConfig(1)
	cc, _ := campaignConfig(2)
	if !reflect.DeepEqual(ca.Points(), cb.Points()) {
		t.Error("same seed gave different study points")
	}
	if reflect.DeepEqual(ca.Points(), cc.Points()) {
		t.Error("different seeds gave the same study points")
	}
	if n := len(ca.Points()); n != 112 {
		t.Errorf("study has %d points, want 112", n)
	}
	keys := func(seed uint64) []string {
		ops, err := simGrid(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, op := range ops {
			out = append(out, op.key)
		}
		return out
	}
	if !reflect.DeepEqual(keys(1), keys(1)) || reflect.DeepEqual(keys(1), keys(2)) {
		t.Error("sim grid does not follow the seed")
	}
}

func TestPointClassFollowsWhatThePointDid(t *testing.T) {
	for _, tc := range []struct {
		r    campaign.PointResult
		want string
	}{
		{campaign.PointResult{}, "plain"},
		{campaign.PointResult{GCPauses: 3}, "spill"},
		{campaign.PointResult{SpilledTasks: 1, GCPauses: 1}, "spill"},
		{campaign.PointResult{Retries: 2, Recomputes: 2}, "fetchfail"},
		{campaign.PointResult{SpilledTasks: 1, Retries: 1}, "mixed"},
	} {
		if got := pointClass(tc.r); got != tc.want {
			t.Errorf("pointClass(%+v) = %s, want %s", tc.r, got, tc.want)
		}
	}
	var s studyStats
	s.add(campaign.PointResult{})
	s.add(campaign.PointResult{SpilledTasks: 1})
	s.add(campaign.PointResult{Retries: 1})
	if s.coverage() == nil {
		t.Error("a pass without mixed points passed the coverage check")
	}
	s.add(campaign.PointResult{SpilledTasks: 1, Retries: 1})
	if err := s.coverage(); err != nil {
		t.Error(err)
	}
}

func TestCPUAttribution(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	var sink []byte
	for i := 0; i < 3000; i++ {
		b, _ := json.Marshal(map[string]any{"i": i, "s": strings.Repeat("x", 512)})
		sink = append(sink[:0], b...)
	}
	shares, err := attributeCPU(prof.stop())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for k, v := range shares {
		if v < 0 {
			t.Errorf("%s = %v", k, v)
		}
		total += v
	}
	if total > 100.0001 {
		t.Errorf("shares sum to %v%%", total)
	}
	if _, err := attributeCPU([]byte("not a profile")); err == nil {
		t.Error("garbage profile accepted")
	}
	_ = sink
}

func TestStackMetric(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run", "main.main"}, "cpu.sim.engine_pct"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/spark.Run"}, "cpu.runtime.malloc_pct"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.mallocgc"}, "cpu.runtime.gc_pct"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, "cpu.net_pct"},
		// File writes and procfs reads go through the same syscall and
		// poller frames but are not network time.
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "repro/internal/campaign.Run"}, ""},
		{[]string{"internal/poll.(*FD).Read", "os.(*File).Read", "main.readMem"}, ""},
		{nil, ""},
	} {
		if got := stackMetric(tc.frames); got != tc.want {
			t.Errorf("stackMetric(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestEachFieldRejectsTruncation(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 2.
	err := eachField([]byte{0x12, 0x05, 'a', 'b'}, func(int, int, uint64, []byte) error { return nil })
	if !errors.Is(err, errTruncated) {
		t.Errorf("got %v, want errTruncated", err)
	}
}

func TestStolenPassesAreLeftOut(t *testing.T) {
	capacity := float64(time.Second) * float64(runtime.NumCPU())
	quiet := pass{wall: time.Second, ops: 1, use: memSnap{steal: time.Duration(0.01 * capacity)}}
	stolen := pass{wall: time.Second, ops: 1, use: memSnap{steal: time.Duration(0.2 * capacity)}}
	if quiet.disturbed() || !stolen.disturbed() {
		t.Fatalf("disturbed: quiet %v, stolen %v", quiet.disturbed(), stolen.disturbed())
	}
	rep := &report{passes: []pass{quiet, stolen, quiet}}
	if got := len(rep.measured()); got != 2 {
		t.Errorf("measured %d passes, want the 2 quiet ones", got)
	}
	rep = &report{passes: []pass{stolen, stolen}}
	if got := len(rep.measured()); got != 2 {
		t.Errorf("measured %d passes, want all 2 when every pass was disturbed", got)
	}
}

func TestTimedLoopWaitsForUndisturbedPasses(t *testing.T) {
	// Four 10ms passes use the 40ms budget; the first three are stolen,
	// so the loop runs on until two passes were undisturbed (well before
	// its 80ms limit).
	capacity := float64(10*time.Millisecond) * float64(runtime.NumCPU())
	rep := newReport()
	n := 0
	err := rep.timedLoop(options{seconds: 0.04}, func(i int) error {
		n++
		p := pass{wall: 10 * time.Millisecond, ops: 1}
		if i < 3 {
			p.use.steal = time.Duration(capacity) // all of the CPUs stolen
		}
		time.Sleep(10 * time.Millisecond)
		rep.passes = append(rep.passes, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.undisturbed()); n != 5 || got != 2 {
		t.Errorf("ran %d passes with %d undisturbed, want 5 with 2", n, got)
	}
}

func TestTimedLoopRunsTheWorkloadMinimum(t *testing.T) {
	rep := newReport()
	n := 0
	err := rep.timedLoop(options{seconds: 0.001, minPasses: 5}, func(int) error {
		n++
		time.Sleep(time.Millisecond)
		rep.passes = append(rep.passes, pass{wall: time.Millisecond, ops: 1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("ran %d passes, want the workload's minimum of 5", n)
	}
}
