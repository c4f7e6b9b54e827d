package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments/sweep"
)

// Report is the outcome of one experiment executed through the pool:
// either a Table or an error, plus the artifact's wall-clock runtime.
// Reports preserve the order the ids were requested in, regardless of
// which worker finished first.
type Report struct {
	ID    string
	Title string
	// Table is the regenerated artifact; nil when Err is set.
	Table *Table
	// Err is the artifact's own failure. One failing artifact never
	// cancels its siblings; callers inspect each report. Cancellation
	// and per-artifact deadlines surface here too, wrapping
	// context.Canceled / context.DeadlineExceeded.
	Err error
	// Runtime is the artifact's wall-clock regeneration time. It is
	// also recorded in Table.Metrics["runtime_seconds"].
	Runtime time.Duration
	// CacheHits / CacheMisses count the artifact's calibration-cache
	// lookups: a hit reused a fitted model (or joined an in-flight
	// build); a miss paid the four sample runs. Both are also recorded
	// in Table.Metrics when the artifact calibrates at all.
	CacheHits, CacheMisses int
}

// RuntimeMetric is the Table.Metrics key carrying the per-artifact
// wall-clock seconds. Comparisons between runs (serial vs parallel,
// tolerance checks) must ignore it: it is not a deterministic function
// of the model (see NondeterministicMetric).
const RuntimeMetric = "runtime_seconds"

// Calibration-cache metrics keys. Lookups (hits+misses) is a
// deterministic function of the artifact's code path, so the metrics CI
// job can pin it to an exact window; the hit/miss split depends on which
// sibling artifact calibrated first and is excluded from determinism
// comparisons.
const (
	CacheHitsMetric    = "calibration_cache_hits"
	CacheMissesMetric  = "calibration_cache_misses"
	CacheLookupsMetric = "calibration_cache_lookups"
)

// NondeterministicMetric reports whether a Table.Metrics key is allowed
// to differ between two runs of the same artifact (wall-clock time, and
// the scheduling-dependent hit/miss split). Tests comparing serial vs
// parallel output strip exactly these keys. The `doppio route` counters
// (doppio_cluster_*_total) are in the same class: how many retries,
// failovers, hedges, coalesced waits, or probes a chaos run records
// depends entirely on timing, so scrape gates (metriccheck -prom) may
// only window them, and must tolerate their absence from a quiet
// scrape. The serve tier's cache-plane counters — snapshot writes
// (doppio_cache_snapshot_*_total), cross-replica read-throughs
// (doppio_peer_readthrough_total), and peek traffic
// (doppio_peek_requests_total) — vary the same way: how many snapshot
// cycles fit a run and whether a failover window ever triggered a
// read-through are pure scheduling accidents.
func NondeterministicMetric(name string) bool {
	switch name {
	case RuntimeMetric, CacheHitsMetric, CacheMissesMetric:
		return true
	}
	if !strings.HasSuffix(name, "_total") {
		return false
	}
	for _, prefix := range []string{
		"doppio_cluster_",
		"doppio_cache_snapshot_",
		"doppio_peer_",
		"doppio_peek_",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// Options tunes a RunSet/RunAll invocation.
type Options struct {
	// Parallel is the worker-pool size; <=0 means GOMAXPROCS.
	Parallel int
	// ArtifactTimeout bounds each artifact's regeneration; an artifact
	// exceeding it gets a context.DeadlineExceeded report while its
	// siblings continue. Zero means no per-artifact deadline.
	ArtifactTimeout time.Duration
}

// RunAll regenerates every registered artifact through a worker pool.
// See RunSet.
func RunAll(ctx context.Context, opts Options) []Report {
	reports, _ := RunSet(ctx, IDs(), opts) // IDs() only returns registered ids
	return reports
}

// RunSet regenerates the named artifacts concurrently on the
// sweep.StreamMap worker pool. The returned reports are in the order of
// ids. Unknown ids fail upfront, before any work starts; individual
// artifact failures (including panics and blown deadlines) are isolated
// into their own Report and do not stop the remaining artifacts.
// Cancelling ctx and ArtifactTimeout follow StreamMap's contract:
// artifacts not yet started report ctx's error, and in-flight ones are
// abandoned with ctx's (or the deadline's) error, so partial results
// are available for flushing as soon as the call returns.
func RunSet(ctx context.Context, ids []string, opts Options) ([]Report, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := Get(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return runExperiments(ctx, exps, opts), nil
}

// runExperiments is the pool call itself, factored out so tests can
// inject experiments (e.g. deliberately failing ones) without touching
// the global registry. Points are experiment indices, so each
// artifact's calibration-cache collector is made here and still counts
// an artifact whose deadline abandoned it.
func runExperiments(ctx context.Context, exps []Experiment, opts Options) []Report {
	idx := make([]int, len(exps))
	stats := make([]*calStats, len(exps))
	for i := range exps {
		idx[i], stats[i] = i, &calStats{}
	}
	outcomes, _ := sweep.StreamMap(ctx, idx,
		sweep.StreamOptions{Parallel: opts.Parallel, PointTimeout: opts.ArtifactTimeout},
		func(ctx context.Context, i int) (*Table, error) {
			return exps[i].Run(withCalStats(ctx, stats[i]))
		}, nil)
	reports := make([]Report, len(exps))
	for i, o := range outcomes {
		e := exps[i]
		rep := Report{ID: e.ID, Title: e.Title, Runtime: o.Elapsed}
		rep.CacheHits, rep.CacheMisses = stats[i].counts()
		switch {
		case o.Err != nil:
			rep.Err = fmt.Errorf("experiments: %s: %w", e.ID, o.Err)
		case o.Value == nil:
			rep.Err = fmt.Errorf("experiments: %s returned no table", e.ID)
		default:
			rep.Table = o.Value
			rep.Table.SetMetric(RuntimeMetric, rep.Runtime.Seconds())
			if lookups := rep.CacheHits + rep.CacheMisses; lookups > 0 {
				rep.Table.SetMetric(CacheHitsMetric, float64(rep.CacheHits))
				rep.Table.SetMetric(CacheMissesMetric, float64(rep.CacheMisses))
				rep.Table.SetMetric(CacheLookupsMetric, float64(lookups))
			}
		}
		reports[i] = rep
	}
	return reports
}

// Failed filters the reports down to the failing ones.
func Failed(reports []Report) []Report {
	var out []Report
	for _, r := range reports {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
