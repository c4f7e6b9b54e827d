// Package sweep fans evaluations out over parameter points — the
// what-if grids, the cloud-cost figures, the experiment registry and
// campaign studies — with deterministic output ordering and per-point
// error isolation. StreamMap is the one worker pool; Map is its
// context-free form, and GroupBy lets a sweep share expensive per-key
// setup (a calibration, a compiled model) across its points.
package sweep

import (
	"context"
	"time"
)

// Outcome is the result of evaluating one grid point.
type Outcome[P, R any] struct {
	Point P
	Value R
	// Err is this point's own failure; other points are unaffected.
	Err error
	// Elapsed is the point's evaluation wall-clock time.
	Elapsed time.Duration
}

// Map is StreamMap without a context, deadline or sink: it evaluates
// fn over every point on a worker pool of the given size (<=0 means
// GOMAXPROCS) and returns the outcomes in input order. fn must be safe
// for concurrent use; each invocation receives its own point value.
func Map[P, R any](points []P, parallel int, fn func(P) (R, error)) []Outcome[P, R] {
	out, _ := StreamMap(context.Background(), points, StreamOptions{Parallel: parallel},
		func(_ context.Context, p P) (R, error) { return fn(p) }, nil)
	return out
}

// Values unwraps the outcome values, returning the first error in input
// order (the same error a serial loop would have surfaced).
func Values[P, R any](outcomes []Outcome[P, R]) ([]R, error) {
	vals := make([]R, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, o.Err
		}
		vals[i] = o.Value
	}
	return vals, nil
}

// Group is one key-sharing chunk of a sweep: the points that can share
// expensive per-key setup (a calibration, a compiled model), plus their
// positions in the original slice so results land back in input order.
type Group[K comparable, P any] struct {
	Key     K
	Points  []P
	Indices []int
}

// GroupBy partitions points by key. Groups appear in first-appearance
// order and keep their points in input order, so iterating groups and
// writing results at Indices reproduces exactly the input ordering — the
// planner's contract with preallocated result slabs. Callers that
// process groups concurrently may write to disjoint slab indices
// without further synchronisation.
func GroupBy[K comparable, P any](points []P, key func(P) K) []Group[K, P] {
	order := make(map[K]int, len(points))
	var groups []Group[K, P]
	for i, p := range points {
		k := key(p)
		g, ok := order[k]
		if !ok {
			g = len(groups)
			order[k] = g
			groups = append(groups, Group[K, P]{Key: k})
		}
		groups[g].Points = append(groups[g].Points, p)
		groups[g].Indices = append(groups[g].Indices, i)
	}
	return groups
}
