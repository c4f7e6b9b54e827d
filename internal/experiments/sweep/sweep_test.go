package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	out := Map(points, 8, func(p int) (int, error) { return p * p, nil })
	if len(out) != len(points) {
		t.Fatalf("len = %d", len(out))
	}
	for i, o := range out {
		if o.Point != i || o.Value != i*i || o.Err != nil {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
	vals, err := Values(out)
	if err != nil {
		t.Fatal(err)
	}
	if vals[7] != 49 {
		t.Fatalf("vals[7] = %d", vals[7])
	}
}

func TestMapIsolatesErrors(t *testing.T) {
	out := Map([]int{1, 2, 3, 4}, 2, func(p int) (int, error) {
		if p%2 == 0 {
			return 0, fmt.Errorf("point %d failed", p)
		}
		return p, nil
	})
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("odd points failed: %v %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil || out[3].Err == nil {
		t.Errorf("even points should fail")
	}
	// Values surfaces the first error in input order, as a serial loop
	// would.
	if _, err := Values(out); err == nil || err.Error() != "point 2 failed" {
		t.Errorf("Values err = %v", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	points := make([]int, 64)
	Map(points, 4, func(int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return 0, nil
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("peak concurrency %d > 4 workers", p)
	}
}

func TestMapEmptyAndSerial(t *testing.T) {
	if out := Map(nil, 4, func(int) (int, error) { return 0, nil }); len(out) != 0 {
		t.Errorf("empty points produced %d outcomes", len(out))
	}
	out := Map([]int{1, 2}, 1, func(p int) (int, error) { return p + 1, nil })
	if out[0].Value != 2 || out[1].Value != 3 {
		t.Errorf("serial map wrong: %+v", out)
	}
}

func TestGroupBy(t *testing.T) {
	points := []string{"b1", "a1", "b2", "c1", "a2", "b3"}
	groups := GroupBy(points, func(s string) byte { return s[0] })
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	// First-appearance order of keys.
	for i, want := range []byte{'b', 'a', 'c'} {
		if groups[i].Key != want {
			t.Fatalf("group %d key = %c, want %c", i, groups[i].Key, want)
		}
	}
	// Input order within groups, and indices addressing the original slice.
	slab := make([]string, len(points))
	total := 0
	for _, g := range groups {
		if len(g.Points) != len(g.Indices) {
			t.Fatalf("group %c: %d points, %d indices", g.Key, len(g.Points), len(g.Indices))
		}
		for j, idx := range g.Indices {
			if points[idx] != g.Points[j] {
				t.Fatalf("group %c point %d: index %d holds %q, want %q", g.Key, j, idx, points[idx], g.Points[j])
			}
			slab[idx] = g.Points[j]
		}
		total += len(g.Points)
	}
	if total != len(points) {
		t.Fatalf("groups cover %d points, want %d", total, len(points))
	}
	for i := range points {
		if slab[i] != points[i] {
			t.Fatalf("slab[%d] = %q, want %q (input order not reproduced)", i, slab[i], points[i])
		}
	}
	if got := GroupBy(nil, func(s string) byte { return 0 }); len(got) != 0 {
		t.Fatalf("GroupBy(nil) = %v, want empty", got)
	}
}
