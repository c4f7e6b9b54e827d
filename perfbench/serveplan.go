package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Serve-plan request space. Slaves come from a small set so set-up can
// warm every testbed and cloud calibration; everything else varies so
// most keys are distinct.
var (
	serveSlaves  = []int{4, 10}
	serveDevices = []string{"ssd", "hdd", "pd-ssd:500GB", "pd-standard:1TB"}
	serveHeaps   = []float64{4, 16, 64}
)

const (
	// serveBlock is one pass: this many requests, closed loop.
	serveBlock = 1000
	// serveRecorded is how many of the stream's first requests have
	// recorded output digests; later ones get structural checks.
	serveRecorded = 2000
	// serveClients is the number of closed-loop clients.
	serveClients = 2
	// repeatShare of requests repeat a recent key; the window keeps the
	// repeated key inside the cache.
	repeatShare  = 0.25
	repeatWindow = 256
	// serveCacheEntries sizes the server's result/calibration LRU. At
	// the default 512 entries a workload's cloud calibration, touched
	// only by its recommends (1 request in 126), is evicted between
	// them and re-run inside the timed phase (1.6 s for lr-large), so
	// pass times hang on eviction luck. At 4096 every calibration warmed
	// in set-up stays resident while results still cycle through.
	serveCacheEntries = 4096
)

// serveReq is one request of the stream.
type serveReq struct {
	kind string // predict, whatif, sweep, recommend
	path string
	body []byte
}

// requestStream generates the seeded request stream block by block.
type requestStream struct {
	rng     *rand.Rand
	history []serveReq
}

func newRequestStream(seed uint64) *requestStream {
	return &requestStream{rng: rand.New(rand.NewPCG(seed, 0x5e77e))}
}

// next returns the stream's next n requests.
func (s *requestStream) next(n int) []serveReq {
	out := make([]serveReq, n)
	for i := range out {
		h := len(s.history)
		var r serveReq
		if h >= 2*serveClients && s.rng.Float64() < repeatShare {
			// Skip the requests still in flight on the other client.
			lo := max(0, h-repeatWindow)
			r = s.history[lo+s.rng.IntN(h-serveClients-lo)]
		} else {
			r = s.fresh()
		}
		s.history = append(s.history, r)
		out[i] = r
	}
	return out
}

func (s *requestStream) pick(xs []string) string { return xs[s.rng.IntN(len(xs))] }

func (s *requestStream) heap() float64 {
	if s.rng.Float64() < 0.7 {
		return 0
	}
	return serveHeaps[s.rng.IntN(len(serveHeaps))]
}

// Endpoint weights of a fresh request, relative to each other as in the
// serve load generator's default mix (cmd/loadgen defaultMix: predict 6,
// faulty predict 2, whatif 3, sweep 2, recommend 1). That mix's
// /workloads and /simulate entries are left out: the first does no
// work and the second runs the simulator, which this workload excludes.
const (
	weightPredict   = 6
	weightFaulty    = 2
	weightWhatif    = 3
	weightSweep     = 2
	weightRecommend = 1
	weightTotal     = weightPredict + weightFaulty + weightWhatif + weightSweep + weightRecommend
)

// fresh draws a new request with the endpoint weights above. The
// parameter draws (cores, devices, heap on 30% of clusters, sweep and
// recommend options) are this benchmark's own: they spread requests
// over many distinct cache keys within the ranges the API accepts.
func (s *requestStream) fresh() serveReq {
	r := s.rng
	wl := registryWorkloads[r.IntN(len(registryWorkloads))]
	slaves := serveSlaves[r.IntN(len(serveSlaves))]
	cluster := map[string]any{
		"workload": wl, "slaves": slaves, "cores": 1 + r.IntN(64),
		"hdfs": s.pick(serveDevices), "local": s.pick(serveDevices),
	}
	if h := s.heap(); h > 0 {
		cluster["heap_gb"] = h
	}
	u := r.IntN(weightTotal)
	switch {
	case u < weightPredict:
		cluster["mode"] = "doppio"
		return encodeReq("predict", "/api/v1/predict", cluster)
	case u < weightPredict+weightFaulty:
		cluster["mode"] = "doppio"
		cluster["faults"] = map[string]any{
			"task_failure_prob":          float64(1+r.IntN(50)) / 1000,
			"shuffle_fetch_failure_prob": float64(r.IntN(30)) / 1000,
			"max_task_failures":          4 + r.IntN(5),
			"seed":                       1 + r.IntN(1000),
		}
		return encodeReq("predict", "/api/v1/predict", cluster)
	case u < weightPredict+weightFaulty+weightWhatif:
		delete(cluster, "cores")
		cluster["max_cores"] = []int{16, 32, 64, 128}[r.IntN(4)]
		cluster["backend"] = "model"
		return encodeReq("whatif", "/api/v1/whatif", cluster)
	case u < weightTotal-weightRecommend:
		wls := r.Perm(len(registryWorkloads))[:1+r.IntN(3)]
		req := map[string]any{}
		var names []string
		for _, i := range wls {
			names = append(names, registryWorkloads[i])
		}
		req["workloads"] = names
		req["nodes"] = [][]int{{4}, {10}, {4, 10}}[r.IntN(3)]
		var cores []int
		for _, c := range r.Perm(64)[:2+r.IntN(3)] {
			cores = append(cores, c+1)
		}
		req["cores"] = cores
		var devs []map[string]string
		for j := 0; j < 1+r.IntN(2); j++ {
			devs = append(devs, map[string]string{"hdfs": s.pick(serveDevices), "local": s.pick(serveDevices)})
		}
		req["devices"] = devs
		return encodeReq("sweep", "/api/v1/sweep", req)
	default:
		req := map[string]any{"workload": wl, "slaves": slaves, "top": 1 + r.IntN(10)}
		if r.Float64() < 0.5 {
			req["deadline_minutes"] = float64(10 + r.IntN(600))
		}
		if r.Float64() < 0.4 {
			var hs []float64
			for _, i := range r.Perm(4)[:1+r.IntN(3)] {
				hs = append(hs, []float64{8, 16, 32, 64}[i])
			}
			req["heap_gbs"] = hs
		}
		return encodeReq("recommend", "/api/v1/recommend", req)
	}
}

func encodeReq(kind, path string, v any) serveReq {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of plain values always encode
	}
	return serveReq{kind: kind, path: path, body: b}
}

// serveReply is one request's outcome.
type serveReply struct {
	status  int
	cache   string
	body    []byte
	latency time.Duration
	err     error
}

// server is a running in-process serve.Server.
type server struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
	client *http.Client
}

func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", EventLog: io.Discard, CacheEntries: serveCacheEntries})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	select {
	case <-srv.Started():
	case err := <-s.done:
		cancel()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.base = "http://" + srv.Addr()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return s, nil
}

// stop drains the server and waits for it to exit.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

func (s *server) do(r serveReq) serveReply {
	start := time.Now()
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return serveReply{err: err, latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return serveReply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, latency: time.Since(start), err: err}
}

// drive sends reqs from serveClients closed-loop clients and returns the
// replies in request order.
func (s *server) drive(reqs []serveReq, t *tracer, opBase int) []serveReply {
	replies := make([]serveReply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				id := t.begin("POST "+reqs[i].path, 0, opBase+i+1, tid)
				replies[i] = s.do(reqs[i])
				t.end(id)
			}
		}(c + 1)
	}
	wg.Wait()
	return replies
}

// serveSetup starts a server and warms every calibration the stream can
// touch: one sweep over all workloads at every slave count (testbed
// models), then one recommend per workload (cloud models).
func serveSetup(t *tracer) (*server, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	// The sweep fans the testbed calibrations out over the server's own
	// workers; the recommends then fit the cloud models on two clients.
	sweep := []serveReq{encodeReq("sweep", "/api/v1/sweep", map[string]any{
		"workloads": registryWorkloads, "nodes": serveSlaves, "cores": []int{1},
	})}
	var recommends []serveReq
	for _, w := range registryWorkloads {
		recommends = append(recommends, encodeReq("recommend", "/api/v1/recommend", map[string]any{"workload": w, "slaves": serveSlaves[0], "top": 1}))
	}
	for _, batch := range [][]serveReq{sweep, recommends} {
		for i, r := range s.drive(batch, t, -100) {
			if err := checkReply(batch[i], r); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// checkReply applies the structural checks every request gets.
func checkReply(req serveReq, r serveReply) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", req.path, r.err)
	case r.status != http.StatusOK:
		return fmt.Errorf("%s: status %d: %s", req.path, r.status, bytes.TrimSpace(r.body))
	case !json.Valid(r.body):
		return fmt.Errorf("%s: invalid JSON body", req.path)
	case r.cache != "hit" && r.cache != "miss":
		return fmt.Errorf("%s: X-Cache %q", req.path, r.cache)
	}
	return nil
}

func runServe(o options, rec *recorder) (*report, error) {
	rep := newReport()
	tr := newTracer(o.trace)
	var s *server
	for i := 0; i < 3; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = serveSetup(tr); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	defer s.stop()

	stream := newRequestStream(o.seed)
	firstBody := map[string]string{} // request body -> first reply digest
	var untracedWalls, tracedWalls []float64
	var all, hits []float64
	missByKind := map[string][]float64{}
	shed, sent, xMisses := 0, 0, 0
	stats0 := s.srv.CacheStats()
	var prof *cpuProfile
	err := rep.timedLoop(o, func(i int) error {
		traced := o.trace && i > 0
		var t *tracer
		if traced {
			t = tr
			if prof == nil {
				var err error
				if prof, err = startCPUProfile(); err != nil {
					return err
				}
			}
		}
		reqs := stream.next(serveBlock)
		before := readMem()
		start := time.Now()
		replies := s.drive(reqs, t, sent)
		wall := time.Since(start)
		delta := readMem().sub(before)
		for j, r := range replies {
			key := fmt.Sprintf("r%06d", sent+j)
			if r.status == http.StatusTooManyRequests {
				shed++
			}
			if r.cache == "miss" {
				xMisses++
			}
			err := checkReply(reqs[j], r)
			if err == nil {
				d := digest(r.body)
				if first, ok := firstBody[string(reqs[j].body)]; ok && first != d {
					err = errors.New("repeated request answered differently")
				} else if !ok {
					firstBody[string(reqs[j].body)] = d
				}
				if err == nil && sent+j < serveRecorded {
					err = rec.verify(key, d)
				}
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", key, err)
			}
			rep.check.op(err)
			if !traced && o.trace {
				continue
			}
			lat := ms(r.latency)
			all = append(all, lat)
			if r.cache == "hit" {
				hits = append(hits, lat)
			} else {
				missByKind[reqs[j].kind] = append(missByKind[reqs[j].kind], lat)
			}
		}
		sent += len(reqs)
		if !traced {
			untracedWalls = append(untracedWalls, wall.Seconds())
			if !o.trace {
				rep.passes = append(rep.passes, pass{wall: wall, ops: len(reqs), use: delta})
			}
			return nil
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := s.srv.CacheStats()
	// Each X-Cache miss is one result miss in the shared LRU; any further
	// miss is a calibration that left the cache and ran again after
	// set-up, which this workload rules out.
	if extra := int(stats.Misses-stats0.Misses) - xMisses; extra != 0 {
		rep.check.op(fmt.Errorf("%d cache misses beyond the requests' own: a calibration ran after set-up", extra))
	} else {
		rep.check.op(nil)
	}
	lookups := (stats.Hits - stats0.Hits) + (stats.Misses - stats0.Misses)
	hitRatio := float64(stats.Hits-stats0.Hits) / float64(lookups)
	p99 := "n/a (fewer than 10 samples beyond p99)"
	if tailSupported(len(all), 0.99) {
		p99 = fmt.Sprintf("%.3fms (%d samples beyond)", percentile(all, 0.99), beyond(len(all), 0.99))
	}
	rep.notef("requests: %d in %d-request passes, %d closed-loop clients; measured n=%d p50=%.3fms p99=%s; X-Cache hits %d; cache hit ratio %.3f",
		sent, serveBlock, serveClients, len(all), percentile(all, 0.5), p99, len(hits), hitRatio)
	if o.trace {
		shares, err := attributeCPU(prof.stop())
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			rep.layer[k] = v
		}
		rep.layer["serve.req_p50_ms"] = percentile(all, 0.5)
		if tailSupported(len(all), 0.99) {
			rep.layer["serve.req_p99_ms"] = percentile(all, 0.99)
		}
		rep.layer["serve.req_samples"] = float64(len(all))
		rep.layer["serve.hit_p50_ms"] = median(hits)
		for k, v := range missByKind {
			rep.layer["serve.miss_p50_ms."+k] = median(v)
		}
		rep.layer["serve.cache_hit_ratio"] = hitRatio
		rep.layer["serve.shed"] = float64(shed)
		rep.layer["trace.overhead_pct"] = overheadPct(untracedWalls, tracedWalls)
		rep.spans = tr.all()
	}
	return rep, nil
}
