package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments/sweep"
	"repro/internal/optimizer"
	"repro/internal/scenario"
	"repro/internal/spark"
	"repro/internal/workloads"
)

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// dense sweep grid) is well under this.
const maxBodyBytes = 1 << 20

// maxSweepPoints bounds one sweep request's grid so a single POST cannot
// monopolise the worker pool.
const maxSweepPoints = 1024

// endpoint binds a route to its handler.
type endpoint struct {
	method  string
	route   string
	handler http.HandlerFunc
}

// endpoints lists every API route; the mux, the metrics series and the
// docs are all generated from this one table.
func (s *Server) endpoints() []endpoint {
	return []endpoint{
		{"GET", "/api/v1/workloads", s.handleWorkloads},
		{"POST", "/api/v1/predict", s.handlePredict},
		{"POST", "/api/v1/simulate", s.handleSimulate},
		{"POST", "/api/v1/whatif", s.handleWhatif},
		{"POST", "/api/v1/recommend", s.handleRecommend},
		{"POST", "/api/v1/sweep", s.handleSweep},
	}
}

// decodeStrict parses a JSON body, rejecting unknown fields and trailing
// garbage so typos ("slave": 10) surface as 400s instead of silently
// applying defaults.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after JSON value")
	}
	return nil
}

// cacheKey canonicalizes a normalized request: the key is the route plus
// the re-marshalled struct, so two bodies that differ only in field
// order, whitespace, or explicitly-spelled defaults share one entry.
func cacheKey(route string, req any) (string, error) {
	canon, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return route + "\x00" + string(canon), nil
}

// --- shared request shapes -------------------------------------------

// ClusterParams is the workload and scenario cluster shape shared by
// predict and whatif requests.
type ClusterParams struct {
	Workload string `json:"workload"`
	scenario.Cluster
}

// normalize applies the scenario defaults and checks the workload, the
// shape against serve's request caps, and the device names; after it
// returns the struct is fully specified, so its marshal form is
// canonical.
func (c *ClusterParams) normalize() error {
	if err := normalizeCluster(c.Workload, &c.Cluster); err != nil {
		return err
	}
	_, err := scenario.Spec{Cluster: c.Cluster}.Config()
	return err
}

// normalizeCluster is normalize minus the device check, which callers
// get from their own Spec.Config.
func normalizeCluster(workload string, c *scenario.Cluster) error {
	if workload == "" {
		return fmt.Errorf("workload is required (GET /api/v1/workloads lists them)")
	}
	if _, err := workloads.Get(workload); err != nil {
		return err
	}
	c.FillDefaults()
	if c.Slaves < 1 || c.Slaves > 1024 {
		return fmt.Errorf("slaves %d outside [1, 1024]", c.Slaves)
	}
	if c.Cores < 1 || c.Cores > 1024 {
		return fmt.Errorf("cores %d outside [1, 1024]", c.Cores)
	}
	if c.HeapGB < 0 || c.HeapGB > 4096 {
		return fmt.Errorf("heap_gb %v outside [0, 4096]", c.HeapGB)
	}
	return nil
}

// dropEmptyFaults maps a faults block that sets nothing to nil, so
// `"faults":{}` shares the fault-free request's cache key.
func dropEmptyFaults(f *scenario.Faults) *scenario.Faults {
	if f != nil && *f == (scenario.Faults{}) {
		return nil
	}
	return f
}

// --- calibration -----------------------------------------------------

// calibration returns the cached calibrated model for (workload,
// slaves), fitting it on first use exactly as `doppio predict` does
// (scenario.CalibrateTestbed at the target slave count).
func (s *Server) calibration(workload string, slaves int) (*core.Calibration, error) {
	key := fmt.Sprintf("calibration\x00testbed\x00%s\x00%d", workload, slaves)
	return s.calibrated(key, workload, fmt.Sprintf("at %d slaves", slaves), func(w workloads.Workload) (*core.Calibration, error) {
		return scenario.CalibrateTestbed(slaves, w.Build)
	})
}

// cloudCalibration is the recommend endpoint's model, fitted on Google
// Cloud virtual disks (scenario.CalibrateCloud).
func (s *Server) cloudCalibration(workload string) (*core.Calibration, error) {
	key := fmt.Sprintf("calibration\x00cloud\x00%s", workload)
	return s.calibrated(key, workload, "on cloud disks", func(w workloads.Workload) (*core.Calibration, error) {
		return scenario.CalibrateCloud(w.Build)
	})
}

// calibrated runs fit once per cache key; the key strings above are
// persisted by cache snapshots, so they must not change.
func (s *Server) calibrated(key, workload, where string, fit func(workloads.Workload) (*core.Calibration, error)) (*core.Calibration, error) {
	v, _, err := s.cache.do(key, func() (any, error) {
		w, err := workloads.Get(workload)
		if err != nil {
			return nil, err
		}
		cal, err := fit(w)
		if err != nil {
			return nil, fmt.Errorf("calibrating %s %s: %w", workload, where, err)
		}
		return cal, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Calibration), nil
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "", "doppio":
		return core.ModeDoppio, nil
	case "peak-bw":
		return core.ModePeakBW, nil
	case "no-overlap":
		return core.ModeNoOverlap, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (doppio, peak-bw, no-overlap)", s)
	}
}

// --- GET /api/v1/workloads -------------------------------------------

// WorkloadInfo is one catalogue entry.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// WorkloadsResponse lists the workload catalogue.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{}
	for _, n := range workloads.Names() {
		wl, err := workloads.Get(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Workloads = append(resp.Workloads, WorkloadInfo{Name: n, Description: wl.Description})
	}
	body, err := marshalBody(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// --- POST /api/v1/predict --------------------------------------------

// PredictRequest asks the calibrated analytical model (Eq. 1) for a
// stage or application runtime; with faults set it asks the
// failure-recovery extension (core.PredictFaulty) instead.
type PredictRequest struct {
	ClusterParams
	Mode   string           `json:"mode"`
	Stage  string           `json:"stage,omitempty"`
	Faults *scenario.Faults `json:"faults,omitempty"`
}

func (req PredictRequest) spec() scenario.Spec {
	return scenario.Spec{Cluster: req.Cluster, Faults: req.Faults}
}

func (req *PredictRequest) normalize() error {
	if err := req.ClusterParams.normalize(); err != nil {
		return err
	}
	if req.Mode == "" {
		req.Mode = "doppio"
	}
	if _, err := parseMode(req.Mode); err != nil {
		return err
	}
	req.Faults = dropEmptyFaults(req.Faults)
	return req.spec().FaultParams().Validate()
}

// StagePredictionJSON is one stage's evaluated Eq. 1.
type StagePredictionJSON struct {
	Name               string  `json:"name"`
	Seconds            float64 `json:"seconds"`
	Bottleneck         string  `json:"bottleneck"`
	ScaleSeconds       float64 `json:"scale_seconds"`
	ReadLimitSeconds   float64 `json:"read_limit_seconds"`
	WriteLimitSeconds  float64 `json:"write_limit_seconds"`
	DeviceLimitSeconds float64 `json:"device_limit_seconds"`
	MemLimitSeconds    float64 `json:"mem_limit_seconds,omitempty"`
}

func stageJSON(p core.StagePrediction) StagePredictionJSON {
	return StagePredictionJSON{
		Name:               p.Name,
		Seconds:            p.T.Seconds(),
		Bottleneck:         p.Bottleneck,
		ScaleSeconds:       p.TScale.Seconds(),
		ReadLimitSeconds:   p.TReadLimit.Seconds(),
		WriteLimitSeconds:  p.TWriteLimit.Seconds(),
		DeviceLimitSeconds: p.TDeviceLimit.Seconds(),
		MemLimitSeconds:    p.TMemLimit.Seconds(),
	}
}

// PredictResponse is the model's answer.
type PredictResponse struct {
	Workload            string                `json:"workload"`
	Mode                string                `json:"mode"`
	Slaves              int                   `json:"slaves"`
	Cores               int                   `json:"cores"`
	HDFS                string                `json:"hdfs"`
	Local               string                `json:"local"`
	Stages              []StagePredictionJSON `json:"stages"`
	TotalSeconds        float64               `json:"total_seconds"`
	BaseSeconds         float64               `json:"base_seconds,omitempty"`
	Inflation           float64               `json:"inflation,omitempty"`
	AbortProb           float64               `json:"abort_prob,omitempty"`
	CalibrationWarnings []string              `json:"calibration_warnings,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/predict", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computePredict(req) })
}

func (s *Server) computePredict(req PredictRequest) ([]byte, error) {
	cal, err := s.calibration(req.Workload, req.Slaves)
	if err != nil {
		return nil, err
	}
	spec := req.spec()
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	pl := core.PlatformFor(cfg)
	resp := PredictResponse{
		Workload: req.Workload, Mode: req.Mode,
		Slaves: req.Slaves, Cores: req.Cores,
		HDFS: req.HDFS, Local: req.Local,
		CalibrationWarnings: cal.Warnings,
	}
	if req.Faults != nil {
		pred, err := cal.Model.PredictFaulty(pl, mode, spec.FaultParams())
		if err != nil {
			return nil, err
		}
		for _, st := range pred.Stages {
			resp.Stages = append(resp.Stages, stageJSON(st.StagePrediction))
		}
		resp.TotalSeconds = pred.Total.Seconds()
		resp.BaseSeconds = pred.Base.Seconds()
		resp.Inflation = pred.Inflation()
		resp.AbortProb = pred.AbortProb
	} else {
		pred, err := cal.Model.Predict(pl, mode)
		if err != nil {
			return nil, err
		}
		for _, st := range pred.Stages {
			resp.Stages = append(resp.Stages, stageJSON(st))
		}
		resp.TotalSeconds = pred.Total.Seconds()
	}
	if req.Stage != "" {
		var kept []StagePredictionJSON
		for _, st := range resp.Stages {
			if st.Name == req.Stage {
				kept = append(kept, st)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("workload %s has no stage %q", req.Workload, req.Stage)
		}
		resp.Stages = kept
		resp.TotalSeconds = kept[0].Seconds
	}
	return marshalBody(resp)
}

// --- POST /api/v1/simulate -------------------------------------------

// SimulateRequest runs the discrete-event cluster simulator on a full
// scenario.
type SimulateRequest struct {
	Workload string `json:"workload"`
	scenario.Spec
}

func (req *SimulateRequest) normalize() error {
	if err := normalizeCluster(req.Workload, &req.Cluster); err != nil {
		return err
	}
	if req.Stragglers < 0 || req.Stragglers >= 1 {
		return fmt.Errorf("stragglers %v outside [0, 1)", req.Stragglers)
	}
	req.Faults = dropEmptyFaults(req.Faults)
	// Devices and config-vocabulary problems (e.g. fault probabilities
	// out of range) surface here as 400s, before caching.
	_, err := req.Config()
	return err
}

// SimStageJSON is one simulated stage measurement.
type SimStageJSON struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Tasks     int     `json:"tasks"`
	HDFSUtil  float64 `json:"hdfs_util"`
	LocalUtil float64 `json:"local_util"`
}

// SimFaultsJSON summarises injected-fault activity.
type SimFaultsJSON struct {
	TaskFailures  int `json:"task_failures"`
	FetchFailures int `json:"fetch_failures"`
	Retries       int `json:"retries"`
	Recomputes    int `json:"recomputes"`
}

// SimulateResponse is the simulator's measurement.
type SimulateResponse struct {
	Workload     string         `json:"workload"`
	Slaves       int            `json:"slaves"`
	Cores        int            `json:"cores"`
	HDFS         string         `json:"hdfs"`
	Local        string         `json:"local"`
	Stages       []SimStageJSON `json:"stages"`
	TotalSeconds float64        `json:"total_seconds"`
	CoreSeconds  float64        `json:"core_seconds"`
	Faults       *SimFaultsJSON `json:"faults,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/simulate", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeSimulate(req) })
}

func (s *Server) computeSimulate(req SimulateRequest) ([]byte, error) {
	wl, err := workloads.Get(req.Workload)
	if err != nil {
		return nil, err
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	res, err := spark.Run(cfg, wl.Build(cfg))
	if err != nil {
		return nil, err
	}
	resp := SimulateResponse{
		Workload: req.Workload,
		Slaves:   req.Slaves, Cores: req.Cores,
		HDFS: req.HDFS, Local: req.Local,
		TotalSeconds: res.Total.Seconds(),
		CoreSeconds:  res.CoreSeconds,
	}
	for _, st := range res.Stages {
		resp.Stages = append(resp.Stages, SimStageJSON{
			Name:      st.Name,
			Seconds:   st.Duration().Seconds(),
			Tasks:     st.Tasks,
			HDFSUtil:  st.HDFSUtil(res.Slaves),
			LocalUtil: st.LocalUtil(res.Slaves),
		})
	}
	if res.Faults.Any() {
		resp.Faults = &SimFaultsJSON{
			TaskFailures:  res.Faults.TaskFailures,
			FetchFailures: res.Faults.FetchFailures,
			Retries:       res.Faults.Retries,
			Recomputes:    res.Faults.Recomputes,
		}
	}
	return marshalBody(resp)
}

// --- POST /api/v1/whatif ---------------------------------------------

// WhatifRequest sweeps per-node core counts — the capacity-planning
// question the paper's break-point analysis answers. backend "model"
// (default) uses the calibrated Eq. 1; backend "sim" runs the full
// simulator at every point.
type WhatifRequest struct {
	ClusterParams
	MaxCores int    `json:"max_cores"`
	Backend  string `json:"backend"`
}

func (req *WhatifRequest) normalize() error {
	// Cores is swept, not chosen; pin it so the canonical key does not
	// fragment on an ignored field.
	req.Cores = 1
	if err := req.ClusterParams.normalize(); err != nil {
		return err
	}
	if req.MaxCores == 0 {
		req.MaxCores = 64
	}
	if req.MaxCores < 1 || req.MaxCores > 1024 {
		return fmt.Errorf("max_cores %d outside [1, 1024]", req.MaxCores)
	}
	switch req.Backend {
	case "":
		req.Backend = "model"
	case "model", "sim":
	default:
		return fmt.Errorf("unknown backend %q (model, sim)", req.Backend)
	}
	return nil
}

// WhatifPointJSON is one swept core count.
type WhatifPointJSON struct {
	Cores        int     `json:"cores"`
	TotalSeconds float64 `json:"total_seconds"`
	// Bottlenecks counts stages per binding Eq. 1 term (model backend).
	Bottlenecks map[string]int `json:"bottlenecks,omitempty"`
	// ScalingExhausted marks the first point that improves <5% over the
	// previous one: P has passed the stage break points.
	ScalingExhausted bool `json:"scaling_exhausted,omitempty"`
}

// WhatifResponse is the swept curve.
type WhatifResponse struct {
	Workload string            `json:"workload"`
	Backend  string            `json:"backend"`
	Slaves   int               `json:"slaves"`
	HDFS     string            `json:"hdfs"`
	Local    string            `json:"local"`
	Points   []WhatifPointJSON `json:"points"`
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	var req WhatifRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/whatif", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeWhatif(req) })
}

func (s *Server) computeWhatif(req WhatifRequest) ([]byte, error) {
	resp := WhatifResponse{
		Workload: req.Workload, Backend: req.Backend,
		Slaves: req.Slaves, HDFS: req.HDFS, Local: req.Local,
	}
	var cal *core.Calibration
	var wl workloads.Workload
	var err error
	if req.Backend == "model" {
		if cal, err = s.calibration(req.Workload, req.Slaves); err != nil {
			return nil, err
		}
	} else if wl, err = workloads.Get(req.Workload); err != nil {
		return nil, err
	}
	base, err := scenario.Spec{Cluster: req.Cluster}.Config()
	if err != nil {
		return nil, err
	}
	var prev float64
	for p := 1; p <= req.MaxCores; p *= 2 {
		cfg := base.WithCores(p)
		point := WhatifPointJSON{Cores: p}
		if req.Backend == "model" {
			pred, err := cal.Model.Predict(core.PlatformFor(cfg), core.ModeDoppio)
			if err != nil {
				return nil, err
			}
			point.TotalSeconds = pred.Total.Seconds()
			point.Bottlenecks = map[string]int{}
			for _, st := range pred.Stages {
				point.Bottlenecks[st.Bottleneck]++
			}
		} else {
			res, err := spark.Run(cfg, wl.Build(cfg))
			if err != nil {
				return nil, err
			}
			point.TotalSeconds = res.Total.Seconds()
		}
		point.ScalingExhausted = prev > 0 && point.TotalSeconds > prev*0.95
		resp.Points = append(resp.Points, point)
		prev = point.TotalSeconds
	}
	return marshalBody(resp)
}

// --- POST /api/v1/recommend ------------------------------------------

// RecommendRequest searches the Google Cloud provisioning space for the
// cheapest configurations (paper Section VI), via the cloud-calibrated
// model.
type RecommendRequest struct {
	Workload string `json:"workload"`
	Slaves   int    `json:"slaves"`
	Top      int    `json:"top"`
	// DeadlineMinutes bounds the admissible predicted runtime; 0 means
	// unconstrained. With a deadline set the search prunes subspaces
	// using Eq. 1's monotonicity instead of evaluating the full grid
	// (omitempty keeps cache keys for deadline-free requests unchanged).
	DeadlineMinutes float64 `json:"deadline_minutes,omitempty"`
	// HeapGBs adds an executor-heap axis to the search space: each value
	// is evaluated with the t_mem_limit term parameterised by that heap
	// and priced per GB. Empty keeps the memory-free legacy space (and,
	// via omitempty, the legacy cache keys).
	HeapGBs []float64 `json:"heap_gbs,omitempty"`
}

func (req *RecommendRequest) normalize() error {
	if req.Workload == "" {
		return fmt.Errorf("workload is required (GET /api/v1/workloads lists them)")
	}
	if _, err := workloads.Get(req.Workload); err != nil {
		return err
	}
	if req.Slaves == 0 {
		req.Slaves = 10
	}
	if req.Slaves < 1 || req.Slaves > 1024 {
		return fmt.Errorf("slaves %d outside [1, 1024]", req.Slaves)
	}
	if req.Top == 0 {
		req.Top = 5
	}
	if req.Top < 1 || req.Top > 50 {
		return fmt.Errorf("top %d outside [1, 50]", req.Top)
	}
	if req.DeadlineMinutes < 0 {
		return fmt.Errorf("deadline_minutes %g must be non-negative", req.DeadlineMinutes)
	}
	if len(req.HeapGBs) > 16 {
		return fmt.Errorf("heap_gbs has %d values, limit 16", len(req.HeapGBs))
	}
	for _, h := range req.HeapGBs {
		if h <= 0 || h > 4096 {
			return fmt.Errorf("heap_gbs value %v outside (0, 4096]", h)
		}
	}
	return nil
}

// CandidateJSON is one evaluated cloud configuration.
type CandidateJSON struct {
	Spec         string  `json:"spec"`
	VCPUs        int     `json:"vcpus"`
	HDFSType     string  `json:"hdfs_type"`
	HDFSSizeGB   float64 `json:"hdfs_size_gb"`
	LocalType    string  `json:"local_type"`
	LocalSizeGB  float64 `json:"local_size_gb"`
	HeapGB       float64 `json:"heap_gb,omitempty"`
	TimeMinutes  float64 `json:"time_minutes"`
	CostUSD      float64 `json:"cost_usd"`
	SavingVsBest float64 `json:"-"`
}

func candidateJSON(c optimizer.Candidate) CandidateJSON {
	return CandidateJSON{
		Spec:        c.Spec.String(),
		VCPUs:       c.Spec.VCPUs,
		HDFSType:    c.Spec.HDFSType.String(),
		HDFSSizeGB:  c.Spec.HDFSSize.GBytes(),
		LocalType:   c.Spec.LocalType.String(),
		LocalSizeGB: c.Spec.LocalSize.GBytes(),
		HeapGB:      c.Spec.HeapGB,
		TimeMinutes: c.Time.Minutes(),
		CostUSD:     c.Cost,
	}
}

// ReferenceJSON is a rule-of-thumb provisioning baseline and the saving
// the optimum achieves over it.
type ReferenceJSON struct {
	Name        string  `json:"name"`
	Spec        string  `json:"spec"`
	TimeMinutes float64 `json:"time_minutes"`
	CostUSD     float64 `json:"cost_usd"`
	Saving      float64 `json:"saving"`
}

// RecommendResponse lists the cheapest (feasible) configurations, the
// references, and the search's evaluation accounting: evaluated +
// pruned always equals space_size. Without a deadline everything is
// evaluated; with one, pruned reports the work Eq. 1's monotonicity
// saved.
type RecommendResponse struct {
	Workload   string          `json:"workload"`
	Slaves     int             `json:"slaves"`
	SpaceSize  int             `json:"space_size"`
	Evaluated  int             `json:"evaluated"`
	Pruned     int             `json:"pruned"`
	Best       []CandidateJSON `json:"best"`
	References []ReferenceJSON `json:"references"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/recommend", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeRecommend(req) })
}

func (s *Server) computeRecommend(req RecommendRequest) ([]byte, error) {
	cal, err := s.cloudCalibration(req.Workload)
	if err != nil {
		return nil, err
	}
	eval := optimizer.ModelEvaluator(cal.Model)
	pricing := cloud.DefaultPricing()
	space := optimizer.DefaultSpace(req.Slaves)
	space.HeapGBs = req.HeapGBs
	cons := optimizer.Constraints{Deadline: time.Duration(req.DeadlineMinutes * float64(time.Minute))}
	rep, err := optimizer.PrunedSearch(space, eval, pricing, cons)
	if err != nil {
		return nil, err
	}
	s.optEvaluated.Add(uint64(rep.Evaluated))
	s.optPruned.Add(uint64(rep.Pruned))
	cands := rep.Candidates
	resp := RecommendResponse{
		Workload: req.Workload, Slaves: req.Slaves, SpaceSize: space.Size(),
		Evaluated: rep.Evaluated, Pruned: rep.Pruned,
	}
	for i, c := range cands {
		if i >= req.Top {
			break
		}
		resp.Best = append(resp.Best, candidateJSON(c))
	}
	for _, ref := range []struct {
		name string
		spec cloud.ClusterSpec
	}{{"R1", cloud.R1(req.Slaves, 16)}, {"R2", cloud.R2(req.Slaves, 16)}} {
		d, err := eval.Evaluate(ref.spec)
		if err != nil {
			return nil, err
		}
		cost := ref.spec.Cost(d, pricing)
		saving := 0.0
		if len(cands) > 0 {
			saving = 1 - cands[0].Cost/cost
		}
		resp.References = append(resp.References, ReferenceJSON{
			Name:        ref.name,
			Spec:        ref.spec.String(),
			TimeMinutes: d.Minutes(),
			CostUSD:     cost,
			Saving:      saving,
		})
	}
	return marshalBody(resp)
}

// --- POST /api/v1/sweep ----------------------------------------------

// DevicePairJSON names one (HDFS, Spark Local) device combination.
type DevicePairJSON struct {
	HDFS  string `json:"hdfs"`
	Local string `json:"local"`
}

// SweepRequest fans the calibrated model out over a cluster-shape grid
// (nodes × cores × device pairs × workloads) through the sweep engine.
type SweepRequest struct {
	Workloads []string         `json:"workloads"`
	Nodes     []int            `json:"nodes"`
	Cores     []int            `json:"cores"`
	Devices   []DevicePairJSON `json:"devices"`
}

func (req *SweepRequest) normalize() error {
	if len(req.Workloads) == 0 {
		return fmt.Errorf("workloads is required (GET /api/v1/workloads lists them)")
	}
	for _, w := range req.Workloads {
		if _, err := workloads.Get(w); err != nil {
			return err
		}
	}
	if len(req.Nodes) == 0 {
		req.Nodes = []int{10}
	}
	if len(req.Cores) == 0 {
		req.Cores = []int{36}
	}
	if len(req.Devices) == 0 {
		req.Devices = []DevicePairJSON{{HDFS: "ssd", Local: "ssd"}}
	}
	for _, n := range req.Nodes {
		if n < 1 || n > 1024 {
			return fmt.Errorf("nodes value %d outside [1, 1024]", n)
		}
	}
	for _, c := range req.Cores {
		if c < 1 || c > 1024 {
			return fmt.Errorf("cores value %d outside [1, 1024]", c)
		}
	}
	for _, d := range req.Devices {
		if _, err := cloud.ParseDevice(d.HDFS); err != nil {
			return fmt.Errorf("devices.hdfs: %v", err)
		}
		if _, err := cloud.ParseDevice(d.Local); err != nil {
			return fmt.Errorf("devices.local: %v", err)
		}
	}
	if n := len(req.Workloads) * len(req.Nodes) * len(req.Cores) * len(req.Devices); n > maxSweepPoints {
		return fmt.Errorf("grid has %d points, limit %d", n, maxSweepPoints)
	}
	return nil
}

// SweepPointJSON is one evaluated grid point. Err isolates a failing
// point without losing its siblings, mirroring sweep.Outcome.
type SweepPointJSON struct {
	Workload     string  `json:"workload"`
	Nodes        int     `json:"nodes"`
	Cores        int     `json:"cores"`
	HDFS         string  `json:"hdfs"`
	Local        string  `json:"local"`
	TotalSeconds float64 `json:"total_seconds,omitempty"`
	Bottleneck   string  `json:"bottleneck,omitempty"`
	Err          string  `json:"error,omitempty"`
}

// SweepResponse is the evaluated grid in row-major order.
type SweepResponse struct {
	Points []SweepPointJSON `json:"points"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey("/api/v1/sweep", req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.serveCached(w, r, key, func() ([]byte, error) { return s.computeSweep(req) })
}

func (s *Server) computeSweep(req SweepRequest) ([]byte, error) {
	// The grid in row-major order: nodes, then cores, then devices, then
	// workloads.
	slab := make([]SweepPointJSON, 0, len(req.Nodes)*len(req.Cores)*len(req.Devices)*len(req.Workloads))
	for _, n := range req.Nodes {
		for _, c := range req.Cores {
			for _, d := range req.Devices {
				for _, w := range req.Workloads {
					slab = append(slab, SweepPointJSON{Workload: w, Nodes: n, Cores: c, HDFS: d.HDFS, Local: d.Local})
				}
			}
		}
	}
	// The sweep planner: a calibration (and the model compiled against
	// its devices) depends on (workload, nodes, device pair) but not on
	// the cores axis, so points are grouped by that key, each group pays
	// for calibration and compilation once, and its shapes stream through
	// the zero-alloc PredictBatch. Groups fan out over the worker pool
	// and write to disjoint indices of the slab, so the response keeps
	// row-major grid order without reassembly. A group's failure,
	// including a panic the pool captured, marks each of its points.
	type calKey struct {
		workload string
		nodes    int
		devices  DevicePairJSON
	}
	groups := sweep.GroupBy(slab, func(p SweepPointJSON) calKey {
		return calKey{p.Workload, p.Nodes, DevicePairJSON{HDFS: p.HDFS, Local: p.Local}}
	})
	outcomes := sweep.Map(groups, 0, func(g sweep.Group[calKey, SweepPointJSON]) (struct{}, error) {
		cal, err := s.calibration(g.Key.workload, g.Key.nodes)
		if err != nil {
			return struct{}{}, err
		}
		cfg, err := scenario.Spec{Cluster: scenario.Cluster{Slaves: g.Key.nodes, Cores: 1, HDFS: g.Key.devices.HDFS, Local: g.Key.devices.Local}}.Config()
		if err != nil {
			return struct{}{}, err
		}
		cm, err := core.Compile(cal.Model, core.EnvOf(core.PlatformFor(cfg)), core.ModeDoppio)
		if err != nil {
			return struct{}{}, err
		}
		shapes := make([]core.Shape, len(g.Points))
		for j, p := range g.Points {
			shapes[j] = core.Shape{N: p.Nodes, P: p.Cores}
		}
		totals := make([]time.Duration, len(shapes))
		if _, err := cm.PredictBatch(shapes, totals); err != nil {
			return struct{}{}, err
		}
		for j, idx := range g.Indices {
			slab[idx].TotalSeconds = totals[j].Seconds()
			top, err := cm.TopBottleneck(shapes[j].N, shapes[j].P)
			if err != nil {
				return struct{}{}, err
			}
			slab[idx].Bottleneck = top
		}
		return struct{}{}, nil
	})
	for i, o := range outcomes {
		if o.Err != nil {
			for _, idx := range groups[i].Indices {
				slab[idx].Err = o.Err.Error()
			}
		}
	}
	s.sweepPoints.Add(uint64(len(slab)))
	return marshalBody(SweepResponse{Points: slab})
}
