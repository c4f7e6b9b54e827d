package spark

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// Run simulates the application on the cluster and returns the measured
// result. It is deterministic: same inputs, same output.
//
// Stages without explicit dependencies run as a linear chain (each
// stage barriers on the previous one). When any stage declares
// DependsOn, the DAG scheduler runs every stage whose dependencies have
// completed, concurrently — Spark's actual stage semantics.
//
// Two execution modes share one event loop, chosen automatically:
//
//   - coalesced: planCoalescing marks the nodes whose schedule can
//     differ from their neighbours' — the homes of a group's remainder
//     tasks and every node a pre-drawn fault or straggler can reach —
//     as dirty and simulates them individually, folding one
//     representative over the clean cohort. A run with no dirty nodes
//     simulates the representative alone (see docs/PERF.md);
//   - per-task: everything else, and the oracle the coalesced mode is
//     pinned byte-identical against (ClusterConfig.DisableCoalescing
//     forces it for A/B comparison).
func Run(cfg ClusterConfig, app App) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	r := newRunner(cfg, app, false)
	res, err, bailed := r.runSafe()
	if !bailed {
		return res, err
	}
	// The coalescing plan was violated at runtime (a degradation event
	// reached the clean cohort); rerun per-task, which is always exact.
	r = newRunner(cfg, app, true)
	return r.run()
}

// bailToPerTask is the panic sentinel the coalesced path throws when a
// runtime event would break cohort symmetry (a retry or speculative
// copy landing on a clean node, a blacklisting, a representative task
// drawing an event the plan missed). Run recovers
// it and replays the whole simulation per-task, so coalescing is an
// optimisation that can never change a Result.
type bailToPerTask struct{}

// bail abandons the coalesced simulation.
func (r *runner) bail() { panic(bailToPerTask{}) }

// runSafe runs the simulation, converting a bail sentinel into the
// bailed flag. Only a run with a representative installs the recover —
// the per-task path never bails, and real panics must keep propagating.
func (r *runner) runSafe() (res *Result, err error, bailed bool) {
	if r.rep != nil {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(bailToPerTask); ok {
					res, err, bailed = nil, nil, true
					return
				}
				panic(v)
			}
		}()
	}
	res, err = r.run()
	return res, err, false
}

// node is one simulated slave.
type node struct {
	id    int // real cluster index, also the fault-hash / pickHealthy identity
	si    int // index into runner.ns (per-node accounting rows)
	cores *sim.CorePool
	hdfs  *sim.FlowResource
	local *sim.FlowResource
	nic   *sim.FlowResource
	// fault state: a crashed node is gone for the rest of the run; a
	// blacklisted one finishes its in-flight work but receives no new
	// dispatches. taskFailures counts injected failures for the
	// blacklist threshold.
	crashed      bool
	blacklisted  bool
	taskFailures int
	// memory state (only touched when the memory layer is on): the
	// resident working set of in-flight attempts, and the instant
	// until which a stop-the-world GC pause stalls every core on the
	// node.
	resident units.ByteSize
	gcUntil  time.Duration
	// pending holds the dispatches waiting on this node's cores, in
	// Acquire order; dispatchF, bound once per node, is what the core
	// pool runs for each of them (see runner.enqueue).
	pending   dispatchQueue
	dispatchF func()
}

// dispatchRec is the argument list of one queued runner.dispatch call.
type dispatchRec struct {
	st          *stageState
	task        *taskState
	gi, taskIdx int
	mult        int
	speculative bool
}

// dispatchQueue is a FIFO of dispatch records. launchStage reserves a
// stage's records up front and the backing array is rewound whenever
// the queue drains, so steady-state queueing allocates nothing.
type dispatchQueue struct {
	recs []dispatchRec
	head int
}

func (q *dispatchQueue) push(d dispatchRec) { q.recs = append(q.recs, d) }

func (q *dispatchQueue) pop() dispatchRec {
	d := q.recs[q.head]
	q.recs[q.head] = dispatchRec{}
	q.head++
	if q.head == len(q.recs) {
		q.recs, q.head = q.recs[:0], 0
	}
	return d
}

// numOpKinds sizes the fixed per-stage accounting arrays.
const numOpKinds = len(opKindNames)

// netFlowNames precomputes the "<kind>/net" flow labels so the NIC
// fast path never builds a string per op.
var netFlowNames = func() (a [numOpKinds]string) {
	for i := range a {
		a[i] = OpKind(i).String() + "/net"
	}
	return a
}()

// ioAgg is one op kind's integer stage accounting. The representative
// node's contributions are folded in at multiplicity inline (integer
// arithmetic is exact under multiplication); the float Requests
// accumulator lives in stageState.reqSub instead, per node, so it can
// be folded in real-node order at stage completion.
type ioAgg struct {
	bytes units.ByteSize
	ops   int
	time  time.Duration
}

// stageState tracks one stage through its execution.
type stageState struct {
	idx       int
	stage     Stage
	deps      []int
	launched  bool
	completed bool
	res       *StageResult
	groups    []GroupResult
	remaining int // logical tasks left, counted at full-cluster multiplicity
	// device utilisation snapshots at the stage's barrier; with
	// concurrent DAG stages the per-stage attribution is approximate
	// (shared device time counts toward every overlapping stage).
	hdfsBusy0, localBusy0 time.Duration
	// io is the integer I/O accounting; the IOStat map is materialised
	// from it when the stage completes.
	io [numOpKinds]ioAgg
	// reqSub accumulates the float IOStat.Requests increments per
	// simulated node (row = node.si), folded in real-node-id order at
	// completion so the per-task and coalesced paths perform the same
	// float additions in the same order.
	reqSub [][numOpKinds]float64
	// med tracks the running median of completed task durations for the
	// speculation threshold (nil when speculation is off).
	med *medianTracker
	// running is an intrusive doubly-linked list of in-flight attempts.
	running *attempt
	// needsFinal marks the stage for the end-of-instant finalizer (see
	// runner.finalize).
	needsFinal bool
	// tasks is the logical-task slab: one entry per dispatched task,
	// allocated in a single slice per stage.
	tasks []taskState
}

// addRunning links an attempt into the stage's running list.
func (st *stageState) addRunning(a *attempt) {
	a.prev = nil
	a.next = st.running
	if st.running != nil {
		st.running.prev = a
	}
	st.running = a
	a.inList = true
}

// removeRunning unlinks an attempt; safe to call once per attempt.
func (st *stageState) removeRunning(a *attempt) {
	if !a.inList {
		return
	}
	a.inList = false
	if a.prev != nil {
		a.prev.next = a.next
	} else if st.running == a {
		st.running = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	}
	a.prev, a.next = nil, nil
}

// taskState is one logical task, possibly executed by several attempts.
type taskState struct {
	done       bool
	attempts   int
	speculated bool
	// fault bookkeeping: counted failures against the attempt budget,
	// fetch failures (Spark tracks these separately from task failures),
	// and the number of attempts currently in flight.
	failures      int
	fetchFailures int
	inflight      int
}

// attempt is one execution of a task on one node. Attempts are pooled
// on the runner and recycled at every terminal transition, with their
// callback closures bound once at allocation, so the steady-state task
// walk performs no per-op or per-task allocation.
type attempt struct {
	r       *runner
	st      *stageState
	task    *taskState
	nd      *node
	gi      int
	g       TaskGroup
	taskIdx int
	// mult is the attempt's full-cluster multiplicity: 1 normally,
	// the cohort size when this attempt runs on the representative
	// node of a coalesced run.
	mult  int
	start time.Duration
	// failAt / fetchFailAt are the op indices at which this attempt is
	// fated to fail (-1: never). lost marks the attempt killed by its
	// node's crash; it dies at the next op boundary.
	failAt      int
	fetchFailAt int
	lost        bool
	speculative bool
	// memory layer: the working set reserved on the node for this
	// attempt (released on every exit path) and the portion that
	// overflowed the heap (written to the Local device up front and
	// re-read before the task completes).
	memBytes units.ByteSize
	spill    units.ByteSize
	// op-walk state.
	i         int // current op index
	jitter    float64
	gcTime    time.Duration
	gcIOBytes units.ByteSize
	curOp     Op // the adjusted copy of g.Ops[i] in flight
	opStart   time.Duration
	pending   int // in-flight flows of the current op
	// flow and netFlow are reused across ops: reassigning the struct
	// resets the resource-internal fields, so the hot path starts flows
	// without allocating.
	flow    sim.Flow
	netFlow sim.Flow
	// intrusive links: running list and the runner's free list.
	prev, next *attempt
	inList     bool
	freeNext   *attempt
	// prebound callbacks, created once per pooled attempt.
	launchF   func()
	stepF     func()
	flowDoneF func()
	gcDoneF   func()
	finishF   func()
}

type runner struct {
	cfg        cfgDerived
	app        App
	eng        *sim.Engine
	ns         []*node // simulated nodes
	byReal     []*node // real node id -> simulated node (clean ids map to rep)
	rep        *node   // cohort representative (nil on the per-task path)
	repMult    int     // real nodes the representative stands for
	res        *Result
	states     []*stageState
	done       int
	finishedAt time.Duration
	// err is the first fatal failure (attempt budget exhausted, no
	// healthy nodes left). Once set, no new work launches and the
	// engine drains its in-flight events.
	err error
	// end-of-instant finalizer state (see finalize).
	finalSet bool
	finalF   func()
	// pools and scratch.
	freeA *attempt
	cands []*attempt
}

// busySums totals the device utilisation seconds across the cluster
// (iostat's %util integral, not mere occupancy), folding the
// representative's value once per real node it stands for — the
// replicated nodes would accumulate bit-identical UtilSeconds, and
// Duration addition is integer arithmetic, so the fold reproduces the
// per-task sum exactly.
func (r *runner) busySums() (hdfs, local time.Duration) {
	for id := 0; id < r.cfg.Slaves; id++ {
		n := r.byReal[id]
		hdfs += units.SecDuration(n.hdfs.Stats().UtilSeconds)
		local += units.SecDuration(n.local.Stats().UtilSeconds)
	}
	return hdfs, local
}

// cfgDerived bundles the config with precomputed values.
type cfgDerived struct {
	ClusterConfig
	remoteFrac float64 // fraction of shuffle-read bytes crossing the NIC
}

func newRunner(cfg ClusterConfig, app App, forcePerTask bool) *runner {
	d := cfgDerived{ClusterConfig: cfg}
	if cfg.Slaves > 1 {
		// remoteFrac always reflects the full cluster size, even when
		// coalescing simulates a representative node.
		d.remoteFrac = float64(cfg.Slaves-1) / float64(cfg.Slaves)
	}
	r := &runner{cfg: d, app: app, repMult: 1}
	var dirty []bool
	clean := 0
	if !forcePerTask {
		dirty, clean = planCoalescing(cfg, app)
	}
	simNodes := cfg.Slaves
	if clean > 0 {
		r.repMult = clean
		simNodes = cfg.Slaves - clean + 1
	}
	eng := sim.NewEngineSized(simNodes*(cfg.ExecutorCores+4) + 16)
	r.eng = eng
	newNode := func(id int) *node {
		n := &node{
			id:    id,
			si:    len(r.ns),
			cores: sim.NewCorePool(eng, cfg.ExecutorCores),
			hdfs:  sim.NewFlowResource(eng, fmt.Sprintf("node%d/hdfs", id)),
			local: sim.NewFlowResource(eng, fmt.Sprintf("node%d/local", id)),
		}
		n.dispatchF = func() {
			d := n.pending.pop()
			r.dispatch(d.st, d.task, n, d.gi, d.taskIdx, d.mult, d.speculative)
		}
		if cfg.ModelNetwork {
			n.nic = sim.NewFlowResource(eng, fmt.Sprintf("node%d/nic", id))
		}
		r.ns = append(r.ns, n)
		return n
	}
	// Per-task runs simulate every node; coalesced ones the dirty nodes
	// plus one representative, the first clean node, standing for all
	// the clean ones.
	r.byReal = make([]*node, cfg.Slaves)
	for id := range r.byReal {
		switch {
		case clean == 0 || dirty != nil && dirty[id]:
			r.byReal[id] = newNode(id)
		case r.rep == nil:
			r.rep = newNode(id)
			fallthrough
		default:
			r.byReal[id] = r.rep
		}
	}
	r.finalF = r.finalize
	r.res = &Result{App: app.Name, Slaves: cfg.Slaves, Cores: cfg.ExecutorCores}
	r.states = buildStates(app)
	return r
}

// buildStates resolves each stage's dependency indices: the declared
// DAG when any stage names dependencies, otherwise the implicit linear
// chain.
func buildStates(app App) []*stageState {
	useDAG := false
	for _, s := range app.Stages {
		if len(s.DependsOn) > 0 {
			useDAG = true
			break
		}
	}
	byName := map[string]int{}
	for i, s := range app.Stages {
		byName[s.Name] = i
	}
	states := make([]*stageState, len(app.Stages))
	for i, s := range app.Stages {
		st := &stageState{idx: i, stage: s}
		if useDAG {
			for _, dep := range s.DependsOn {
				st.deps = append(st.deps, byName[dep])
			}
		} else if i > 0 {
			st.deps = []int{i - 1}
		}
		states[i] = st
	}
	return states
}

// planCoalescing is the one coalescing planner. The cluster is
// node-symmetric by construction — round-robin homes, identical slaves —
// so nodes that receive the same task schedule and draw no degradation
// event execute the same event sequence at the same virtual instants.
// The plan marks as dirty, to be simulated individually, every node
// that can break that symmetry:
//
//   - the homes of each group's remainder tasks: group g's Count%Slaves
//     extras land on (off+k)%Slaves for k < Count%Slaves, off being the
//     number of tasks in the stage's earlier groups;
//   - every node a first-attempt fault, fetch-failure or straggler draw
//     touches, plus the window its recovery can reach: retries hop one
//     node right each, the speculative copy launches one node right,
//     and the retry and copy chains draw failures of their own. Every
//     such draw is a pure function of the seeded hashes, so the
//     dispatcher's calls are replayed here verbatim.
//
// It returns the dirty set and the number of clean nodes the
// representative folds. A nil set with clean > 0 is full coalescing: no
// node is dirty. clean == 0 means per-task: the run cannot be symmetric
// at all, or fewer than two clean nodes remain and the fold buys
// nothing.
//
// The plan is conservative where it can be (taint windows) and exact
// where it must be (the attempt-1 draws); any runtime violation bails
// to the per-task path, so a misprediction costs speed, never accuracy.
// The registry-wide golden tests in internal/workloads and
// internal/spark pin the Results of both paths byte-identical.
func planCoalescing(cfg ClusterConfig, app App) (dirty []bool, clean int) {
	f := cfg.Faults
	switch {
	case cfg.DisableCoalescing,
		// Jitter draws a distinct factor per task, so no two nodes run
		// the same schedule; heap occupancy couples every task on a node
		// to its co-resident wave the same way.
		cfg.ComputeJitter > 0, cfg.Memory.Enabled(),
		// A scheduled crash dirties the whole cluster: surviving nodes
		// absorb the dead node's share asymmetrically.
		len(f.NodeCrashes) > 0,
		// A speculation multiplier at or below 1 makes roughly half the
		// running tasks instant candidates; the representative would
		// bail at once.
		cfg.Speculation && cfg.SpeculationMultiplier > 0 && cfg.SpeculationMultiplier <= 1:
		return nil, 0
	}
	S := cfg.Slaves
	taint := func(home, span int) {
		if dirty == nil && span >= 0 {
			dirty = make([]bool, S)
		}
		for k := 0; k <= min(span, S-1); k++ {
			dirty[(home+k)%S] = true
		}
	}
	drawn := f.Enabled() || cfg.StragglerFraction > 0
	maxF := 1
	if f.Enabled() {
		maxF = f.maxTaskFailures()
	}
	r := &runner{cfg: cfgDerived{ClusterConfig: cfg}} // for the seeded hashes
	for si, s := range app.Stages {
		off := 0
		for _, g := range s.Groups {
			end := off + g.Count
			taint(off, g.Count%S-1) // the homes of the remainder tasks
			// draws reports whether attempt number a of hash-index tid
			// would draw a failure or fetch failure.
			draws := func(tid, a int) bool {
				if p := f.TaskFailureProb; p > 0 && r.faultHash01(si, tid, a, saltFailProb) < p {
					return true
				}
				if q := f.ShuffleFetchFailureProb; q > 0 {
					for i, op := range g.Ops {
						if op.Kind == OpShuffleRead && r.faultHash01(si, tid, a, saltFetch+uint64(i)<<8) < q {
							return true
						}
					}
				}
				return false
			}
			for idx := off; drawn && idx < end; idx++ {
				eventful := f.Enabled() && draws(idx, 1)
				if sf := cfg.StragglerFraction; sf > 0 && r.hash01(si, idx, saltStraggler) < sf {
					eventful = true
				}
				if !eventful {
					continue
				}
				// Count every failure the retry chain and the speculative
				// copy's chain could draw; attempt numbers are dynamic at
				// runtime, so scan a window twice the attempt budget.
				fails := 0
				if f.Enabled() {
					for a := 2; a <= 2*maxF; a++ {
						if draws(idx, a) {
							fails++
						}
					}
					if cfg.Speculation {
						for a := 1; a <= 2*maxF; a++ {
							if draws(idx+specCopyIdxOffset, a) {
								fails++
							}
						}
					}
				}
				taint(idx, 2+fails)
			}
			off = end
		}
	}
	clean = S
	for _, d := range dirty {
		if d {
			clean--
		}
	}
	if clean < 2 {
		return nil, 0
	}
	return dirty, clean
}

func (r *runner) run() (*Result, error) {
	if f := r.cfg.Faults; f.Enabled() {
		for _, c := range f.NodeCrashes {
			nd := r.byReal[c.Node]
			r.eng.At(units.SecDuration(c.At.Seconds()), func() { r.crashNode(nd) })
		}
	}
	r.launchReady()
	r.eng.Run()
	if r.err != nil {
		return nil, r.err
	}
	if r.done < len(r.states) {
		for _, st := range r.states {
			if st.launched && !st.completed {
				return nil, fmt.Errorf("spark: simulation of %q stalled in stage %s: %d tasks unfinished",
					r.app.Name, st.stage.Name, st.remaining)
			}
		}
		return nil, fmt.Errorf("spark: simulation of %q deadlocked: %d of %d stages never became ready",
			r.app.Name, len(r.states)-r.done, len(r.states))
	}
	// The application ends when its last stage completes; the engine may
	// drain a little further (cancelled speculative attempts finishing
	// their in-flight op before standing down).
	r.res.Total = r.finishedAt
	// Fold core-seconds in real-node order: each real node the
	// representative stands for would report a bit-identical float, so
	// adding the representative's value once per real id reproduces the
	// per-task accumulation sequence exactly.
	for id := 0; id < r.cfg.Slaves; id++ {
		r.res.CoreSeconds += r.byReal[id].cores.BusyCoreSeconds()
	}
	return r.res, nil
}

// launchReady schedules every unlaunched stage whose dependencies have
// completed.
func (r *runner) launchReady() {
	if r.err != nil {
		return
	}
	for _, st := range r.states {
		if st.launched {
			continue
		}
		ready := true
		for _, d := range st.deps {
			if !r.states[d].completed {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		st.launched = true
		// The stage owns its setup gap: its Start is the barrier time, so
		// in linear mode stage durations sum to the application total and
		// the driver overhead lands in the measurements δ_scale is fitted
		// from.
		barrier := r.eng.Now()
		st.hdfsBusy0, st.localBusy0 = r.busySums()
		st := st
		r.eng.After(units.SecDuration(r.cfg.StageSetupOverhead.Seconds()), func() {
			r.launchStage(st, barrier)
		})
	}
}

// scheduleFinal marks a stage for end-of-instant processing and arms
// the finalizer. Completion bookkeeping and speculation decisions run
// in the engine's late phase, after every normal event at the current
// instant: both observe the instant's fully settled state, which makes
// them independent of same-time event interleaving — the property that
// lets the coalesced paths (fewer events per instant) stay
// byte-identical to the per-task path.
func (r *runner) scheduleFinal(st *stageState) {
	st.needsFinal = true
	if r.finalSet {
		return
	}
	r.finalSet = true
	r.eng.AtLate(r.eng.Now(), r.finalF)
}

// finalize is the end-of-instant pass: stages are visited in index
// order (a canonical order shared by every execution mode), completing
// those whose last task finished this instant and re-evaluating
// speculation on the rest.
func (r *runner) finalize() {
	r.finalSet = false
	for _, st := range r.states {
		if !st.needsFinal {
			continue
		}
		st.needsFinal = false
		if st.completed || r.err != nil {
			continue
		}
		if st.launched && st.remaining == 0 {
			r.completeStage(st)
		} else {
			r.maybeSpeculate(st)
		}
	}
}

// completeStage records the finished stage and unlocks its dependents.
// Integer aggregates were folded inline at multiplicity; the float
// accumulators (device utilisation, request counts) are folded here in
// real-node-id order, substituting the representative's row for every
// clean node — bit-identical to the per-task sums because the clean
// nodes' event sequences are identical to the representative's.
func (r *runner) completeStage(st *stageState) {
	st.res.End = r.eng.Now()
	st.res.Groups = st.groups
	hdfs, local := r.busySums()
	st.res.HDFSBusy = hdfs - st.hdfsBusy0
	st.res.LocalBusy = local - st.localBusy0
	for k := 0; k < numOpKinds; k++ {
		agg := st.io[k]
		if agg.ops == 0 {
			continue
		}
		var req float64
		for id := 0; id < r.cfg.Slaves; id++ {
			req += st.reqSub[r.byReal[id].si][k]
		}
		st.res.IO[OpKind(k)] = IOStat{Bytes: agg.bytes, Ops: agg.ops, Time: agg.time, Requests: req}
	}
	st.tasks = nil
	st.reqSub = nil
	st.med = nil
	st.completed = true
	r.done++
	if st.res.End > r.finishedAt {
		r.finishedAt = st.res.End
	}
	r.res.Stages = append(r.res.Stages, *st.res)
	r.launchReady()
}

func (r *runner) launchStage(st *stageState, barrier time.Duration) {
	if r.err != nil {
		return
	}
	stage := st.stage
	st.res = &StageResult{
		Name:  stage.Name,
		Start: barrier,
		Tasks: stage.Tasks(),
		IO:    make(map[OpKind]IOStat),
	}
	st.groups = make([]GroupResult, len(stage.Groups))
	st.remaining = stage.Tasks()
	st.reqSub = make([][numOpKinds]float64, len(r.ns))
	if r.cfg.Speculation {
		st.med = newMedianTracker(stage.Tasks())
		// Spark re-evaluates speculation on a timer
		// (spark.speculation.interval); completions alone would miss a
		// straggler tail that outlives the last normal task. The tick
		// routes through the finalizer so the decision always sees the
		// instant's settled state.
		var tick func()
		tick = func() {
			if st.completed || r.err != nil {
				return
			}
			r.scheduleFinal(st)
			r.eng.After(time.Second, tick)
		}
		r.eng.After(time.Second, tick)
	}
	// Size the logical-task slab: every clean node's share is the same
	// Σ⌊Count/Slaves⌋ tasks, and only the representative's copy of it is
	// dispatched.
	per := 0
	for _, g := range stage.Groups {
		per += g.Count / r.cfg.Slaves
	}
	dispatched := stage.Tasks() - (r.repMult-1)*per
	st.tasks = make([]taskState, dispatched)
	// Reserve every node's share of the dispatch records in one step.
	perNode := (dispatched + len(r.ns) - 1) / len(r.ns)
	for _, nd := range r.ns {
		nd.pending.recs = slices.Grow(nd.pending.recs, perNode)
	}
	ti := 0
	taskIdx := 0
	for gi, g := range stage.Groups {
		nOps := len(g.Ops)
		if g.GC != nil {
			nOps++ // trailing GC accounting slot
		}
		st.groups[gi] = GroupResult{
			Name:    g.Name,
			Count:   g.Count,
			OpTimes: make([]OpStat, nOps),
		}
		for t := 0; t < g.Count; t++ {
			idx := taskIdx
			taskIdx++
			home := idx % r.cfg.Slaves
			nd := r.byReal[home]
			if nd == r.rep && home != r.rep.id {
				continue // clean-cohort sibling: folded into the representative
			}
			mult := 1
			if nd == r.rep {
				mult = r.repMult
			}
			if r.faultsOn() {
				target := r.pickHealthy(home, nil)
				if target == nil {
					r.failApp(r.noHealthyNodes())
					return
				}
				if r.rep != nil && target != nd {
					// A diverted launch would land the task off its home
					// node; only blacklisting (which bails) or crashes
					// (never planned) divert — keep the invariant explicit.
					r.bail()
				}
				nd = target
			}
			r.enqueue(nd, dispatchRec{st: st, task: &st.tasks[ti], gi: gi, taskIdx: idx, mult: mult})
			ti++
		}
	}
}

// enqueue queues a dispatch for a core on nd. The core pool runs its
// waiters in Acquire order, so the k-th nd.dispatchF call pops the k-th
// record pushed here: each dispatch fires on the same engine event a
// per-call closure would, without allocating one.
func (r *runner) enqueue(nd *node, d dispatchRec) {
	nd.pending.push(d)
	nd.cores.Acquire(nd.dispatchF)
}

// dispatch runs when a core frees up for a queued task attempt: it
// re-validates the placement, allocates a pooled attempt, draws the
// attempt's fates, and begins the op walk.
func (r *runner) dispatch(st *stageState, task *taskState, nd *node, gi, taskIdx, mult int, speculative bool) {
	g := st.stage.Groups[gi]
	if r.faultsOn() {
		if task.done || r.err != nil {
			// The task finished (or the app failed) while this dispatch
			// waited in the core queue.
			nd.cores.Release()
			return
		}
		if nd.crashed || nd.blacklisted {
			// The node went away while the dispatch queued; bounce the
			// task to a healthy executor.
			nd.cores.Release()
			target := r.pickHealthy(nd.id+1, nil)
			if target == nil {
				r.failApp(r.noHealthyNodes())
				return
			}
			if target == r.rep {
				r.bail()
			}
			r.enqueue(target, dispatchRec{st: st, task: task, gi: gi, taskIdx: taskIdx, mult: mult, speculative: speculative})
			return
		}
	}
	task.attempts++
	task.inflight++
	a := r.newAttempt(st, task, nd, gi, g, taskIdx, mult, speculative)
	a.start = r.eng.Now()
	st.addRunning(a)
	if r.memOn() {
		r.reserveMem(st, a)
	}
	straggled := false
	if f := r.cfg.Faults; f.Enabled() {
		// Decide this attempt's fate up front, deterministically from
		// (seed, stage, task, attempt). The failure point is uniform over
		// the op boundaries, including the final one.
		if p := f.TaskFailureProb; p > 0 && r.faultHash01(st.idx, taskIdx, task.attempts, saltFailProb) < p {
			a.failAt = int(r.faultHash01(st.idx, taskIdx, task.attempts, saltFailAt) * float64(len(g.Ops)+1))
		}
		if q := f.ShuffleFetchFailureProb; q > 0 {
			for i, op := range g.Ops {
				if op.Kind != OpShuffleRead {
					continue
				}
				if r.faultHash01(st.idx, taskIdx, task.attempts, saltFetch+uint64(i)<<8) < q {
					a.fetchFailAt = i
					break
				}
			}
		}
	}
	a.jitter = r.jitterFactor(st.idx, taskIdx)
	// Speculative copies run clean: stragglers are machine-local and the
	// scheduler relaunches on a healthy node.
	if f := r.cfg.StragglerFraction; !speculative && f > 0 && r.hash01(st.idx, taskIdx, saltStraggler) < f {
		slow := r.cfg.StragglerSlowdown
		if slow < 1 {
			slow = 3
		}
		a.jitter *= slow
		straggled = true
	}
	if nd == r.rep && (a.failAt >= 0 || a.fetchFailAt >= 0 || straggled) {
		// The pre-draw plan promised the representative's tasks stay
		// clean; a live draw disagreeing means the plan is stale — replay
		// per-task rather than silently diverging.
		r.bail()
	}

	// JVM garbage collection pauses are spread through the task's
	// execution, so GC time is distributed over the I/O ops as coupled
	// compute (proportional to bytes); the device keeps serving other
	// tasks during the pauses. Groups without I/O fall back to a
	// trailing CPU block.
	a.gcTime, a.gcIOBytes = 0, 0
	if g.GC != nil {
		a.gcTime = g.GC(r.cfg.ExecutorCores)
		if a.gcTime < 0 {
			a.gcTime = 0
		}
		for _, op := range g.Ops {
			if op.Kind.IsIO() {
				a.gcIOBytes += op.Bytes
			}
		}
	}
	// Task launch overhead occupies the core before the first op.
	r.eng.After(units.SecDuration(r.cfg.TaskLaunchOverhead.Seconds()), a.launchF)
}

// newAttempt takes an attempt from the free list (or grows the pool),
// binding its callback closures exactly once per pooled object.
func (r *runner) newAttempt(st *stageState, task *taskState, nd *node, gi int, g TaskGroup, taskIdx, mult int, speculative bool) *attempt {
	a := r.freeA
	if a != nil {
		r.freeA = a.freeNext
		a.freeNext = nil
	} else {
		a = &attempt{r: r}
		a.launchF = a.launch
		a.stepF = a.step
		a.flowDoneF = a.flowDone
		a.gcDoneF = a.gcDone
		a.finishF = a.finish
	}
	a.st, a.task, a.nd = st, task, nd
	a.gi, a.g, a.taskIdx, a.mult = gi, g, taskIdx, mult
	a.speculative = speculative
	a.failAt, a.fetchFailAt = -1, -1
	a.lost = false
	a.memBytes, a.spill = 0, 0
	a.i, a.pending = 0, 0
	return a
}

// recycle returns a terminal attempt to the pool. Every terminal path
// (finish, stand-down, failure) runs at an op boundary, so no flow or
// engine event still references the attempt.
func (r *runner) recycle(a *attempt) {
	a.st, a.task, a.nd = nil, nil, nil
	a.g = TaskGroup{}
	a.freeNext = r.freeA
	r.freeA = a
}

// launch begins the op walk after the task-launch overhead (preceded
// by the up-front spill write when the memory layer charged one).
func (a *attempt) launch() {
	if a.spill > 0 {
		a.r.execSpill(a.st, a, OpSpillWrite, a.stepF)
		return
	}
	a.step()
}

// step advances the attempt to its next op boundary: the fault and
// stand-down checks, then the current op's execution.
func (a *attempt) step() {
	r, st, task := a.r, a.st, a.task
	if r.memOn() && r.memGate(a.nd, a.stepF) {
		// A GC pause on this node stalls the core until it ends; the
		// op re-dispatches at the pause boundary.
		return
	}
	if task.done {
		// A speculative sibling won: stand down at the op boundary
		// (Spark kills the slower attempt).
		a.standDown()
		return
	}
	if r.faultsOn() {
		if r.err != nil {
			// The application already failed; drain quietly.
			a.standDown()
			return
		}
		if a.lost {
			r.failAttempt(st, a, FailNodeLost)
			return
		}
		if a.i == a.fetchFailAt {
			r.fetchFail(st, a)
			return
		}
		if a.i == a.failAt {
			r.failAttempt(st, a, FailInjected)
			return
		}
	}
	g := a.g
	if a.i >= len(g.Ops) {
		// GC fallback for compute-only groups: a trailing pause.
		if a.gcTime > 0 && a.gcIOBytes == 0 {
			a.opStart = r.eng.Now()
			r.eng.After(a.gcTime, a.gcDoneF)
			return
		}
		a.endTask()
		return
	}
	op := g.Ops[a.i]
	if op.Kind == OpCompute {
		op.Duration = time.Duration(float64(op.Duration) * a.jitter)
	} else {
		if a.gcTime > 0 && a.gcIOBytes > 0 && op.Bytes > 0 {
			share := float64(op.Bytes) / float64(a.gcIOBytes)
			op.CoupledCompute += time.Duration(share * float64(a.gcTime))
		}
		if op.CoupledCompute > 0 {
			op.CoupledCompute = time.Duration(float64(op.CoupledCompute) * a.jitter)
		}
	}
	a.curOp = op
	a.opStart = r.eng.Now()
	a.execCurOp()
}

// gcDone accounts the trailing GC block and ends the task.
func (a *attempt) gcDone() {
	s := &a.st.groups[a.gi].OpTimes[len(a.g.Ops)]
	s.Kind = OpCompute
	s.Time += (a.r.eng.Now() - a.opStart) * time.Duration(a.mult)
	s.Count += a.mult
	a.endTask()
}

// endTask is the task boundary: with the memory layer off it IS
// finish, so the zero-heap event sequence is unchanged; with it on,
// the spill re-read and the occupancy-driven GC pause run first.
func (a *attempt) endTask() {
	if a.r.memOn() {
		a.r.memEpilogue(a.st, a, a.finishF)
		return
	}
	a.finish()
}

// finish completes the attempt: the first attempt of a task to finish
// wins; later ones notice at their next op boundary and stand down.
func (a *attempt) finish() {
	r, st, task := a.r, a.st, a.task
	st.removeRunning(a)
	task.inflight--
	a.nd.cores.Release()
	if task.done {
		r.recycle(a)
		return // a speculative sibling won
	}
	task.done = true
	dur := r.eng.Now() - a.start
	gr := &st.groups[a.gi]
	gr.TotalTaskTime += dur * time.Duration(a.mult)
	if st.med != nil {
		st.med.AddN(dur, a.mult)
	}
	st.remaining -= a.mult
	r.scheduleFinal(st)
	r.recycle(a)
}

// standDown abandons the attempt (speculative loser or post-error
// drain) at an op boundary.
func (a *attempt) standDown() {
	r := a.r
	r.releaseMem(a)
	a.st.removeRunning(a)
	a.task.inflight--
	a.nd.cores.Release()
	r.recycle(a)
}

// flowDone fires once per completed flow of the current op; the last
// one accounts the op and advances the walk.
func (a *attempt) flowDone() {
	a.pending--
	if a.pending > 0 {
		return
	}
	r, st, op := a.r, a.st, a.curOp
	elapsed := r.eng.Now() - a.opStart
	k := time.Duration(a.mult)
	s := &st.groups[a.gi].OpTimes[a.i]
	s.Kind = op.Kind
	s.Time += elapsed * k
	s.Bytes += op.Bytes * units.ByteSize(a.mult)
	s.Coupled += op.CoupledCompute * k
	s.Count += a.mult
	r.accountIO(st, a.nd, op, elapsed, a.mult)
	a.i++
	a.step()
}

// execCurOp performs a.curOp allocation-free, reusing the attempt's
// embedded flow pair. The rare recovery paths (spill, parent
// recompute) use the generic execOp instead.
func (a *attempt) execCurOp() {
	r, op := a.r, a.curOp
	a.pending = 1
	switch {
	case op.Kind == OpCompute:
		r.eng.After(max(op.Duration, 0), a.flowDoneF)
	case op.Bytes <= 0:
		r.eng.After(0, a.flowDoneF)
	default:
		a.pending = r.startFlows(a.st, a.nd, op, a.mult, &a.flow, &a.netFlow, a.flowDoneF)
	}
}

// startFlows starts an I/O op's flows on nd: the disk flow on the
// device the op addresses, at that device's bandwidth for the op's
// request size, and — when the NIC is modelled and the op moves remote
// bytes — a network flow beside it, whose bytes it charges to st at
// multiplicity mult. Both complete into done; it returns how many
// flows it started. flow and netFlow are the caller's flow structs; a
// nil one is allocated.
func (r *runner) startFlows(st *stageState, nd *node, op Op, mult int, flow, netFlow *sim.Flow, done func()) int {
	reqSize := op.DefaultReqSize(r.cfg.HDFSBlockSize)
	dev, res := r.cfg.HDFSDisk, nd.hdfs
	if op.Kind.OnLocal() {
		dev, res = r.cfg.LocalDisk, nd.local
	}
	var full units.Rate
	if op.Kind.IsRead() {
		full = dev.ReadBandwidth(reqSize)
	} else {
		full = dev.WriteBandwidth(reqSize)
	}

	diskBytes := op.Bytes
	var netBytes units.ByteSize
	switch op.Kind {
	case OpHDFSWrite:
		// dfs.replication copies: one local, the rest remote. The disk
		// load is symmetric across nodes, so we charge the full
		// replicated volume to this node's HDFS disk and the remote
		// copies to the NIC.
		diskBytes = op.Bytes * units.ByteSize(r.cfg.HDFSReplication)
		netBytes = op.Bytes * units.ByteSize(r.cfg.HDFSReplication-1)
	case OpShuffleRead:
		// A reducer pulls (N-1)/N of its input from remote mapper disks.
		// Disk load is symmetric; network carries the remote fraction.
		netBytes = units.ByteSize(float64(op.Bytes) * r.cfg.remoteFrac)
	}

	var computeRate units.Rate
	if op.CoupledCompute > 0 {
		computeRate = units.Over(diskBytes, op.CoupledCompute)
	}
	if flow == nil {
		flow = new(sim.Flow)
	}
	*flow = sim.Flow{
		Name:        op.Kind.String(),
		Bytes:       diskBytes,
		FullRate:    full,
		Cap:         op.StreamLimit,
		ComputeRate: computeRate,
		OnComplete:  done,
	}
	res.Start(flow)
	if !r.cfg.ModelNetwork || netBytes <= 0 {
		return 1
	}
	st.res.NetBytes += netBytes * units.ByteSize(mult)
	if netFlow == nil {
		netFlow = new(sim.Flow)
	}
	*netFlow = sim.Flow{
		Name:       netFlowNames[op.Kind],
		Bytes:      netBytes,
		FullRate:   r.cfg.NICRate,
		Cap:        op.StreamLimit,
		OnComplete: done,
	}
	nd.nic.Start(netFlow)
	return 2
}

// jitterFactor returns the deterministic per-task compute-time multiplier
// in [1-j, 1+j], derived from a splitmix64 hash of (seed, stage, task).
func (r *runner) jitterFactor(stageIdx, taskIdx int) float64 {
	j := r.cfg.ComputeJitter
	if j <= 0 {
		return 1
	}
	u := r.hash01(stageIdx, taskIdx, 0)
	return 1 - j + 2*j*u
}

// hash01 maps (seed, stage, task, salt) to a uniform [0,1) value via
// splitmix64.
func (r *runner) hash01(stageIdx, taskIdx int, salt uint64) float64 {
	x := r.cfg.Seed ^ (uint64(stageIdx)<<32 + uint64(taskIdx)) ^ (salt << 48)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// faultsOn reports whether the fault layer is active. Every fault-path
// behavior is gated on it so a zero-valued FaultConfig run is
// event-for-event identical to a run without the fault layer.
func (r *runner) faultsOn() bool { return r.cfg.Faults.Enabled() }

// memOn reports whether the memory layer is active. Like faultsOn,
// every memory-path behavior is gated on it so a zero-valued
// MemoryConfig run is event-for-event identical to a run without the
// memory layer (golden-pinned in internal/workloads).
func (r *runner) memOn() bool { return r.cfg.Memory.Enabled() }

// accountIO updates the stage-level iostat-style aggregation: integers
// inline at multiplicity, the float request count into the node's
// per-stage row (folded at completion; see completeStage). A completed
// stage's accounting is frozen — late ops of killed speculative
// attempts no longer shift it.
func (r *runner) accountIO(st *stageState, nd *node, op Op, elapsed time.Duration, mult int) {
	if !op.Kind.IsIO() || op.Bytes <= 0 || st.completed {
		return
	}
	bytes := op.Bytes
	if op.Kind == OpHDFSWrite {
		bytes *= units.ByteSize(r.cfg.HDFSReplication)
	}
	agg := &st.io[op.Kind]
	agg.time += elapsed * time.Duration(mult)
	agg.bytes += bytes * units.ByteSize(mult)
	agg.ops += mult
	if rs := op.DefaultReqSize(r.cfg.HDFSBlockSize); rs > 0 {
		st.reqSub[nd.si][op.Kind] += float64(bytes) / float64(rs)
	}
}

// execOp performs one op and calls done when it completes. This is the
// generic (allocating) form used by the recovery paths — spill traffic
// and parent recomputes; the hot per-task walk uses execCurOp.
func (r *runner) execOp(st *stageState, nd *node, op Op, done func()) {
	switch {
	case op.Kind == OpCompute:
		r.eng.After(max(op.Duration, 0), done)
	case op.Bytes <= 0:
		r.eng.After(0, done)
	default:
		pending := 0
		complete := func() {
			if pending--; pending == 0 {
				done()
			}
		}
		pending = r.startFlows(st, nd, op, 1, nil, nil, complete)
	}
}
