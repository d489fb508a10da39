package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/shardsvc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The paper's fleet: PatternEqual VMs with p_on = 0.01, p_off = 0.09 on PMs
// of capacity U[80, 100], ρ = 0.01 and d = 16 VMs per PM.
const (
	pOn, pOff      = 0.01, 0.09
	rho            = 0.01
	maxVMsPerPM    = 16
	capMin, capMax = 80.0, 100.0
)

const (
	// startStream domain-separates the draws of the fleet's start states
	// from the seed's other streams.
	startStream = 0x7374617274737461
	// fleetParts splits op-stream generation over goroutines. It is fixed,
	// not the core count, so the stream does not depend on the machine.
	fleetParts = 4
	// gapCV is the coefficient of variation of the open-loop Gamma gaps.
	gapCV = 3.5
	// prefillChunk is the ArriveBatch size of the prefill, small enough that
	// a federation's router spreads the population over its shards.
	prefillChunk = 512
	// openLoopWorkers bounds the open-loop requests in flight. Each worker
	// owns the VMs with id ≡ w (mod workers) and issues their ops in order.
	openLoopWorkers = 256
	// segmentSeconds is the nominal wall time of one closed-loop segment:
	// the saturation phase runs in sequential segments, and
	// saturation_ops_s is the mean of the middle half of the segment rates
	// (midMean), robust to a stall.
	segmentSeconds = 0.35
	// Shares of --seconds given to the low, high and saturation phases.
	lowShare, highShare, satShare = 0.15, 0.15, 0.7
)

// serveSpec sizes one serving workload.
type serveSpec struct {
	pms, specs int
	shards     int // 1 runs a single placesvc.Service
	// streamIntervals is the σ-intervals of the recorded base op stream,
	// which the phases replay back and forth (genOps).
	streamIntervals int
	// lowRate and highRate are the open-loop phases' fixed rates; satRate
	// is the nominal closed-loop rate that sizes the saturation phase. All
	// in ops/s; each phase issues rate × its share of --seconds ops.
	lowRate, highRate, satRate float64
	// setupReps is how often a run sets up in full (setup_s is the midMean);
	// placeReps is how often it builds and prefills a service in all
	// (setupReps full setups, then rebuilds on the last inputs; place_s is
	// the midMean).
	setupReps, placeReps int
}

var (
	serveSteady = serveSpec{
		pms: 10_000, specs: 40_000, shards: 1, streamIntervals: 256,
		lowRate: 20_000, highRate: 80_000, satRate: 200_000, setupReps: 13, placeReps: 90,
	}
	serveFedLarge = serveSpec{
		pms: 100_000, specs: 400_000, shards: 4, streamIntervals: 32,
		lowRate: 20_000, highRate: 60_000, satRate: 120_000, setupReps: 6, placeReps: 35,
	}
)

// backend is the admission surface the clients drive, satisfied by both
// *placesvc.Service and *shardsvc.Federation.
type backend interface {
	Arrive(vm cloud.VM) (int, error)
	ArriveBatch(vms []cloud.VM) ([]cloud.VM, error)
	Depart(vmID int) error
	Stats() placesvc.Stats
	QueueDepth() int
	Close() error
}

// op is one transition of the ON-OFF fleet: OFF→ON arrives the VM, ON→OFF
// departs it.
type op struct {
	id     int32
	arrive bool
}

// serveInputs is everything a serving run replays, generated before timing.
type serveInputs struct {
	vms     []cloud.VM
	pms     []cloud.PM
	prefill []cloud.VM // the VMs ON at the start of the op stream
	ops     []op       // the fleet's transitions, interval by interval
	// opsPerInterval converts an op count back to σ-intervals of the stream.
	opsPerInterval float64
	stepNs         []int64 // wall time of each full-fleet HashedFleet step
	dueLow         []int64 // open-loop due offsets (ns from phase start)
	dueHigh        []int64
}

// genServeInputs draws the fleet, the pool, the op stream (at least nOps
// transitions) and the Gamma gap schedules of the two open-loop phases.
func genServeInputs(sp serveSpec, seed int64, nOps, nLow, nHigh int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, sp.specs), rng)
	if err != nil {
		return nil, err
	}
	pms, err := workload.GeneratePMs(sp.pms, capMin, capMax, rng)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{vms: vms, pms: pms}
	if err := in.genOps(seed, sp.streamIntervals, nOps); err != nil {
		return nil, err
	}
	gapRNG := rand.New(rand.NewSource(seed ^ 0x6761707363686564))
	if in.dueLow, err = dueTimes(sp.lowRate, nLow, gapRNG); err != nil {
		return nil, err
	}
	if in.dueHigh, err = dueTimes(sp.highRate, nHigh, gapRNG); err != nil {
		return nil, err
	}
	return in, nil
}

// dueTimes returns n cumulative Gamma(CV 3.5) arrival offsets at rate/s.
func dueTimes(rate float64, n int, rng *rand.Rand) ([]int64, error) {
	ap, err := workload.NewArrivalProcess(rate, gapCV, rng)
	if err != nil {
		return nil, err
	}
	due := make([]int64, n)
	var t int64
	for i := range due {
		t += ap.NextGapNs()
		due[i] = t
	}
	return due, nil
}

// genOps draws every VM's start state from the ON-OFF chain's stationary
// law (ON with probability p_on/(p_on+p_off)); the VMs that start ON are the
// prefill. It then steps HashedFleets over fleetParts interleaved partitions
// of the fleet (each VM's trajectory depends only on the seed and its id,
// so the split is exact) and records the transitions of intervals
// σ-intervals: the base stream. Within an interval ops are ordered by
// partition, then by VM order inside it.
//
// The stream is then extended to at least want ops by replaying the base
// stream backwards and forwards in turn. Backwards, each op is inverted (an
// arrival becomes the departure of that VM and vice versa), so the replay
// walks the fleet back to the prefill state and the next forward replay
// starts where the base stream did. A two-state Markov chain is reversible,
// so the backward replay is itself an ON-OFF trajectory of the stationary
// fleet. The extension keeps set-up time independent of --seconds.
func (in *serveInputs) genOps(seed int64, intervals, want int) error {
	rng := rand.New(rand.NewSource(seed ^ startStream))
	on := make([]bool, len(in.vms))
	for i, vm := range in.vms {
		if on[i] = rng.Float64() < vm.POn/(vm.POn+vm.POff); on[i] {
			in.prefill = append(in.prefill, vm)
		}
	}
	parts := make([]*fleetPart, fleetParts)
	for p := range parts {
		fp := &fleetPart{}
		var err error
		if fp.fleet, err = workload.NewHashedFleet(nil, seed); err != nil {
			return err
		}
		for i := p; i < len(in.vms); i += fleetParts {
			start := markov.Off
			if on[i] {
				start = markov.On
			}
			if err := fp.fleet.Add(in.vms[i], start); err != nil {
				return err
			}
			fp.vms = append(fp.vms, in.vms[i])
			fp.on = append(fp.on, on[i])
		}
		parts[p] = fp
	}
	var wg sync.WaitGroup
	for _, fp := range parts {
		wg.Add(1)
		go func(fp *fleetPart) {
			defer wg.Done()
			fp.step(intervals)
		}(fp)
	}
	wg.Wait()
	for t := 0; t < intervals; t++ {
		var ns int64
		for _, fp := range parts {
			ns += fp.stepNs[t]
			in.ops = append(in.ops, fp.ops[t]...)
		}
		in.stepNs = append(in.stepNs, ns)
	}
	base := len(in.ops)
	if base == 0 {
		return fmt.Errorf("the fleet made no transition in %d intervals", intervals)
	}
	in.opsPerInterval = float64(base) / float64(intervals)
	for backward := true; len(in.ops) < want; backward = !backward {
		if !backward {
			in.ops = append(in.ops, in.ops[:base]...)
			continue
		}
		for i := base - 1; i >= 0; i-- {
			in.ops = append(in.ops, op{id: in.ops[i].id, arrive: !in.ops[i].arrive})
		}
	}
	return nil
}

// fleetPart is one generation partition and its output.
type fleetPart struct {
	fleet  *workload.HashedFleet
	vms    []cloud.VM
	on     []bool
	ops    [][]op
	stepNs []int64
}

func (fp *fleetPart) step(intervals int) {
	for t := 0; t < intervals; t++ {
		start := time.Now()
		fp.fleet.Step(nil)
		fp.stepNs = append(fp.stepNs, time.Since(start).Nanoseconds())
		states := fp.fleet.States()
		var ops []op
		for i, vm := range fp.vms {
			now := states[vm.ID] == markov.On
			if now != fp.on[i] {
				fp.on[i] = now
				ops = append(ops, op{id: int32(vm.ID), arrive: now})
			}
		}
		fp.ops = append(fp.ops, ops)
	}
}

// serveEnv is one built and prefilled service.
type serveEnv struct {
	b      backend
	svc    *placesvc.Service    // single-service workloads
	fed    *shardsvc.Federation // federated workloads
	reg    *telemetry.Registry  // traced envs only
	tables *queuing.TableCache
	live   []bool // client-side view: VM id → placed; partitioned by id across goroutines

	setup, gen, build, place, tableBuild time.Duration
	prefillRejected                      int
	// retained is the live heap the built and prefilled service holds; 0
	// unless buildEnv was asked to measure it.
	retained uint64
}

// strategy is the QUEUE admission policy every serving layer runs.
func strategy(tables *queuing.TableCache) core.QueuingFFD {
	return core.QueuingFFD{Rho: rho, MaxVMsPerPM: maxVMsPerPM, Tables: tables}
}

// setupServe generates the inputs and builds a prefilled env on them,
// measuring its retained heap when measureHeap is set.
func setupServe(sp serveSpec, seed int64, nOps, nLow, nHigh int, reg *telemetry.Registry, measureHeap bool) (*serveInputs, *serveEnv, error) {
	runtime.GC() // start every rep from the same heap, outside the timing
	start := time.Now()
	in, err := genServeInputs(sp, seed, nOps, nLow, nHigh)
	if err != nil {
		return nil, nil, err
	}
	gen := time.Since(start)
	env, err := buildEnv(sp, seed, in, reg, measureHeap)
	if err != nil {
		return nil, nil, err
	}
	env.setup = gen + env.build
	env.gen = gen
	return in, env, nil
}

// buildEnv solves the mapping table on a fresh cache, builds the service and
// prefills it to the stationary population. With measureHeap it also
// measures the live heap the service holds once prefilled, by collecting
// garbage before and after, outside the timings.
func buildEnv(sp serveSpec, seed int64, in *serveInputs, reg *telemetry.Registry, measureHeap bool) (*serveEnv, error) {
	env := &serveEnv{reg: reg, live: make([]bool, len(in.vms))}
	var before uint64
	if measureHeap {
		before = liveHeap()
	}
	start := time.Now()
	env.tables = queuing.NewTableCache()
	if _, err := env.tables.NewMappingTable(maxVMsPerPM, pOn, pOff, rho); err != nil {
		return nil, err
	}
	env.tableBuild = time.Since(start)
	var err error
	if sp.shards > 1 {
		env.fed, err = shardsvc.New(shardsvc.Config{
			Strategy:  strategy(env.tables),
			PMs:       in.pms,
			POn:       pOn,
			POff:      pOff,
			MaxShards: sp.shards,
			Seed:      uint64(seed),
			Workers:   runtime.GOMAXPROCS(0),
			Registry:  reg,
			Rebalance: shardsvc.RebalanceConfig{Interval: 50 * time.Millisecond},
		})
		env.b = env.fed
	} else {
		env.svc, err = placesvc.New(placesvc.Config{
			Strategy: strategy(env.tables),
			PMs:      in.pms,
			POn:      pOn,
			POff:     pOff,
			Workers:  runtime.GOMAXPROCS(0),
			Registry: reg,
		})
		env.b = env.svc
	}
	if err != nil {
		return nil, err
	}
	built := time.Since(start)
	// No GC is forced before the prefill. The prefill allocates about as much
	// as a GC cycle's headroom, so from a freshly collected heap whether a
	// collection lands inside it depends on the seed's input sizes and splits
	// seeds into a fast and a slow group; from wherever the last rep left
	// the GC cycle, the mean of the middle half of the reps (midMean) takes
	// the collection's cost at its typical share.
	t := time.Now()
	for lo := 0; lo < len(in.prefill); lo += prefillChunk {
		chunk := in.prefill[lo:min(lo+prefillChunk, len(in.prefill))]
		unplaced, err := env.b.ArriveBatch(chunk)
		if err != nil {
			env.b.Close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
		for _, vm := range chunk {
			env.live[vm.ID] = true
		}
		for _, vm := range unplaced {
			env.live[vm.ID] = false
		}
		env.prefillRejected += len(unplaced)
	}
	env.place = time.Since(t)
	env.build = built + env.place
	if measureHeap {
		after := liveHeap()
		env.retained = after - min(before, after)
	}
	return env, nil
}

// callRec is one traced call: kind, start and end offsets from phase start.
type callRec struct {
	arrive     bool
	start, end int64
}

// workerStats accumulates one client goroutine's view of a phase.
type workerStats struct {
	attempted, succeeded, rejected, skipped int64
	arrivals                                int64
	err                                     error
	admitNs, departNs                       []int64 // latency samples
	calls                                   []callRec
}

// do issues one op. It returns false when the op does not apply: a
// departure of a VM whose arrival was refused.
func (e *serveEnv) do(ws *workerStats, o op, vm cloud.VM) (issued bool) {
	if o.arrive {
		if e.live[o.id] {
			return false
		}
		ws.attempted++
		ws.arrivals++
		_, err := e.b.Arrive(vm)
		switch {
		case err == nil:
			e.live[o.id] = true
			ws.succeeded++
		case errors.Is(err, cloud.ErrNoCapacity):
			ws.rejected++
		case ws.err == nil:
			ws.err = fmt.Errorf("arrive VM %d: %w", vm.ID, err)
		}
		return true
	}
	if !e.live[o.id] {
		return false
	}
	ws.attempted++
	if err := e.b.Depart(int(o.id)); err != nil {
		if ws.err == nil {
			ws.err = fmt.Errorf("depart VM %d: %w", vm.ID, err)
		}
		return true
	}
	e.live[o.id] = false
	ws.succeeded++
	return true
}

// phaseStats is one phase: its workers merged, plus the phase's timing.
type phaseStats struct {
	name string
	workerStats
	lagNs    []int64 // open loop: how late the dispatcher issued each op
	start    time.Time
	wall     time.Duration
	segments []segment // closed loop only
}

// mergeWorkers sums the workers' counts and samples, keeping the first
// error and at most callsPerWorker traced calls of each.
func mergeWorkers(name string, ws []workerStats, callsPerWorker int) *phaseStats {
	ps := &phaseStats{name: name}
	for i := range ws {
		w := &ws[i]
		ps.attempted += w.attempted
		ps.succeeded += w.succeeded
		ps.rejected += w.rejected
		ps.skipped += w.skipped
		ps.arrivals += w.arrivals
		if ps.err == nil {
			ps.err = w.err
		}
		ps.admitNs = append(ps.admitNs, w.admitNs...)
		ps.departNs = append(ps.departNs, w.departNs...)
		ps.calls = append(ps.calls, w.calls[:min(len(w.calls), callsPerWorker)]...)
	}
	return ps
}

// openPlan is one open-loop phase's ops and the client's buffers for them,
// allocated before the pass so that the pass's heap figure leaves them out.
type openPlan struct {
	name  string
	ops   []op
	due   []int64    // due offsets from phase start
	chans []chan int // per worker, sized to its sends so the dispatcher never blocks
	lag   []int64    // how late the dispatcher issued each op
	lat   []int64    // each op's latency from its due time; -1 when not issued
}

func newOpenPlan(name string, ops []op, due []int64) *openPlan {
	counts := make([]int, openLoopWorkers)
	for _, o := range ops {
		counts[int(o.id)%openLoopWorkers]++
	}
	p := &openPlan{name: name, ops: ops, due: due, chans: make([]chan int, openLoopWorkers),
		lag: make([]int64, len(ops)), lat: make([]int64, len(ops))}
	for w := range p.chans {
		p.chans[w] = make(chan int, counts[w])
	}
	return p
}

// samples returns the latency samples of the issued arrivals and departures.
func (p *openPlan) samples() (admitNs, departNs []int64) {
	for i, l := range p.lat {
		switch {
		case l < 0:
		case p.ops[i].arrive:
			admitNs = append(admitNs, l)
		default:
			departNs = append(departNs, l)
		}
	}
	return admitNs, departNs
}

// openLoop issues the plan's ops at their due offsets from one dispatcher,
// whatever the service's progress, and times each call from when it was
// due. The latency samples are left in the plan.
func (e *serveEnv) openLoop(p *openPlan, in *serveInputs, traced bool) *phaseStats {
	const workers = openLoopWorkers
	ops, due, chans, lag := p.ops, p.due, p.chans, p.lag
	ws := make([]workerStats, workers)
	start := time.Now().Add(time.Millisecond) // let the workers park first
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &ws[w]
			for i := range chans[w] {
				o := ops[i]
				t0 := time.Now()
				if !e.do(s, o, in.vms[o.id]) {
					s.skipped++
					p.lat[i] = -1
					continue
				}
				t1 := time.Now()
				p.lat[i] = t1.Sub(start.Add(time.Duration(due[i]))).Nanoseconds()
				if traced {
					s.calls = append(s.calls, callRec{o.arrive, t0.Sub(start).Nanoseconds(), t1.Sub(start).Nanoseconds()})
				}
			}
		}(w)
	}
	for i, o := range ops {
		at := start.Add(time.Duration(due[i]))
		waitUntil(at)
		lag[i] = time.Since(at).Nanoseconds()
		chans[int(o.id)%workers] <- i
	}
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	ps := mergeWorkers(p.name, ws, max(1, maxSpansPerName/workers))
	ps.lagNs = lag
	ps.start = start
	ps.wall = time.Since(start)
	return ps
}

// waitUntil returns at t. Go timers wake an idle process up to a
// millisecond late, longer than most gaps, so it sleeps in nanosleep(2)
// until shortly before t and yields the processor until t.
func waitUntil(t time.Time) {
	const slack = 100 * time.Microsecond // nanosleep's usual overshoot, with margin
	if d := time.Until(t) - slack; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just yields longer below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs one client per core, each issuing the ops of the VMs with
// id ≡ c (mod clients) back to back; it times every call when traced. The
// ops run in the given number of sequential segments, each timed on its own.
func (e *serveEnv) closedLoop(name string, in *serveInputs, ops []op, clients, segments int, traced bool) *phaseStats {
	ws := make([]workerStats, clients)
	var segs []segment
	start := time.Now()
	for seg := 0; seg < segments; seg++ {
		lo, hi := seg*len(ops)/segments, (seg+1)*len(ops)/segments
		if lo == hi {
			continue
		}
		var before int64
		for i := range ws {
			before += ws[i].attempted
		}
		segStart := readCPUClock()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				e.clientLoop(&ws[c], in, ops[lo:hi], c, clients, start, traced)
			}(c)
		}
		wg.Wait()
		segEnd := readCPUClock()
		sg := segment{ops: int64(hi - lo), wall: segEnd.wall.Sub(segStart.wall), unstolen: segStart.unstolen(segEnd)}
		for i := range ws {
			sg.attempted += ws[i].attempted
		}
		sg.attempted -= before
		segs = append(segs, sg)
	}
	ps := mergeWorkers(name, ws, max(1, maxSpansPerName/clients))
	ps.start = start
	ps.wall = time.Since(start)
	ps.segments = segs
	return ps
}

// clientLoop issues, back to back, the ops of the VMs with id ≡ c (mod
// clients).
func (e *serveEnv) clientLoop(s *workerStats, in *serveInputs, ops []op, c, clients int, start time.Time, traced bool) {
	for _, o := range ops {
		if int(o.id)%clients != c {
			continue
		}
		if !traced {
			if !e.do(s, o, in.vms[o.id]) {
				s.skipped++
			}
			continue
		}
		t0 := time.Now()
		if !e.do(s, o, in.vms[o.id]) {
			s.skipped++
			continue
		}
		t1 := time.Now()
		if o.arrive {
			s.admitNs = append(s.admitNs, t1.Sub(t0).Nanoseconds())
		} else {
			s.departNs = append(s.departNs, t1.Sub(t0).Nanoseconds())
		}
		s.calls = append(s.calls, callRec{o.arrive, t0.Sub(start).Nanoseconds(), t1.Sub(start).Nanoseconds()})
	}
}

// segment is one timed slice of the closed-loop phase.
type segment struct {
	ops, attempted int64
	wall, unstolen time.Duration
}

// rates returns the segment rate in ops/s and in op-stream σ-intervals/s,
// each segment timed over its unstolen wall time (see cpuClock.unstolen),
// and the rate over plain wall time; each is the mean of the middle half of
// the segments' rates (see midMean).
func (ps *phaseStats) rates(opsPerInterval float64) (opsPerSec, intervalsPerSec, wallOpsPerSec float64) {
	var r, iv, w []float64
	for _, sg := range ps.segments {
		r = append(r, float64(sg.attempted)/sg.unstolen.Seconds())
		iv = append(iv, float64(sg.ops)/opsPerInterval/sg.unstolen.Seconds())
		w = append(w, float64(sg.attempted)/sg.wall.Seconds())
	}
	return midMean(r), midMean(iv), midMean(w)
}

// passResult is one low → high → saturation pass over an env.
type passResult struct {
	phases []*phaseStats // low, high, saturation
	// peakHeap is the service's peak live heap during the pass: what it held
	// before the pass plus its peak growth. baseHeap is the rest of the live
	// heap before the pass: the inputs, the client's buffers and any other
	// env.
	peakHeap, baseHeap uint64
	depthMax           int
	before             placesvc.Stats
	after              placesvc.Stats
}

func (p *passResult) sat() *phaseStats { return p.phases[2] }

// runPass replays ops through the three phases: open loop at the low rate,
// open loop at the high rate, then nproc closed-loop clients.
func (e *serveEnv) runPass(in *serveInputs, nLow, nHigh, nSat, segments int, traced bool) *passResult {
	pr := &passResult{before: e.b.Stats()}
	var depthMax int
	var probe func()
	if traced {
		probe = func() { depthMax = max(depthMax, e.b.QueueDepth()) }
	}
	ops := in.ops
	plans := []*openPlan{
		newOpenPlan("low", ops[:nLow], in.dueLow[:nLow]),
		newOpenPlan("high", ops[nLow:nLow+nHigh], in.dueHigh[:nHigh]),
	}
	base := liveHeap()
	smp := startSampler(5*time.Millisecond, probe)
	for _, p := range plans {
		pr.phases = append(pr.phases, e.openLoop(p, in, traced))
	}
	pr.phases = append(pr.phases, e.closedLoop("saturation", in, ops[nLow+nHigh:nLow+nHigh+nSat], runtime.NumCPU(), segments, traced))
	peak := smp.Stop()
	pr.baseHeap = base - min(e.retained, base)
	pr.peakHeap = peak - min(pr.baseHeap, peak)
	for i, p := range plans {
		pr.phases[i].admitNs, pr.phases[i].departNs = p.samples()
	}
	pr.depthMax = depthMax
	pr.after = e.b.Stats()
	return pr
}

// shardStates materialises every shard's final snapshot; the duration is
// the materialisation cost.
func (e *serveEnv) shardStates() ([]shardState, time.Duration, error) {
	var snaps []*placesvc.Snapshot
	if e.fed != nil {
		snaps = e.fed.ShardSnapshots()
	} else {
		snaps = []*placesvc.Snapshot{e.svc.Snapshot()}
	}
	start := time.Now()
	states := make([]shardState, len(snaps))
	for i, s := range snaps {
		p, err := s.Placement()
		if err != nil {
			return nil, 0, fmt.Errorf("materialising shard %d: %w", i, err)
		}
		states[i] = shardState{placement: p, table: s.Table()}
	}
	return states, time.Since(start), nil
}

// epochs sums the shards' snapshot epochs: how often the committers swapped
// their snapshot base (adoptions plus clone rebuilds).
func (e *serveEnv) epochs() uint64 {
	if e.fed != nil {
		var n uint64
		for _, s := range e.fed.ShardSnapshots() {
			n += s.Epoch()
		}
		return n
	}
	return e.svc.Snapshot().Epoch()
}

// runServe sets the workload up sp.setupReps times, measures one pass (two in
// a traced run: untraced, then traced, each on its own env over the same op
// prefix), and checks every env it measured.
func runServe(sp serveSpec, rc runConfig) (*outcome, error) {
	sp.pms = max(1, int(float64(sp.pms)*rc.scale))
	sp.specs = max(1, int(float64(sp.specs)*rc.scale))
	nLow := max(1, int(sp.lowRate*lowShare*rc.seconds))
	nHigh := max(1, int(sp.highRate*highShare*rc.seconds))
	nSat := max(1, int(sp.satRate*satShare*rc.seconds))
	if rc.trace {
		nLow, nHigh, nSat = max(1, nLow/2), max(1, nHigh/2), max(1, nSat/2)
	}
	nOps := nLow + nHigh + nSat
	satSegs := max(1, int(float64(nSat)/(sp.satRate*segmentSeconds)+0.5))

	// Every setup rep is a full setup, every build rep a service rebuilt and
	// prefilled on the latest inputs. About half of the reps of each kind run
	// before the passes and the rest after them, so that setup_s and place_s
	// sample the whole run rather than one stretch of it. The last setups before the
	// passes are kept: one env for the untraced pass and, in a traced run, a
	// second identical one for the traced pass.
	var (
		in                           *serveInputs
		envs                         []*serveEnv
		setups, places, tables, gens []float64
		setupReps, placeReps         stealShare
	)
	defer func() {
		for _, e := range envs {
			e.b.Close()
		}
	}()
	setup := func(reg *telemetry.Registry, keep bool) error {
		var env *serveEnv
		var err error
		time.Sleep(repGap)
		c0 := readCPUClock()
		if in, env, err = setupServe(sp, rc.seed, nOps, nLow, nHigh, reg, keep); err != nil {
			return err
		}
		c1 := readCPUClock()
		setupReps.add(c0, c1)
		placeReps.add(c0, c1)
		setups = append(setups, env.setup.Seconds())
		gens = append(gens, env.gen.Seconds())
		places = append(places, env.place.Seconds())
		tables = append(tables, float64(env.tableBuild.Nanoseconds())/1e6)
		if keep {
			envs = append(envs, env)
		} else {
			env.b.Close()
		}
		return nil
	}
	rebuild := func(n int) error {
		for ; n > 0; n-- {
			time.Sleep(repGap)
			c0 := readCPUClock()
			env, err := buildEnv(sp, rc.seed, in, nil, false)
			if err != nil {
				return err
			}
			placeReps.add(c0, readCPUClock())
			places = append(places, env.place.Seconds())
			env.b.Close()
		}
		return nil
	}
	preSetups := max(2, sp.setupReps-sp.setupReps/2)
	preBuilds := (sp.placeReps - sp.setupReps) / 2
	for r := 0; r < preSetups; r++ {
		var reg *telemetry.Registry
		if rc.trace && r == preSetups-1 {
			reg = telemetry.NewRegistry()
		}
		if err := setup(reg, r == preSetups-1 || (rc.trace && r == preSetups-2)); err != nil {
			return nil, err
		}
	}
	if err := rebuild(preBuilds); err != nil {
		return nil, err
	}

	o := newOutcome()
	o.set("workload.fleet_step_ms.p50", quantile(in.stepNs, 0.5)/1e6, "ms")
	o.set("prefill_vms", float64(len(in.prefill)), "count")
	if err := measurePasses(o, rc, in, envs, nLow, nHigh, nSat, satSegs); err != nil {
		return nil, err
	}
	for _, e := range envs {
		e.b.Close() // idle from here on; the deferred Close is a no-op
	}

	for r := preSetups; r < sp.setupReps; r++ {
		if err := setup(nil, false); err != nil {
			return nil, err
		}
	}
	if err := rebuild(sp.placeReps - sp.setupReps - preBuilds); err != nil {
		return nil, err
	}
	o.set("setup_s", midMean(setups)*setupReps.unstolen(), "s")
	o.set("place_s", midMean(places)*placeReps.unstolen(), "s")
	o.set("setup_s.wall", midMean(setups), "s")
	o.set("place_s.wall", midMean(places), "s")
	o.set("setup.inputs_s", midMean(gens), "s")
	o.set("queuing.table_build_ms", median(tables), "ms")
	return o, nil
}

// measurePasses runs the untraced pass on envs[0] and, in a traced run, the
// traced pass on envs[1], and checks each env after its pass. A failed check
// is left in o.checkErr.
func measurePasses(o *outcome, rc runConfig, in *serveInputs, envs []*serveEnv, nLow, nHigh, nSat, segments int) error {
	// End-to-end numbers come from the untraced pass.
	steal := startSteal()
	untr := envs[0].runPass(in, nLow, nHigh, nSat, segments, false)
	if p, ok := steal.pct(); ok {
		o.set("machine.steal_pct", p, "%")
	}
	opsRate, ivRate, wallRate := untr.sat().rates(in.opsPerInterval)
	o.set("saturation_ops_s", opsRate, "ops/s")
	o.set("saturation_ops_s.wall", wallRate, "ops/s")
	o.set("sim_intervals_s", ivRate, "1/s")
	o.set("peak_heap_mb", mb(untr.peakHeap), "MB")
	o.set("heap.service_retained_mb", mb(envs[0].retained), "MB")
	o.set("heap.baseline_mb", mb(untr.baseHeap), "MB")
	o.set("pms_used", float64(envs[0].b.Stats().UsedPMs), "count")
	var arrivals, rejected int64
	for _, ps := range untr.phases {
		o.attempted += ps.attempted
		o.failed += ps.rejected
		arrivals += ps.arrivals
		rejected += ps.rejected
		if ps.name != "saturation" {
			o.set("admit_p50_us."+ps.name, quantile(ps.admitNs, 0.50)/1e3, "us")
			o.set("admit_p99_us."+ps.name, quantile(ps.admitNs, 0.99)/1e3, "us")
			o.set("admit_samples."+ps.name, float64(len(ps.admitNs)), "count")
			o.set("client.lag_p50_us."+ps.name, quantile(ps.lagNs, 0.50)/1e3, "us")
			o.set("client.lag_p99_us."+ps.name, quantile(ps.lagNs, 0.99)/1e3, "us")
			o.set("client.rate_ops_s."+ps.name, float64(ps.attempted+ps.skipped)/ps.wall.Seconds(), "ops/s")
		}
	}
	o.set("rejected_frac", float64(rejected)/float64(max(1, arrivals)), "ratio")
	o.set("prefill_rejected", float64(envs[0].prefillRejected), "count")
	if _, o.checkErr = checkEnv(envs[0], untr); o.checkErr != nil || !rc.trace {
		return nil
	}
	envs[0].b.Close()

	traced := envs[1].runPass(in, nLow, nHigh, nSat, segments, true)
	materialise, err := checkEnv(envs[1], traced)
	if o.checkErr = err; err != nil {
		return nil
	}
	layerMetrics(o, envs[1], traced, untr, in)
	o.set("placesvc.materialise_ms", float64(materialise.Nanoseconds())/1e6, "ms")
	return onlineFloor(o, in, nLow+nHigh+nSat)
}

// checkEnv runs the serving correctness checks on one measured env and
// returns what materialising its final snapshots cost.
func checkEnv(e *serveEnv, pr *passResult) (time.Duration, error) {
	for _, ps := range pr.phases {
		if ps.err != nil {
			return 0, ps.err
		}
	}
	states, dur, err := e.shardStates()
	if err != nil {
		return 0, err
	}
	return dur, checkServing(states, e.b.Stats(), e.live)
}

// layerMetrics fills the traced run's per-layer numbers.
func layerMetrics(o *outcome, e *serveEnv, tr, untr *passResult, in *serveInputs) {
	rec := newRecorder(tr.phases[0].start)
	layer := "placesvc"
	if e.fed != nil {
		layer = "shardsvc"
	}
	var attempted, succeeded, failed int64
	for _, ps := range tr.phases {
		attempted += ps.attempted
		succeeded += ps.succeeded
		failed += ps.rejected
		o.set("client.ops_attempted."+ps.name, float64(ps.attempted), "count")
		o.set("client.ops_succeeded."+ps.name, float64(ps.succeeded), "count")
		o.set("client.ops_failed."+ps.name, float64(ps.rejected), "count")
		if ps.name != "saturation" {
			o.set("client.lag_p99_us."+ps.name, quantile(ps.lagNs, 0.99)/1e3, "us")
		}
		phaseID := rec.add(0, "client", "phase."+ps.name, ps.start, ps.start.Add(ps.wall))
		for _, c := range ps.calls {
			name := "Depart"
			if c.arrive {
				name = "Arrive"
			}
			rec.add(phaseID, layer, name, ps.start.Add(time.Duration(c.start)), ps.start.Add(time.Duration(c.end)))
		}
	}
	o.attempted, o.failed = attempted, failed
	o.set("client.ops_attempted", float64(attempted), "count")
	o.set("client.ops_succeeded", float64(succeeded), "count")
	o.set("client.ops_failed", float64(failed), "count")
	o.spans, o.spanCount = rec.spans, rec.count

	o.set("queuing.table_solves", float64(e.tables.Solves()), "count")
	o.set("queuing.table_hits", float64(e.tables.Hits()), "count")

	ts := tr.sat()
	uOps, uIv, _ := untr.sat().rates(in.opsPerInterval)
	tOps, tIv, _ := ts.rates(in.opsPerInterval)
	o.set("trace.saturation_ops_s.untraced", uOps, "ops/s")
	o.set("trace.saturation_ops_s.traced", tOps, "ops/s")
	o.set("trace.sim_intervals_s.untraced", uIv, "1/s")
	o.set("trace.sim_intervals_s.traced", tIv, "1/s")

	o.set("placesvc.arrive_us.p50", quantile(ts.admitNs, 0.50)/1e3, "us")
	o.set("placesvc.arrive_us.p99", quantile(ts.admitNs, 0.99)/1e3, "us")
	o.set("placesvc.depart_us.p50", quantile(ts.departNs, 0.50)/1e3, "us")
	o.set("placesvc.depart_us.p99", quantile(ts.departNs, 0.99)/1e3, "us")
	o.set("placesvc.mean_batch", float64(tr.after.Requests-tr.before.Requests)/float64(max(1, tr.after.Commits-tr.before.Commits)), "requests")
	o.set("placesvc.queue_depth_max", float64(tr.depthMax), "count")
	o.set("placesvc.snapshot_epochs", float64(e.epochs()), "count")
	if e.reg != nil && e.fed == nil {
		snap := e.reg.Snapshot()
		qw := snap.Histograms["placesvc_queue_latency_seconds"]
		o.set("placesvc.queue_wait_us.p50", qw.Quantile(0.50)*1e6, "us")
		o.set("placesvc.queue_wait_us.p99", qw.Quantile(0.99)*1e6, "us")
		o.set("placesvc.snapshot_rebuilds", float64(snap.Counters["placesvc_snapshot_rebuilds_total"]), "count")
		o.set("placesvc.snapshot_adoptions", float64(snap.Counters["placesvc_snapshot_adoptions_total"]), "count")
	}
	if e.fed != nil {
		fs := e.fed.FedStats()
		lo, hi := fs.Routed[0], fs.Routed[0]
		for _, n := range fs.Routed {
			lo, hi = min(lo, n), max(hi, n)
		}
		o.set("shardsvc.route_skew", float64(hi)/float64(max(1, lo)), "ratio")
		o.set("shardsvc.forwards", float64(fs.Forwards), "count")
		o.set("shardsvc.rebalance_rounds", float64(fs.RebalanceRounds), "count")
		o.set("shardsvc.rebalance_moves", float64(fs.RebalanceMoves), "count")
		o.set("shardsvc.rebalance_failed", float64(fs.RebalanceFailed), "count")
		t := time.Now()
		if _, err := e.fed.RebalanceOnce(); err != nil && o.checkErr == nil {
			o.checkErr = fmt.Errorf("rebalance: %w", err)
		}
		o.set("shardsvc.rebalance_once_ms", float64(time.Since(t).Nanoseconds())/1e6, "ms")
	}
}

// onlineFloor replays the prefill and the measured op prefix through a bare
// core.Online over the same pool, timing each call: the engine's cost
// without the service's queue hop.
func onlineFloor(o *outcome, in *serveInputs, n int) error {
	on, err := core.NewOnline(strategy(queuing.NewTableCache()), in.pms, pOn, pOff)
	if err != nil {
		return err
	}
	live := make([]bool, len(in.vms))
	for lo := 0; lo < len(in.prefill); lo += prefillChunk {
		chunk := in.prefill[lo:min(lo+prefillChunk, len(in.prefill))]
		unplaced, err := on.ArriveBatch(chunk)
		if err != nil {
			return err
		}
		for _, vm := range chunk {
			live[vm.ID] = true
		}
		for _, vm := range unplaced {
			live[vm.ID] = false
		}
	}
	var arriveNs, departNs []int64
	for _, op := range in.ops[:n] {
		vm := in.vms[op.id]
		switch {
		case op.arrive && !live[op.id]:
			t := time.Now()
			_, err := on.Arrive(vm)
			arriveNs = append(arriveNs, time.Since(t).Nanoseconds())
			if err == nil {
				live[op.id] = true
			} else if !errors.Is(err, cloud.ErrNoCapacity) {
				return err
			}
		case !op.arrive && live[op.id]:
			t := time.Now()
			err := on.Depart(vm.ID)
			departNs = append(departNs, time.Since(t).Nanoseconds())
			if err != nil {
				return err
			}
			live[op.id] = false
		}
	}
	o.set("core.online_arrive_us.p50", quantile(arriveNs, 0.50)/1e3, "us")
	o.set("core.online_arrive_us.p99", quantile(arriveNs, 0.99)/1e3, "us")
	o.set("core.online_depart_us.p50", quantile(departNs, 0.50)/1e3, "us")
	o.set("core.online_pms_used", float64(on.Placement().NumUsedPMs()), "count")
	return nil
}
