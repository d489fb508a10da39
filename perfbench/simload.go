package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// simSpec sizes one simulator workload.
type simSpec struct {
	vms, pms int
	rb       bool // pack with FFDByRb instead of QueuingFFD
	// intervals is the σ-steps of one Run, the paper's 100σ period.
	intervals int
	// runSeconds is the nominal wall time of one Run; the run count is
	// --seconds / runSeconds (at least two, so repeats can be compared).
	runSeconds float64
	// setupReps is how often a run sets up (and packs); setup_s and place_s
	// are the midMeans.
	setupReps int
}

var (
	simQueue   = simSpec{vms: 100_000, pms: 50_000, intervals: 100, runSeconds: 3.4, setupReps: 15}
	simRBChurn = simSpec{vms: 30_000, pms: 15_000, rb: true, intervals: 100, runSeconds: 3.4, setupReps: 15}
)

const forecastHorizon = 10

// simEnv is one set-up simulator workload: the fleet and its placement.
type simEnv struct {
	placement *cloud.Placement
	table     *queuing.MappingTable
	tables    *queuing.TableCache

	setup, place, tableBuild time.Duration
}

// setupSim generates the fleet and pool, solves the mapping table on a fresh
// cache and packs the fleet offline.
func setupSim(sp simSpec, seed int64) (*simEnv, error) {
	runtime.GC() // start every rep from the same heap, outside the timing
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, sp.vms), rng)
	if err != nil {
		return nil, err
	}
	pms, err := workload.GeneratePMs(sp.pms, capMin, capMax, rng)
	if err != nil {
		return nil, err
	}
	env := &simEnv{tables: queuing.NewTableCache()}
	t := time.Now()
	// The forecast hook reads the QUEUE table under either packing.
	if env.table, err = env.tables.NewMappingTable(maxVMsPerPM, pOn, pOff, rho); err != nil {
		return nil, err
	}
	env.tableBuild = time.Since(t)
	var s core.Strategy = strategy(env.tables)
	if sp.rb {
		s = core.FFDByRb{}
	}
	prePlace := time.Since(start)
	runtime.GC() // the packing starts from a collected heap, outside the timing
	t = time.Now()
	res, err := s.Place(vms, pms)
	if err != nil {
		return nil, err
	}
	env.place = time.Since(t)
	if len(res.Unplaced) > 0 {
		return nil, fmt.Errorf("%s left %d of %d VMs unplaced on %d PMs", s.Name(), len(res.Unplaced), len(vms), len(pms))
	}
	env.placement = res.Placement
	env.setup = prePlace + env.place
	return env, nil
}

// timedSource wraps the demand source handed to the simulator. The start of
// each step marks the start of an interval, which gives every interval's wall
// time; it also times the step itself, the workload layer's share.
type timedSource struct {
	inner  sim.DemandSource
	starts []time.Time // when each step began: the start of its interval
	stepNs []int64
}

func (s *timedSource) Step(rng *rand.Rand) {
	t := time.Now()
	s.inner.Step(rng)
	s.starts = append(s.starts, t)
	s.stepNs = append(s.stepNs, time.Since(t).Nanoseconds())
}

func (s *timedSource) States() map[int]markov.State { return s.inner.States() }

// stepTracer keeps the StepEvents the simulator emits, in memory.
type stepTracer struct {
	mu         sync.Mutex
	steps      []telemetry.StepEvent
	migrations int
}

func (t *stepTracer) Enabled() bool { return true }

func (t *stepTracer) Emit(e telemetry.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev := e.(type) {
	case telemetry.StepEvent:
		t.steps = append(t.steps, ev)
	case telemetry.MigrationTraceEvent:
		t.migrations++
	}
}

// simRun is one Run and what it reported.
type simRun struct {
	report   *sim.Report
	wall     time.Duration
	forecast *queuing.ForecastCache
	source   *timedSource
	tracer   *stepTracer // traced runs
	// intervalNs is each interval's wall time: from its step's start to the
	// next step's start, or to the end of Run for the last. unstolenNs is
	// the same scaled by the unstolen share of the machine's CPU time over
	// the Run (see cpuClock.unstolen).
	intervalNs, unstolenNs []int64
}

// runOnce simulates the placement for sp.intervals σ-steps from a fresh
// all-OFF fleet and a fresh forecast cache, so every run does the same work.
func (e *simEnv) runOnce(sp simSpec, seed int64, traced, forecast bool) (*simRun, error) {
	fleet, err := workload.NewHashedFleet(e.placement.VMs(), seed)
	if err != nil {
		return nil, err
	}
	r := &simRun{forecast: queuing.NewForecastCache()}
	cfg := sim.Config{
		Intervals:         sp.intervals,
		Rho:               rho,
		EnableMigration:   true,
		MigrationOverhead: 0.1,
		Shards:            runtime.GOMAXPROCS(0),
	}
	if forecast {
		cfg.Forecast = &sim.ForecastConfig{Horizon: forecastHorizon, Cache: r.forecast}
	}
	r.source = &timedSource{inner: fleet}
	if traced {
		r.tracer = &stepTracer{}
		cfg.Tracer = r.tracer
	}
	s, err := sim.NewWithSource(e.placement, e.table, cfg, r.source, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	c0 := readCPUClock()
	r.report, err = s.Run()
	c1 := readCPUClock()
	r.wall = c1.wall.Sub(c0.wall)
	share := float64(c0.unstolen(c1)) / float64(max(1, r.wall))
	for i, st := range r.source.starts {
		next := c1.wall
		if i+1 < len(r.source.starts) {
			next = r.source.starts[i+1]
		}
		ns := next.Sub(st).Nanoseconds()
		r.intervalNs = append(r.intervalNs, ns)
		r.unstolenNs = append(r.unstolenNs, int64(float64(ns)*share))
	}
	return r, err
}

// intervalRate returns σ-intervals per second over the runs' unstolen
// interval times. Every run of a seed simulates the same intervals, so each
// interval's time is taken as the mean of the middle half of its times over
// the runs (see midMean), which leaves out whatever slowed a minority of the
// runs; the rate is the intervals over the sum of those times.
func intervalRate(runs ...*simRun) float64 {
	return midRunRate(runs, func(r *simRun) []int64 { return r.unstolenNs })
}

// wallIntervalRate is intervalRate over plain wall time.
func wallIntervalRate(runs ...*simRun) float64 {
	return midRunRate(runs, func(r *simRun) []int64 { return r.intervalNs })
}

func midRunRate(runs []*simRun, times func(*simRun) []int64) float64 {
	n := len(times(runs[0]))
	var sum float64
	for i := 0; i < n; i++ {
		var ts []float64
		for _, r := range runs {
			if rt := times(r); i < len(rt) {
				ts = append(ts, float64(rt[i]))
			}
		}
		sum += midMean(ts)
	}
	return float64(n) / (sum / 1e9)
}

// transitions counts the fleet's ON-OFF transitions over the run's
// intervals: the ops the simulator consumes.
func transitions(vms []cloud.VM, seed int64, intervals int) (int, error) {
	fleet, err := workload.NewHashedFleet(vms, seed)
	if err != nil {
		return 0, err
	}
	on := make(map[int]bool, len(vms))
	n := 0
	for t := 0; t < intervals; t++ {
		fleet.Step(nil)
		for id, st := range fleet.States() {
			if now := st == markov.On; now != on[id] {
				on[id] = now
				n++
			}
		}
	}
	return n, nil
}

// runSim sets the workload up sp.setupReps times, runs the simulator
// repeatedly between the setups, and checks that every run of the seed
// reported the same digest. A traced run replaces two untraced runs with a traced run and a
// traced run without the forecast hook.
func runSim(sp simSpec, rc runConfig) (*outcome, error) {
	sp.vms = max(1, int(float64(sp.vms)*rc.scale))
	sp.pms = max(1, int(float64(sp.pms)*rc.scale))
	runs := max(2, int(rc.seconds/sp.runSeconds+0.5))

	untracedRuns := runs
	if rc.trace {
		untracedRuns = max(1, runs-2)
	}

	// The setups are spread over the gaps before, between and after the
	// untraced runs, so that setup_s and place_s sample the whole run rather
	// than one stretch of it. Each run simulates the latest setup's
	// placement; all of them are the same placement for one seed.
	var env *simEnv
	var setups, places, tables []float64
	var reps stealShare
	setupTo := func(n int) error {
		for len(setups) < n {
			time.Sleep(repGap)
			c0 := readCPUClock()
			var err error
			if env, err = setupSim(sp, rc.seed); err != nil {
				return err
			}
			reps.add(c0, readCPUClock())
			setups = append(setups, env.setup.Seconds())
			places = append(places, env.place.Seconds())
			tables = append(tables, float64(env.tableBuild.Nanoseconds())/1e6)
		}
		return nil
	}
	o := newOutcome()
	var digests []digest
	var untraced []*simRun
	var peak, base uint64
	steal := startSteal()
	for i := 0; i < untracedRuns; i++ {
		if err := setupTo(max(1, (i+1)*sp.setupReps/(untracedRuns+1))); err != nil {
			return nil, err
		}
		// The heap before a run holds its inputs, the packed placement and
		// the table; peak_heap_mb is what the simulator adds on top.
		b := liveHeap()
		smp := startSampler(5*time.Millisecond, nil)
		r, err := env.runOnce(sp, rc.seed, false, true)
		p := smp.Stop()
		if err != nil {
			return nil, err
		}
		if p-min(b, p) > peak {
			peak, base = p-min(b, p), b
		}
		digests = append(digests, digestOf(r.report))
		// Only the first report and the timings are kept: a Report holds
		// per-VM and per-PM maps, and keeping every run's would grow the
		// heap, and so space out the collections, from run to run.
		if len(untraced) > 0 {
			r.report = nil
		}
		r.source, r.forecast = nil, nil
		untraced = append(untraced, r)
	}
	if err := setupTo(sp.setupReps); err != nil {
		return nil, err
	}
	if p, ok := steal.pct(); ok {
		o.set("machine.steal_pct", p, "%")
	}
	o.set("setup_s", midMean(setups)*reps.unstolen(), "s")
	o.set("place_s", midMean(places)*reps.unstolen(), "s")
	o.set("setup_s.wall", midMean(setups), "s")
	o.set("place_s.wall", midMean(places), "s")
	o.set("queuing.table_build_ms", median(tables), "ms")
	o.set("queuing.table_solves", float64(env.tables.Solves()), "count")
	o.set("queuing.table_hits", float64(env.tables.Hits()), "count")
	o.set("peak_heap_mb", mb(peak), "MB")
	o.set("heap.baseline_mb", mb(base), "MB")

	trans, err := transitions(env.placement.VMs(), rc.seed, sp.intervals)
	if err != nil {
		return nil, err
	}
	rate := intervalRate(untraced...)
	o.set("sim_intervals_s", rate, "1/s")
	o.set("saturation_ops_s", rate*float64(trans)/float64(sp.intervals), "ops/s")
	o.set("saturation_ops_s.wall", wallIntervalRate(untraced...)*float64(trans)/float64(sp.intervals), "ops/s")
	var wall time.Duration
	for _, r := range untraced {
		wall += r.wall
	}
	o.set("sim_intervals_s.mean", float64(len(untraced)*sp.intervals)/wall.Seconds(), "1/s")
	rep := untraced[0].report
	o.set("pms_used", float64(rep.FinalPMs), "count")
	o.set("cvr", rep.CVR.Mean(), "ratio")
	o.set("migrations", float64(rep.TotalMigrations), "count")
	o.set("power_ons", float64(rep.PowerOns), "count")
	o.set("transitions_per_run", float64(trans), "count")
	o.attempted = int64(len(untraced) * sp.intervals)

	if rc.trace {
		on, err := env.runOnce(sp, rc.seed, true, true)
		if err != nil {
			return nil, err
		}
		off, err := env.runOnce(sp, rc.seed, true, false)
		if err != nil {
			return nil, err
		}
		digests = append(digests, digestOf(on.report), digestOf(off.report))
		o.attempted = int64(2 * sp.intervals)
		simLayers(o, sp, on, off, untraced, trans)
		if err := orderSplit(o, env); err != nil {
			return nil, err
		}
	}
	o.checkErr = checkDigests(digests)
	return o, nil
}

// simLayers fills the traced run's per-layer numbers from the forecast-on
// and forecast-off traced runs.
func simLayers(o *outcome, sp simSpec, on, off *simRun, untraced []*simRun, trans int) {
	o.set("queuing.forecast_solves", float64(on.forecast.Solves()), "count")
	o.set("queuing.forecast_hits", float64(on.forecast.Hits()), "count")

	transPerInterval := float64(trans) / float64(sp.intervals)
	u, t := intervalRate(untraced...), intervalRate(on)
	o.set("trace.sim_intervals_s.untraced", u, "1/s")
	o.set("trace.sim_intervals_s.traced", t, "1/s")
	o.set("trace.saturation_ops_s.untraced", u*transPerInterval, "ops/s")
	o.set("trace.saturation_ops_s.traced", t*transPerInterval, "ops/s")

	o.set("workload.fleet_step_ms.p50", quantile(on.source.stepNs, 0.5)/1e6, "ms")
	var stepNs, measureNs []int64
	var sumStep, sumMeasure, sumOff int64
	var migrations, violations int
	for _, ev := range on.tracer.steps {
		stepNs = append(stepNs, ev.DurationNs)
		measureNs = append(measureNs, ev.ShardMaxNs)
		sumStep += ev.DurationNs
		sumMeasure += ev.ShardMaxNs
		migrations += ev.Migrations
		violations += ev.Violations
	}
	for _, ev := range off.tracer.steps {
		sumOff += ev.DurationNs
	}
	var sumFleet int64
	for _, ns := range on.source.stepNs {
		sumFleet += ns
	}
	steps := max(1, len(on.tracer.steps))
	forecastNs := float64(sumStep-sumOff) / float64(steps)
	o.set("sim.step_ms.p50", quantile(stepNs, 0.50)/1e6, "ms")
	o.set("sim.step_ms.p99", quantile(stepNs, 0.99)/1e6, "ms")
	o.set("sim.measure_ms.p50", quantile(measureNs, 0.50)/1e6, "ms")
	o.set("queuing.forecast_ms_per_interval", forecastNs/1e6, "ms")
	o.set("sim.migrations_per_interval", float64(migrations)/float64(steps), "count")
	o.set("sim.violations_per_interval", float64(violations)/float64(steps), "count")
	o.set("sim.power_ons", float64(on.report.PowerOns), "count")
	o.set("sim.migration_events", float64(on.tracer.migrations), "count")
	if migrations > 0 {
		rest := float64(sumStep-sumMeasure-sumFleet) - forecastNs*float64(steps)
		o.set("sim.us_per_migration", rest/float64(migrations)/1e3, "us")
	}

	rec := newRecorder(on.source.starts[0])
	runID := rec.add(0, "client", "Run", on.source.starts[0], on.source.starts[0].Add(on.wall))
	for i, ev := range on.tracer.steps {
		if i >= len(on.source.starts) {
			break
		}
		start := on.source.starts[i]
		id := rec.add(runID, "sim", "step", start, start.Add(time.Duration(ev.DurationNs)))
		rec.add(id, "workload", "Step", start, start.Add(time.Duration(on.source.stepNs[i])))
	}
	o.spans, o.spanCount = rec.spans, rec.count
}

// orderSplit times QueuingFFD.Order and Place on the setup's fleet: the
// ordering and first-fit shares of place_s under QUEUE packing, whichever
// strategy packed the workload.
func orderSplit(o *outcome, env *simEnv) error {
	vms := env.placement.VMs()
	pms := env.placement.PMs()
	s := strategy(env.tables)
	t := time.Now()
	if _, err := s.Order(vms); err != nil {
		return err
	}
	order := time.Since(t)
	t = time.Now()
	if _, err := s.Place(vms, pms); err != nil {
		return err
	}
	place := time.Since(t)
	o.set("core.order_ms", float64(order.Nanoseconds())/1e6, "ms")
	o.set("core.firstfit_ms", float64((place-order).Nanoseconds())/1e6, "ms")
	return nil
}
