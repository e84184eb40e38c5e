package core

import (
	"context"
	"fmt"
	"time"

	"softbrain/internal/faults"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// Cluster is several Softbrain units sharing one backing memory and one
// DRAM channel — the 8-unit configuration of the DianNao comparison
// (Section 7.1). Each unit has a private cache and memory port; units
// contend only for DRAM bandwidth, and run in lockstep: every cycle
// the units step in unit order on the calling goroutine, so the shared
// DRAM channel grants their misses in unit order (see docs/SIMKERNEL.md).
type Cluster struct {
	Units []*Machine
	Mem   *mem.Memory

	// Lint is the optional cluster-scope static-analysis hook consulted
	// by RunPipelineStrict before any unit loads: it sees the whole
	// phased program set (phases[k][u] = unit u's program in phase k)
	// because inter-unit hazards are a property of the set, not of any
	// one program. Install it with
	//
	//	cl.Lint = lint.ClusterHook(cfg, opts)
	//
	// (core cannot import the linter: lint analyzes core.Program).
	Lint func(phases [][]*Program) error

	cfg     Config
	haveCfg bool

	// Progress heartbeat (see SetHeartbeat), checked by the run loop
	// every heartbeatStride cycles.
	hbEvery time.Duration
	hbFn    func(ProgressReport)
	hbLast  time.Time

	// runStart holds the progress totals when the current run started;
	// reports count from there.
	runStart ProgressReport
}

// EnableMetrics attaches one registry per unit (unit index = registry
// unit). Call before Run; MetricsDump merges the units afterwards.
func (c *Cluster) EnableMetrics(opts obs.Options) {
	for i, u := range c.Units {
		u.EnableMetrics(obs.New(i, opts))
	}
}

// MetricsDump merges the per-unit registries, in unit order, into one
// dump with a cluster-wide total. Valid after a completed Run.
func (c *Cluster) MetricsDump() obs.Dump {
	units := make([]obs.UnitDump, 0, len(c.Units))
	for _, u := range c.Units {
		units = append(units, u.reg.Dump())
	}
	return obs.Merge(units)
}

// SchedStats sums the wake-set scheduler counters across the units
// (see Machine.SchedStats). Valid after a completed Run.
func (c *Cluster) SchedStats() sim.SchedStats {
	var total sim.SchedStats
	for _, u := range c.Units {
		total.Add(u.SchedStats())
	}
	return total
}

// SchedTickBy sums the executed tick counts per component name across
// the units, the per-component view behind SchedStats().CompTicks.
func (c *Cluster) SchedTickBy() map[string]uint64 {
	total := map[string]uint64{}
	for _, u := range c.Units {
		for name, n := range u.SchedTickBy() {
			total[name] += n
		}
	}
	return total
}

// SetHeartbeat installs a progress callback invoked from the run loop
// roughly every interval of host time (checked every heartbeatStride
// cycles, so a hot loop pays one counter increment), reporting
// aggregate progress across the units. Purely observational; it fires
// only while a run is in progress and starts no goroutine.
func (c *Cluster) SetHeartbeat(every time.Duration, fn func(ProgressReport)) {
	c.hbEvery = every
	c.hbFn = fn
}

// totals sums the units' monotone progress counters.
func (c *Cluster) totals() ProgressReport {
	var r ProgressReport
	for _, u := range c.Units {
		r.Commands += u.disp.Issued
		r.Progress += u.kern.Progress()
		r.RetiredBytes += u.retiredBytes()
	}
	return r
}

// report aggregates a point-in-time view of the current run across the
// units.
func (c *Cluster) report(now uint64) ProgressReport {
	r := c.totals()
	r.Cycle = now
	r.Commands -= c.runStart.Commands
	r.Progress -= c.runStart.Progress
	r.RetiredBytes -= c.runStart.RetiredBytes
	var attrs []*obs.Attribution
	for _, u := range c.Units {
		attrs = append(attrs, u.reg.Attributions()...)
	}
	r.StallMix = stallMix(attrs)
	return r
}

// Progress is the point-in-time aggregate report at cycle now — what a
// heartbeat would deliver — exported so callers can snapshot final run
// telemetry (retired bytes, stall mix) after a completed Run; it covers
// the last run only.
func (c *Cluster) Progress(now uint64) ProgressReport { return c.report(now) }

// heartbeat fires the cluster callback when the interval elapsed.
func (c *Cluster) heartbeat(now uint64) {
	if c.hbFn == nil {
		return
	}
	if c.hbLast.IsZero() {
		c.hbLast = time.Now()
		return
	}
	if time.Since(c.hbLast) >= c.hbEvery {
		c.hbLast = time.Now()
		c.hbFn(c.report(now))
	}
}

// NewCluster builds n identical units over a shared backing store.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cluster of %d units", n)
	}
	backing := mem.NewMemory()
	dram := mem.NewDRAM(cfg.Mem.MissInterval)
	c := &Cluster{Mem: backing, cfg: cfg, haveCfg: true}
	for i := 0; i < n; i++ {
		sys, err := mem.NewSystemShared(cfg.Mem, backing, dram)
		if err != nil {
			return nil, err
		}
		u, err := NewMachineShared(cfg, sys)
		if err != nil {
			return nil, err
		}
		c.Units = append(c.Units, u)
	}
	return c, nil
}

// validateUnits checks that every unit runs the same configuration —
// the cluster-wide controls (watchdog, skip-ahead, fault profile) are
// taken from it, so a mismatched unit would silently run under another
// unit's policy. A cluster assembled literally (not via NewCluster)
// adopts the uniform config it finds.
func (c *Cluster) validateUnits() error {
	if len(c.Units) == 0 {
		return fmt.Errorf("core: cluster has no units")
	}
	if !c.haveCfg {
		c.cfg, c.haveCfg = c.Units[0].cfg, true
	}
	for i, u := range c.Units {
		if u.cfg != c.cfg {
			return fmt.Errorf("core: cluster unit %d config differs from the cluster's; all units must share one Config", i)
		}
	}
	return nil
}

// FaultStats sums the faults injected during the last run across all
// units (see Machine.FaultStats); zero when faults are disabled.
func (c *Cluster) FaultStats() faults.Stats {
	var total faults.Stats
	for _, u := range c.Units {
		s := u.FaultStats()
		total.MemDelays += s.MemDelays
		total.Stalls += s.Stalls
		total.StallCycles += s.StallCycles
		total.Throttles += s.Throttles
		total.BitFlips += s.BitFlips
	}
	return total
}

// Run executes one program per unit in lockstep and returns aggregated
// statistics (Cycles is the wall-clock of the slowest unit). It is the
// simulator's one run loop — Machine.Run is a one-unit cluster run —
// and it never lets an invariant panic escape: the recovered
// MachineError names the unit whose Step failed.
func (c *Cluster) Run(progs []*Program) (*Stats, error) {
	return c.RunContext(context.Background(), progs)
}

// RunContext is Run bounded by a context: cancellation or deadline
// expiry mid-run stops the run within one heartbeat stride and returns
// a *CanceledError wrapping the context cause. See Machine.RunContext.
// The statistics cover this run only: each unit's activity counters
// are snapshotted after loading and subtracted at the end.
func (c *Cluster) RunContext(ctx context.Context, progs []*Program) (stats *Stats, err error) {
	if err := c.validateUnits(); err != nil {
		return nil, err
	}
	if len(progs) != len(c.Units) {
		return nil, fmt.Errorf("core: %d programs for %d units", len(progs), len(c.Units))
	}
	for i, u := range c.Units {
		if err := u.Load(progs[i]); err != nil {
			return nil, err
		}
	}
	bases := make([]Stats, len(c.Units))
	for i, u := range c.Units {
		bases[i] = u.counters()
	}
	c.runStart = c.totals()
	watchdog := c.cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = defaultWatchdog
	}
	var now uint64
	curUnit := 0
	defer func() {
		if r := recover(); r != nil {
			me := c.Units[curUnit].recoverPanic(r, now)
			me.Unit = curUnit
			stats, err = nil, me
		}
	}()
	// diagnose classifies the stuck cluster: the first unit with a
	// structural cause names the hang, Unknown otherwise.
	diagnose := func(now uint64) *DeadlockError {
		var first *DeadlockError
		for i, u := range c.Units {
			if u.Done() {
				continue
			}
			de := u.diagnose(now)
			de.Unit = i
			if first == nil {
				first = de
			}
			if de.Class != HangUnknown {
				return de
			}
		}
		return first
	}
	anyFaults := false
	for _, u := range c.Units {
		if u.faults != nil {
			anyFaults = true
		}
	}
	if ce := canceled(ctx, now); ce != nil {
		return nil, ce
	}
	var lastProgress, lastChange uint64
	var hbIter uint64
	diagnosed := false
	for {
		done := true
		for _, u := range c.Units {
			if !u.Done() {
				done = false
				break
			}
		}
		if done {
			break
		}
		// Step every running unit one cycle, in unit order: the shared
		// DRAM channel grants same-cycle misses in that order.
		for i, u := range c.Units {
			if u.Done() {
				continue
			}
			curUnit = i
			if err := u.Step(now); err != nil {
				if me, ok := err.(*MachineError); ok {
					me.Unit = i
				}
				return nil, err
			}
		}
		if hbIter++; hbIter&(heartbeatStride-1) == 0 {
			if ce := canceled(ctx, now); ce != nil {
				return nil, ce
			}
			c.heartbeat(now)
		}
		var pr uint64
		for _, u := range c.Units {
			pr += u.progress()
		}
		stillRunning := false
		for _, u := range c.Units {
			if !u.Done() { // re-check: Step may have just finished the unit
				stillRunning = true
				break
			}
		}
		progressed := pr != lastProgress
		if progressed {
			lastProgress, lastChange = pr, now
			diagnosed = false
		} else if stillRunning {
			idle := now - lastChange
			if idle >= quiesceGrace && !diagnosed {
				quiet := true
				for _, u := range c.Units {
					if !u.Done() && !u.quiescent(now) {
						quiet = false
						break
					}
				}
				if quiet {
					de := diagnose(now)
					if de != nil && (de.Class != HangUnknown || !anyFaults) {
						return nil, de
					}
					diagnosed = true
				}
			}
			if idle > watchdog {
				de := diagnose(now)
				if de == nil {
					de = &DeadlockError{Cycle: now}
				}
				if de.Class == HangUnknown {
					de.Class = HangWatchdog
					de.Detail = "no progress within the watchdog window; no structural cause identified"
				}
				return nil, de
			}
		}
		next := now + 1
		if stillRunning {
			// Idle skip-ahead across the cluster: only when every running
			// unit is asleep until a known future cycle (a unit with wake
			// scheduling disabled reports Ready and vetoes). The machine
			// is frozen (nothing Ready, no watch signal moved), so the
			// elided cycles are provably no-ops: the kernel only records
			// them and slept components replay their bookkeeping lazily.
			// The target is capped at the cycle the watchdog would fire,
			// so a hung run diagnoses at exactly the cycle the unskipped
			// run would; a skipped span holds a pending timed event
			// throughout, so it bypasses no quiescence check.
			h := sim.Idle()
			for _, u := range c.Units {
				if !u.Done() {
					h = h.Earliest(u.NextWake(now))
				}
			}
			if h.Kind == sim.WakeTimed && h.At > next {
				target := h.At
				if deadline := lastChange + watchdog + 1; target > deadline {
					target = deadline
				}
				if target > next {
					for _, u := range c.Units {
						if !u.Done() {
							u.onSkip(next, target)
						}
					}
					next = target
				}
			} else if len(c.Units) == 1 {
				// Span retirement (single-unit clusters only: peers would
				// share DRAM arbitration, which a batched unit could
				// reorder): when one component of the unit is due and the
				// rest sleep, its ticks batch in one call. See
				// Machine.retireSpan.
				n, err := c.Units[0].retireSpan(next, lastChange+watchdog+1)
				if err != nil {
					if me, ok := err.(*MachineError); ok {
						me.Unit = 0
					}
					return nil, err
				}
				next += n
			}
		}
		now = next
	}
	total := &Stats{}
	for i, u := range c.Units {
		total.Add(u.collect(now, &bases[i]))
	}
	total.Cycles = now
	return total, nil
}

// lintPhases vets a phased program set through the Lint hook. Like
// Machine.LoadStrict, a cluster without a hook refuses every program
// set — strict mode is an explicit opt-in, not a silent fallback.
func (c *Cluster) lintPhases(phases [][]*Program) error {
	if c.Lint == nil {
		return fmt.Errorf("core: strict cluster execution requires a Lint hook (install internal/lint.ClusterHook)")
	}
	if err := c.Lint(phases); err != nil {
		return fmt.Errorf("core: refusing to run: %w", err)
	}
	return nil
}

// RunPipelineStrict executes a phased program set, vetted whole by the
// Lint hook first: per-unit hazards and inter-unit races (overlapping
// DRAM footprints across units, unordered shared-region access) are
// refused before any unit loads. phases[k] holds one program per unit;
// phase k+1 starts only after every unit of phase k fully completed
// (Run returns only when all units are done), so the phase boundary is
// a cluster-wide barrier — the ordering primitive the cluster linter's
// shared-region rules verify against. Statistics are aggregated across
// phases with Cycles summed: phases are sequential, so the pipeline's
// wall-clock is the sum of the phase wall-clocks.
func (c *Cluster) RunPipelineStrict(phases [][]*Program) (*Stats, error) {
	if err := c.lintPhases(phases); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("core: pipeline has no phases")
	}
	total := &Stats{}
	var cycles uint64
	for pi, progs := range phases {
		s, err := c.Run(progs)
		if err != nil {
			return nil, fmt.Errorf("core: pipeline phase %d: %w", pi, err)
		}
		cycles += s.Cycles
		total.Add(s)
	}
	total.Cycles = cycles
	return total, nil
}
