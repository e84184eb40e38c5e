// Randomized fault-injection soak: generated programs run to
// completion under every fault profile, or fail with a classified,
// typed error. This is the executable form of the panic-free execution
// contract — nothing in here recovers panics itself, so any invariant
// escape kills the test run.
package core_test

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/mem"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/machsuite"
)

// soakSeeds is the number of generated programs: SOAK_SEEDS when set
// (make soak uses 50), a short deterministic slice otherwise.
func soakSeeds(t *testing.T) int64 {
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOAK_SEEDS %q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 5
	}
	return 12
}

// runSoak builds a machine (optionally fault-injected), seeds the
// memory pools deterministically, and runs p.
func runSoak(t *testing.T, cfg core.Config, fc *faults.Config, p *core.Program, seed int64) (*mem.Memory, error) {
	t.Helper()
	cfg.Faults = fc
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 64)
	irng := rand.New(rand.NewSource(seed + 1000))
	for _, base := range progen.MemPools {
		irng.Read(line)
		m.Sys.Mem.Write(base, line)
	}
	_, err = m.Run(p)
	return m.Sys.Mem, err
}

// typedFailure reports whether err is one of the two structured error
// types Run is allowed to return.
func typedFailure(err error) bool {
	var de *core.DeadlockError
	var me *core.MachineError
	return errors.As(err, &de) || errors.As(err, &me)
}

// TestSoakFaultInjection: for each generated program, the fault-free
// run and every non-corrupting fault profile must complete with
// byte-identical memory; corrupting profiles must complete or fail
// with a classified, typed error; and a maimed (unbalanced) variant
// must hang with a structured diagnosis, never a raw panic.
func TestSoakFaultInjection(t *testing.T) {
	seeds := soakSeeds(t)
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmds := progen.Commands(rng, ports)
		for _, c := range cmds {
			p.Emit(c)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fixed, _, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: fix: %v", seed, err)
		}

		want, err := runSoak(t, cfg, nil, fixed, seed)
		if err != nil {
			t.Fatalf("seed %d: fault-free run: %v", seed, err)
		}

		for i, name := range faults.Profiles() {
			fc, err := faults.Profile(name, seed*31+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSoak(t, cfg, &fc, fixed, seed)
			if err != nil {
				if fc.Corrupting() && typedFailure(err) {
					continue // corruption may legitimately wreck the run
				}
				t.Fatalf("seed %d, profile %s: %v", seed, name, err)
			}
			if fc.Corrupting() {
				continue // completed, but results may differ: fine
			}
			if addr, diff := got.FirstDiff(want); diff {
				t.Fatalf("seed %d, profile %s: timing-only faults changed memory at %#x",
					seed, name, addr)
			}
		}

		// Maimed variant: drop one non-barrier command and run without
		// repair. The unbalanced program may still complete; when it
		// hangs, the failure must be a structured diagnosis.
		maimed, mports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mrng := rand.New(rand.NewSource(seed))
		for _, c := range progen.Maim(progen.Commands(mrng, mports), int(seed)) {
			maimed.Emit(c)
		}
		if err := maimed.Err(); err != nil {
			t.Fatalf("seed %d: maimed program: %v", seed, err)
		}
		if _, err := runSoak(t, cfg, nil, maimed, seed); err != nil && !typedFailure(err) {
			t.Fatalf("seed %d: maimed run returned an untyped error: %v", seed, err)
		}
	}
}

// TestWarmRunFaultStats drives a cluster by hand under the delay
// profile: a warm-up run, then the measured run. The fault counts
// reported after the measured run must be the faults it delivered
// alone, not the sum over both runs, just as its Stats and SchedStats
// cover it alone.
func TestWarmRunFaultStats(t *testing.T) {
	cfg := core.DefaultConfig()
	fc, err := faults.Profile("delay", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fc
	inst, err := machsuite.BuildGEMM(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(cfg, inst.Units())
	if err != nil {
		t.Fatal(err)
	}
	inst.Init(cl.Mem)
	if _, err := cl.Run(inst.Progs); err != nil {
		t.Fatal(err)
	}
	if warm := cl.FaultStats(); warm.MemDelays == 0 {
		t.Fatal("warm-up run delivered no memory delays; the test is vacuous")
	}

	// The injector's tallies once the measured run has loaded, so that
	// what it delivers from here on is the measured run's alone.
	for i, u := range cl.Units {
		if err := u.Load(inst.Progs[i]); err != nil {
			t.Fatal(err)
		}
	}
	start := cl.FaultStats()
	if _, err := cl.Run(inst.Progs); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(cl.Mem); err != nil {
		t.Fatal(err)
	}
	end := cl.FaultStats()
	delivered := faults.Stats{
		MemDelays:   end.MemDelays - start.MemDelays,
		Stalls:      end.Stalls - start.Stalls,
		StallCycles: end.StallCycles - start.StallCycles,
		Throttles:   end.Throttles - start.Throttles,
		BitFlips:    end.BitFlips - start.BitFlips,
	}
	if delivered.MemDelays == 0 {
		t.Fatal("measured run delivered no memory delays; the test is vacuous")
	}
	if end != delivered {
		t.Errorf("measured run reports %v, but delivered %v", end, delivered)
	}
}
