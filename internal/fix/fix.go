// Package fix rewrites stream-dataflow programs toward the weakest
// sufficient barrier set, using the footprint analysis of internal/lint
// as its oracle. It is the inverse of the linter: where lint proves a
// barrier is missing, fix inserts one; where the analysis proves a
// barrier orders nothing, fix deletes it.
//
// The pass runs two phases over a copy of the trace:
//
//  1. Barrier synthesis. Every error-severity race finding names the
//     weakest barrier kind that orders its pair (Finding.Barrier — the
//     lattice of §3.3: scratchpad hazards need only SD_Barrier_Scratch_
//     Rd/Wr, memory hazards need SD_Barrier_All). Fix inserts that
//     barrier immediately before the command completing the pair — the
//     latest legal position, preserving maximal concurrency — and
//     iterates to a fixpoint. A trailing unordered-write warning is
//     repaired by appending SD_Barrier_All.
//
//  2. Redundant-barrier elimination. Each remaining barrier is removed
//     tentatively; the removal commits only if it provably creates no
//     new hazard, i.e. the exhaustive race-pair count does not grow
//     under either the default analysis or Opts.StrictIndirect, which
//     treats every data-dependent indirect footprint as conflicting
//     with everything. The strict check is what keeps barriers that
//     protect indirect streams the value pre-pass cannot bound (a BFS
//     level barrier ordering scatters against the next level's
//     gathers) while still deleting genuinely dead barriers. Window
//     widening is monotone — removing a barrier never removes a
//     conflicting pair — so "count does not grow" is exactly "no new
//     hazard".
//
// Synthesis repairs race hazards only: balance, port-conflict and oob
// findings describe the program's stream arithmetic, which no barrier
// placement can change, and survive the pass untouched.
package fix

import (
	"fmt"
	"sort"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
)

// maxSynthRounds bounds the synthesis fixpoint loop. Inserting a
// barrier never creates a race, so two rounds normally suffice (one to
// insert, one to verify); the cap guards against analysis bugs.
const maxSynthRounds = 10

// Edit is one barrier inserted into or removed from the trace. Pos is
// the trace index at the time of the edit (later edits shift positions).
type Edit struct {
	Pos    int
	Kind   isa.Kind
	Reason string
}

// Placement describes one barrier of the fixed program: the slot it
// occupies, its full legal interval (see Intervals), and what the
// cost-aware chooser did with it. Pos and Chosen are equal — both name
// the slot the barrier ended at — and are reported separately to keep
// the JSON schema explicit about original-versus-chosen when a hoist
// moved the barrier (then Pos still reads as the final slot and the
// move itself is in Report.Hoisted).
type Placement struct {
	Pos              int
	Kind             isa.Kind
	Earliest, Latest int
	Chosen           int
	Drain            uint64 // profiled drain cycles; 0 without a profile
	Hoisted          bool
	Reason           string
}

// Report summarizes what Fix did to one program.
type Report struct {
	Prog           string
	Inserted       []Edit
	Removed        []Edit
	Hoisted        []Hoist     // cost-aware moves, in commit order
	Placements     []Placement // every barrier of the final program, in trace order
	BarriersBefore int
	BarriersAfter  int
}

// Changed reports whether Fix rewrote the trace at all.
func (r *Report) Changed() bool {
	return len(r.Inserted)+len(r.Removed)+len(r.Hoisted) > 0
}

func (r *Report) String() string {
	s := fmt.Sprintf("%s: inserted %d, removed %d barrier(s) (%d -> %d)",
		r.Prog, len(r.Inserted), len(r.Removed), r.BarriersBefore, r.BarriersAfter)
	if len(r.Hoisted) > 0 {
		s += fmt.Sprintf(", hoisted %d", len(r.Hoisted))
	}
	return s
}

// CountBarriers counts the barrier commands in the trace.
func CountBarriers(p *core.Program) int {
	n := 0
	for _, op := range p.Trace {
		if op.Cmd != nil && isa.IsBarrier(op.Cmd) {
			n++
		}
	}
	return n
}

// Serialize returns a copy of p with an SD_Barrier_All after every
// non-barrier command: the over-serialized program a cautious
// programmer writes, and the starting point of the fix study.
func Serialize(p *core.Program) *core.Program {
	q := clone(p)
	q.Trace = make([]core.TraceOp, 0, 2*len(p.Trace))
	for _, op := range p.Trace {
		q.Trace = append(q.Trace, op)
		if op.Cmd != nil && !isa.IsBarrier(op.Cmd) {
			q.Trace = append(q.Trace, core.TraceOp{Cmd: isa.BarrierAll{}})
		}
	}
	return q
}

// Fix returns a rewritten copy of p with the weakest sufficient barrier
// set, plus a report of the edits. p itself is never modified. The
// error return mirrors lint.Check: programs that cannot be analyzed at
// all (construction errors, invalid configuration).
func Fix(p *core.Program, cfg core.Config) (*core.Program, *Report, error) {
	return FixWithOpts(p, cfg, HoistOpts{})
}

// FixWithOpts is Fix with the cost-aware chooser enabled: after
// synthesis and elimination, barriers are hoisted within their legal
// intervals according to o (a no-op without o.Profile). The report's
// Placements cover every barrier of the final program. Profile
// positions must index the fixed trace, so a profile is only
// meaningful for programs the structural phases leave unchanged —
// shipped programs are pinned at that fixpoint by the sdlint -fix
// gate; for anything else, fix first, profile the result, then hoist.
func FixWithOpts(p *core.Program, cfg core.Config, o HoistOpts) (*core.Program, *Report, error) {
	q := clone(p)
	rep := &Report{Prog: p.Name, BarriersBefore: CountBarriers(p)}
	if err := synthesize(q, cfg, rep); err != nil {
		return nil, nil, err
	}
	if err := eliminate(q, cfg, rep); err != nil {
		return nil, nil, err
	}
	q, bars, moves, err := hoist(q, cfg, o)
	if err != nil {
		return nil, nil, err
	}
	rep.Hoisted = moves
	if err := placements(q, cfg, bars, rep); err != nil {
		return nil, nil, err
	}
	rep.BarriersAfter = CountBarriers(q)
	return q, rep, nil
}

// placements fills the report's per-barrier placement rows from the
// final program's intervals and the hoist phase's barrier tracking.
func placements(q *core.Program, cfg core.Config, bars []barState, rep *Report) error {
	ivs, err := Intervals(q, cfg)
	if err != nil {
		return err
	}
	state := map[int]barState{} // final trace index -> tracked identity
	for _, b := range bars {
		state[b.cur] = b
	}
	for _, iv := range ivs {
		pl := Placement{Pos: iv.Pos, Kind: iv.Kind,
			Earliest: iv.Earliest, Latest: iv.Latest, Chosen: iv.Pos}
		b, tracked := state[iv.Pos]
		if tracked {
			pl.Drain, pl.Hoisted = b.drain, b.moved
		}
		switch {
		case pl.Hoisted:
			pl.Reason = fmt.Sprintf("hoisted from trace[%d]: profiled drain of %d cycle(s) overlaps streams issued behind it", b.orig, b.drain)
		case iv.Width() == 0:
			pl.Reason = "pinned: every slot but this one changes a race pair's orderedness"
		case tracked && b.drain > 0:
			pl.Reason = fmt.Sprintf("kept: profiled drain of %d cycle(s), no cheaper slot in interval", b.drain)
		default:
			pl.Reason = "kept: no profiled drain to recover"
		}
		rep.Placements = append(rep.Placements, pl)
	}
	return nil
}

// clone copies the program's architectural content (name, configuration
// bitstreams, trace). Bitstream slices are shared: they are immutable
// by convention.
func clone(p *core.Program) *core.Program {
	q := core.NewProgram(p.Name)
	for addr, blob := range p.Configs {
		q.Configs[addr] = blob
	}
	q.Trace = append([]core.TraceOp(nil), p.Trace...)
	return q
}

// synthesize inserts barriers until the program has no race-error
// findings, editing q in place.
func synthesize(q *core.Program, cfg core.Config, rep *Report) error {
	for round := 0; ; round++ {
		fs, err := lint.CheckWith(q, cfg, lint.Opts{Exhaustive: true})
		if err != nil {
			return err
		}
		// Weakest barrier kinds needed per trace index, with one sample
		// diagnosis each for the report.
		needs := map[int]map[isa.Kind]string{}
		trailing := ""
		for _, f := range fs {
			if f.Check != lint.CheckRace || f.Barrier == isa.KindInvalid {
				continue
			}
			if f.Sev == lint.SevWarning {
				trailing = f.Msg // the trailing unordered-write warning
				continue
			}
			if needs[f.Index] == nil {
				needs[f.Index] = map[isa.Kind]string{}
			}
			if _, ok := needs[f.Index][f.Barrier]; !ok {
				needs[f.Index][f.Barrier] = f.Msg
			}
		}
		if len(needs) == 0 && trailing == "" {
			return nil
		}
		if round == maxSynthRounds {
			return fmt.Errorf("fix: %s: barrier synthesis did not converge after %d rounds", q.Name, round)
		}
		var idxs []int
		for i := range needs {
			idxs = append(idxs, i)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
		for _, i := range idxs {
			for _, k := range reduceKinds(needs[i]) {
				insertBarrier(q, i, k)
				rep.Inserted = append(rep.Inserted, Edit{Pos: i, Kind: k, Reason: needs[i][k]})
			}
		}
		if trailing != "" {
			insertBarrier(q, len(q.Trace), isa.KindBarrierAll)
			rep.Inserted = append(rep.Inserted, Edit{Pos: len(q.Trace) - 1, Kind: isa.KindBarrierAll, Reason: trailing})
		}
	}
}

// reduceKinds collapses the barrier kinds needed at one position:
// SD_Barrier_All closes every window, subsuming the scratch barriers.
func reduceKinds(kinds map[isa.Kind]string) []isa.Kind {
	if _, all := kinds[isa.KindBarrierAll]; all {
		return []isa.Kind{isa.KindBarrierAll}
	}
	var out []isa.Kind
	for _, k := range []isa.Kind{isa.KindBarrierScratchWr, isa.KindBarrierScratchRd} {
		if _, ok := kinds[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func barrierCmd(k isa.Kind) isa.Command {
	switch k {
	case isa.KindBarrierScratchRd:
		return isa.BarrierScratchRd{}
	case isa.KindBarrierScratchWr:
		return isa.BarrierScratchWr{}
	default:
		return isa.BarrierAll{}
	}
}

// insertBarrier splices a barrier command in before trace index i.
func insertBarrier(q *core.Program, i int, k isa.Kind) {
	q.Trace = append(q.Trace, core.TraceOp{})
	copy(q.Trace[i+1:], q.Trace[i:])
	q.Trace[i] = core.TraceOp{Cmd: barrierCmd(k)}
}

// removeOp deletes the command at trace index i, preserving any delay
// the op carried (host-side timing is not the fix pass's business).
func removeOp(q *core.Program, i int) {
	if q.Trace[i].Delay > 0 {
		q.Trace[i].Cmd = nil
		return
	}
	q.Trace = append(q.Trace[:i], q.Trace[i+1:]...)
}

// raceCounts is the exhaustive race-family finding count under the
// default and strict-indirect analyses. Warnings count too: removing a
// trailing barrier must register as a new hazard.
type raceCounts struct {
	normal, strict int
}

func countRaces(q *core.Program, cfg core.Config, strict bool) (int, error) {
	fs, err := lint.CheckWith(q, cfg, lint.Opts{Exhaustive: true, StrictIndirect: strict})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range fs {
		if f.Check == lint.CheckRace {
			n++
		}
	}
	return n, nil
}

func measure(q *core.Program, cfg core.Config) (raceCounts, error) {
	var c raceCounts
	var err error
	if c.normal, err = countRaces(q, cfg, false); err != nil {
		return c, err
	}
	c.strict, err = countRaces(q, cfg, true)
	return c, err
}

// eliminate greedily removes barriers whose removal creates no new
// hazard under either analysis, editing q in place. It loops until no
// barrier is removable; a barrier only becomes less removable as its
// neighbors disappear, so the loop terminates after one extra pass.
func eliminate(q *core.Program, cfg core.Config, rep *Report) error {
	base, err := measure(q, cfg)
	if err != nil {
		return err
	}
	for changed := true; changed; {
		changed = false
		for i := len(q.Trace) - 1; i >= 0; i-- {
			op := q.Trace[i]
			if op.Cmd == nil || !isa.IsBarrier(op.Cmd) {
				continue
			}
			cand := clone(q)
			removeOp(cand, i)
			got, err := measure(cand, cfg)
			if err != nil {
				return err
			}
			if got.normal > base.normal || got.strict > base.strict {
				continue // something relies on this barrier
			}
			removeOp(q, i)
			base = got
			changed = true
			rep.Removed = append(rep.Removed, Edit{Pos: i, Kind: op.Cmd.Kind(),
				Reason: "orders no overlapping footprints under strict indirect analysis"})
		}
	}
	return nil
}
