package core

import (
	"fmt"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
	"softbrain/internal/sched"
)

// ConfigSpace is the address region SD_Config streams read their
// bitstreams from; workload data must stay below it. A program numbers
// its 4 KB slots from here on its own, so two programs may use the same
// slot address. The bitstreams live in Program.Configs, not in the
// memory image: config space reads as zeros, and data written there
// never reaches the fabric (sdlint reports both as errors).
const ConfigSpace uint64 = 0xC000_0000

// ConfigSlotBytes is the space reserved per configuration bitstream.
const ConfigSlotBytes = 0x1000

// TraceOp is one step of the control program: either a stream command or
// a span of host computation (address arithmetic, loop control) measured
// in core cycles.
type TraceOp struct {
	Cmd   isa.Command // nil for a pure delay
	Delay uint64
}

// Program is a stream-dataflow program: CGRA configurations plus the
// command trace the control core replays. Build one with the emitter
// methods, which resolve DFG port names against the active configuration
// exactly as the paper's wrapper API does; the first error sticks and is
// reported by Err or at load time.
type Program struct {
	Name string
	// Configs holds the encoded configuration bitstream per config-space
	// address. It is the only copy: when an SD_Config stream over an
	// address retires, the machine decodes the bitstream stored here.
	Configs map[uint64][]byte
	Trace   []TraceOp

	cur *cgra.Schedule
	err error
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Configs: map[uint64][]byte{}}
}

// Err returns the first construction error.
func (p *Program) Err() error { return p.err }

func (p *Program) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("program %s: %s", p.Name, fmt.Sprintf(format, args...))
	}
}

// Emit appends a raw command, checking that it is encodable in the ISA.
func (p *Program) Emit(cmd isa.Command) {
	if _, err := isa.EncodeCommand(cmd); err != nil {
		p.fail("%v", err)
		return
	}
	p.Trace = append(p.Trace, TraceOp{Cmd: cmd})
}

// Delay models host-side computation between commands.
func (p *Program) Delay(cycles uint64) {
	if cycles > 0 {
		p.Trace = append(p.Trace, TraceOp{Delay: cycles})
	}
}

// Configure serializes the schedule into its configuration bitstream,
// registers it at the program's next config slot (slots count from 1
// within each program), emits the SD_Config command for it, and makes
// it the active configuration for port-name resolution.
func (p *Program) Configure(s *cgra.Schedule) {
	blob := cgra.EncodeConfig(s)
	if len(blob) > ConfigSlotBytes {
		p.fail("configuration bitstream of %s is %d bytes; slot is %d", s.Graph.Name, len(blob), ConfigSlotBytes)
		return
	}
	addr := ConfigSpace + uint64(len(p.Configs)+1)*ConfigSlotBytes
	p.Configs[addr] = blob
	p.cur = s
	p.Emit(isa.Config{Addr: addr, Size: uint64(len(blob))})
}

// CompileAndConfigure schedules g onto the fabric and Configures the
// result, returning the schedule for inspection.
func (p *Program) CompileAndConfigure(f *cgra.Fabric, g *dfg.Graph) *cgra.Schedule {
	s, err := sched.Schedule(f, g)
	if err != nil {
		p.fail("%v", err)
		return nil
	}
	p.Configure(s)
	return s
}

// In resolves a DFG input port name to its hardware vector port under
// the active configuration.
func (p *Program) In(name string) isa.InPortID {
	if p.cur == nil {
		p.fail("In(%q) before Configure", name)
		return 0
	}
	i := p.cur.Graph.FindIn(name)
	if i < 0 {
		p.fail("no input port %q in DFG %s", name, p.cur.Graph.Name)
		return 0
	}
	return isa.InPortID(p.cur.InPortMap[i])
}

// Out resolves a DFG output port name to its hardware vector port.
func (p *Program) Out(name string) isa.OutPortID {
	if p.cur == nil {
		p.fail("Out(%q) before Configure", name)
		return 0
	}
	i := p.cur.Graph.FindOut(name)
	if i < 0 {
		p.fail("no output port %q in DFG %s", name, p.cur.Graph.Name)
		return 0
	}
	return isa.OutPortID(p.cur.OutPortMap[i])
}

// IndirectIn returns the i-th indirect-capable hardware input port of
// the fabric, for staging indirect address streams.
func (p *Program) IndirectIn(f *cgra.Fabric, i int) isa.InPortID {
	n := 0
	for hw, spec := range f.InPorts {
		if spec.Indirect {
			if n == i {
				return isa.InPortID(hw)
			}
			n++
		}
	}
	p.fail("no indirect input port %d (fabric has %d)", i, n)
	return 0
}

// Assemble encodes the program's command stream into the binary ISA
// representation (the fixed-width instruction words a RISC-V-embedded
// implementation would carry). Delays are not encoded; they interleave
// with the commands in trace order.
func (p *Program) Assemble() ([]uint64, error) {
	var cmds []isa.Command
	for _, op := range p.Trace {
		if op.Cmd != nil {
			cmds = append(cmds, op.Cmd)
		}
	}
	return isa.EncodeProgram(cmds)
}

// roundTrip re-encodes and decodes every command and checks that each
// decodes to its own value, so the machine executes exactly what the
// binary ISA can express — any drift between a command value and its
// encoding surfaces as a load-time error. It only reads p: one Program
// may be loaded by several machines at once.
func (p *Program) roundTrip() error {
	words, err := p.Assemble()
	if err != nil {
		return err
	}
	decoded, err := isa.DecodeProgram(words)
	if err != nil {
		return err
	}
	i := 0
	for _, op := range p.Trace {
		if op.Cmd == nil {
			continue
		}
		if i >= len(decoded) {
			return fmt.Errorf("program %s: decode lost commands", p.Name)
		}
		if decoded[i] != op.Cmd {
			return fmt.Errorf("program %s: command %d %v decodes as %v", p.Name, i, op.Cmd, decoded[i])
		}
		i++
	}
	if i != len(decoded) {
		return fmt.Errorf("program %s: decode gained commands", p.Name)
	}
	return nil
}

// CommandWords is the total instruction words of all commands in the
// trace: the control core's dynamic stream-command instruction count.
func (p *Program) CommandWords() uint64 {
	var n uint64
	for _, op := range p.Trace {
		if op.Cmd != nil {
			n += uint64(op.Cmd.Words())
		}
	}
	return n
}
