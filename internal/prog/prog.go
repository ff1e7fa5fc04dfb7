// Package prog represents the synthetic loop programs executed by the
// pipeline model: a one-time initialisation block followed by a loop body
// that repeats for a configurable number of iterations.
//
// Programs are static; all per-iteration dynamic information (effective
// addresses, branch outcomes) is produced by pure generator functions of
// the iteration number. This keeps runs of tens of millions of dynamic
// instructions trace-free and bit-reproducible, and makes wrong-path
// re-fetch trivially consistent.
package prog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"avfstress/internal/isa"
)

// Program is a static synthetic program.
type Program struct {
	Name string

	// Init executes once before the loop. It exists to define every
	// architected register before use (the paper's generator initialises
	// its memory region and pointer-chase state here).
	Init []isa.Instr

	// Body is the loop kernel. By convention the final instruction is the
	// loop backedge branch.
	Body []isa.Instr

	// AddrGens produce effective addresses for memory instructions; a
	// memory instruction's AddrGen field indexes this table.
	AddrGens []AddrGen

	// BrGens produce branch outcomes; a branch's BrGen field indexes this
	// table.
	BrGens []BranchGen

	// Iterations is the nominal loop trip count. Runs may be cut short by
	// the simulator's instruction budget.
	Iterations int64

	// FootprintBytes documents the data-memory region the program
	// touches (used in reports only).
	FootprintBytes uint64
}

// Base program-counter values. Instructions are isa.InstrBytes wide.
const (
	InitBase uint64 = 0x0000_1000
	BodyBase uint64 = 0x0001_0000
)

// PCOf returns the program counter of body instruction idx.
func PCOf(idx int) uint64 { return BodyBase + uint64(idx)*isa.InstrBytes }

// Validate checks structural integrity: instruction validity, generator
// references, and loop shape. It is exercised heavily by the codegen and
// failure-injection tests.
func (p *Program) Validate() error {
	if len(p.Body) == 0 {
		return fmt.Errorf("prog %q: empty body", p.Name)
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("prog %q: non-positive iteration count %d", p.Name, p.Iterations)
	}
	check := func(where string, ins []isa.Instr) error {
		for i, in := range ins {
			if err := in.Validate(); err != nil {
				return fmt.Errorf("prog %q: %s[%d]: %w", p.Name, where, i, err)
			}
			if in.Op.IsMem() {
				if in.AddrGen < 0 || in.AddrGen >= len(p.AddrGens) {
					return fmt.Errorf("prog %q: %s[%d]: address generator %d out of range (have %d)",
						p.Name, where, i, in.AddrGen, len(p.AddrGens))
				}
			}
			if in.Op == isa.OpBranch {
				if in.BrGen < 0 || in.BrGen >= len(p.BrGens) {
					return fmt.Errorf("prog %q: %s[%d]: branch generator %d out of range (have %d)",
						p.Name, where, i, in.BrGen, len(p.BrGens))
				}
			}
		}
		return nil
	}
	if err := check("init", p.Init); err != nil {
		return err
	}
	return check("body", p.Body)
}

// Listing renders the program as annotated assembly, in the spirit of the
// paper's generated "C with embedded Alpha assembly".
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s\n", p.Name)
	fmt.Fprintf(&b, "; iterations=%d footprint=%d bytes\n", p.Iterations, p.FootprintBytes)
	for i, g := range p.AddrGens {
		fmt.Fprintf(&b, "; ag%-2d %s\n", i, g)
	}
	for i, g := range p.BrGens {
		fmt.Fprintf(&b, "; bg%-2d %s\n", i, g)
	}
	b.WriteString("init:\n")
	for i, in := range p.Init {
		fmt.Fprintf(&b, "  %04x  %-32s", InitBase+uint64(i)*isa.InstrBytes, in.String())
		if in.Label != "" {
			fmt.Fprintf(&b, " ; %s", in.Label)
		}
		b.WriteByte('\n')
	}
	b.WriteString("loop:\n")
	for i, in := range p.Body {
		fmt.Fprintf(&b, "  %04x  %-32s", PCOf(i), in.String())
		if in.Label != "" {
			fmt.Fprintf(&b, " ; %s", in.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StaticLen returns the total static instruction count.
func (p *Program) StaticLen() int { return len(p.Init) + len(p.Body) }

// Fingerprint returns a compact content address of the program for
// internal/simcache keys: a hex SHA-256 over the name (which reaches
// avf.Result.Workload), the iteration count, the footprint, every
// instruction field that influences execution, and the full state of
// every address and branch generator. Instruction labels are excluded —
// they only decorate listings. The built-in generators are plain value
// structs, so %T/%+v renders their complete state deterministically;
// custom generator implementations must do the same for their
// simulation-relevant fields.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "prog{name=%q iters=%d footprint=%d}", p.Name, p.Iterations, p.FootprintBytes)
	var buf []byte // reused for every instruction's line
	section := func(tag string, ins []isa.Instr) {
		fmt.Fprintf(h, "|%s[%d]", tag, len(ins))
		for i := range ins {
			buf = appendInstrFingerprint(buf[:0], &ins[i])
			h.Write(buf)
		}
	}
	section("init", p.Init)
	section("body", p.Body)
	// %#v, not %+v: the generators implement Stringer for listings, and
	// %+v would hash those lossy display strings (Bernoulli, for one,
	// rounds its probability to three decimals), aliasing distinct
	// programs. %#v renders the raw fields exactly and includes the
	// concrete type name.
	for _, g := range p.AddrGens {
		fmt.Fprintf(h, "|ag:%#v", g)
	}
	for _, g := range p.BrGens {
		fmt.Fprintf(h, "|bg:%#v", g)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendInstrFingerprint appends one instruction's fingerprint line to
// b: the bytes fmt writes for "|%d,%d,%d,%d,%d,%t,%d,%d,%t" over (Op,
// Dest, Src1, Src2, Imm, RegReg, AddrGen, BrGen, UnACE), built with
// strconv since a program hashes one line per static instruction.
func appendInstrFingerprint(b []byte, in *isa.Instr) []byte {
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(in.Op), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(in.Dest), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(in.Src1), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(in.Src2), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(in.Imm), 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, in.RegReg)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(in.AddrGen), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(in.BrGen), 10)
	b = append(b, ',')
	return strconv.AppendBool(b, in.UnACE)
}

// Dyn is one dynamic instruction instance handed to the pipeline.
type Dyn struct {
	// Static points at the static instruction. It is never nil for
	// instructions produced by a Stream.
	Static *isa.Instr
	// Seq is the global dynamic sequence number, starting at 0.
	Seq int64
	// Iter is the loop iteration (-1 for init instructions).
	Iter int64
	// PC is the program counter of the instance.
	PC uint64
	// Addr is the effective address for memory ops (0 otherwise).
	Addr uint64
	// Taken is the actual branch outcome for OpBranch.
	Taken bool
}

// Stream lazily produces the dynamic instruction sequence of a program.
// The zero value is not usable; construct with NewStream.
type Stream struct {
	p       *Program
	inInit  bool
	idx     int
	iter    int64
	seq     int64
	scratch []isa.Reg
}

// NewStream returns a stream positioned at the first instruction.
func NewStream(p *Program) *Stream {
	return &Stream{p: p, inInit: len(p.Init) > 0}
}

// Reset rewinds the stream to the first instruction.
func (s *Stream) Reset() {
	s.inInit = len(s.p.Init) > 0
	s.idx, s.iter, s.seq = 0, 0, 0
}

// ResetTo rebinds the stream to program p and rewinds it, reusing the
// Stream allocation (used by pipe.Pipeline.Reset when pooling pipelines
// across GA fitness evaluations).
func (s *Stream) ResetTo(p *Program) {
	s.p = p
	s.Reset()
}

// Program returns the underlying program.
func (s *Stream) Program() *Program { return s.p }

// StreamState is the resumable cursor of a Stream: everything beyond the
// program itself that determines the remaining dynamic sequence. It is a
// plain value so pipe checkpoints can capture and serialise it.
type StreamState struct {
	InInit bool
	Idx    int
	Iter   int64
	Seq    int64
}

// State returns the stream's current cursor.
func (s *Stream) State() StreamState {
	return StreamState{InInit: s.inInit, Idx: s.idx, Iter: s.iter, Seq: s.seq}
}

// SetState repositions the stream at a previously captured cursor. The
// stream must already be bound (via NewStream or ResetTo) to the same
// program the state was captured from.
func (s *Stream) SetState(st StreamState) {
	s.inInit = st.InInit
	s.idx = st.Idx
	s.iter = st.Iter
	s.seq = st.Seq
}

// Next returns the next dynamic instruction. ok is false once the
// program's iteration count is exhausted.
func (s *Stream) Next() (d Dyn, ok bool) {
	ok = s.NextInto(&d)
	return d, ok
}

// NextInto writes the next dynamic instruction into d, avoiding the
// struct copies of Next on the simulator's per-fetch hot path. It
// reports false (leaving d untouched) once the program's iteration count
// is exhausted.
func (s *Stream) NextInto(d *Dyn) bool {
	p := s.p
	if s.inInit {
		s.materialise(d, &p.Init[s.idx], -1)
		s.idx++
		if s.idx == len(p.Init) {
			s.inInit = false
			s.idx = 0
		}
		return true
	}
	if s.iter >= p.Iterations {
		return false
	}
	s.materialise(d, &p.Body[s.idx], s.iter)
	s.idx++
	if s.idx == len(p.Body) {
		s.idx = 0
		s.iter++
	}
	return true
}

func (s *Stream) materialise(d *Dyn, in *isa.Instr, iter int64) {
	d.Static = in
	d.Seq = s.seq
	d.Iter = iter
	d.Addr = 0
	d.Taken = false
	if iter < 0 {
		d.PC = InitBase + uint64(s.idx)*isa.InstrBytes
	} else {
		d.PC = PCOf(s.idx)
	}
	if in.Op.IsMem() {
		// Type-switch devirtualisation: the built-in generators resolve to
		// direct (inlinable) calls on the per-fetch hot path, the
		// interface call remains as the general fallback.
		switch g := s.p.AddrGens[in.AddrGen].(type) {
		case LineSweep:
			d.Addr = g.Addr(iter)
		case PointerChase:
			d.Addr = g.Addr(iter)
		case StridedBlock:
			d.Addr = g.Addr(iter)
		case RandomWalk:
			d.Addr = g.Addr(iter)
		case Fixed:
			d.Addr = g.Address
		default:
			d.Addr = g.Addr(iter)
		}
	}
	if in.Op == isa.OpBranch {
		switch g := s.p.BrGens[in.BrGen].(type) {
		case LoopBranch:
			d.Taken = g.Taken(iter)
		case Periodic:
			d.Taken = g.Taken(iter)
		case Bernoulli:
			d.Taken = g.Taken(iter)
		default:
			d.Taken = g.Taken(iter)
		}
	}
	s.seq++
}
