package prog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// fmtFingerprint is the documented form of Program.Fingerprint, written
// with fmt and kept as the oracle the streamed strconv version must
// match digest for digest: simcache keys built from either must address
// the same entries.
func fmtFingerprint(p *prog.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "prog{name=%q iters=%d footprint=%d}", p.Name, p.Iterations, p.FootprintBytes)
	section := func(tag string, ins []isa.Instr) {
		fmt.Fprintf(h, "|%s[%d]", tag, len(ins))
		for i := range ins {
			in := &ins[i]
			fmt.Fprintf(h, "|%d,%d,%d,%d,%d,%t,%d,%d,%t",
				in.Op, in.Dest, in.Src1, in.Src2, in.Imm, in.RegReg,
				in.AddrGen, in.BrGen, in.UnACE)
		}
	}
	section("init", p.Init)
	section("body", p.Body)
	for _, g := range p.AddrGens {
		fmt.Fprintf(h, "|ag:%#v", g)
	}
	for _, g := range p.BrGens {
		fmt.Fprintf(h, "|bg:%#v", g)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMatchesFmt covers every workload proxy and a
// reference stressmark on both configurations, plus a program with
// extreme field values and one long enough to flush the hash buffer
// several times.
func TestFingerprintMatchesFmt(t *testing.T) {
	var progs []*prog.Program
	for _, cfg := range []uarch.Config{uarch.Scaled(uarch.Baseline(), 32), uarch.Scaled(uarch.ConfigA(), 32)} {
		for _, pf := range workloads.Profiles() {
			p, err := pf.Build(cfg, 1)
			if err != nil {
				t.Fatalf("%s: %v", pf.Name, err)
			}
			progs = append(progs, p)
		}
		k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
			NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
			DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
		p, _, err := codegen.Generate(cfg, k, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	odd := &prog.Program{Name: "quote\"d\x00name", Iterations: -1, FootprintBytes: 1 << 62}
	for i := 0; i < 3000; i++ {
		odd.Body = append(odd.Body, isa.Instr{
			Op: isa.Op(i % 256), Dest: isa.Reg(i % 256), Src1: isa.Reg(255 - i%256), Src2: isa.Reg(i % 7),
			Imm: int16(i*37 - 32768), RegReg: i%2 == 0, AddrGen: i - 1500, BrGen: -i, UnACE: i%3 == 0,
		})
	}
	progs = append(progs, odd, &prog.Program{})
	for _, p := range progs {
		if got, want := p.Fingerprint(), fmtFingerprint(p); got != want {
			t.Errorf("%s: Fingerprint %s, fmt oracle %s", p.Name, got, want)
		}
	}
}
