package inject

import (
	"encoding/hex"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/isa"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// TestKeyAndBlobBytesPinned pins the bytes of a trial key, of program
// fingerprints and of the blob encodings. They address entries in disk
// tiers that outlive the process, so any drift would silently turn
// every existing tier into misses and discarded blobs; a change here is
// deliberate only together with a simcache.EngineVersion bump (DESIGN.md
// §7).
func TestKeyAndBlobBytesPinned(t *testing.T) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	// The paper's Figure 5a baseline stressmark
	// (experiments.ReferenceKnobs("baseline")).
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Fingerprint(), "41e28860cf775c20ebf9359bba7530505b216870ce7c3fcc21e85603a34ffd0f"; got != want {
		t.Errorf("reference stressmark fingerprint %s, pinned %s", got, want)
	}
	for _, w := range []struct{ name, fp string }{
		{"403.gcc", "ad02096cf29edb69b39a94c212c39743649d5a45c7f24a75e57b0149de375c7d"},
		{"429.mcf", "6f8425945b2b2b794b378550100527b912cc4aba5553e620d630eab302a9e5c5"},
		{"462.libquantum", "771e8f49ab43b5b6593f3b2bec8dbce819a345c9538b0cca005bc694e180e479"},
	} {
		pf, err := workloads.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := pf.Build(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := wp.Fingerprint(); got != w.fp {
			t.Errorf("%s fingerprint %s, pinned %s", w.name, got, w.fp)
		}
	}

	// A campaign trial key at the suite's campaign budget, built both
	// ways the engine can build it.
	const wantKey = "6f5d4f62a7571b62fcd33553f03ddfa764c06ce8f4553e989edcdd674acd9711"
	rc := pipe.RunConfig{MaxInstructions: 20_000, WarmupInstructions: 7_500}
	f := pipe.Fault{Structure: uarch.ROB, Bit: 1234, Cycle: 56789}
	cfgFP, progFP, rcFP := cfg.Fingerprint(), "prog:"+p.Fingerprint(), rc.Fingerprint()
	for _, s := range []*simcache.Store{nil, simcache.New(simcache.Options{})} {
		if got := s.Key(cfgFP, progFP, rcFP, "injtrial:"+f.Fingerprint()).Hex(); got != wantKey {
			t.Errorf("Store.Key %s, pinned %s", got, wantKey)
		}
		if got := s.Prefix(cfgFP, progFP, rcFP).Key("injtrial:" + f.Fingerprint()).Hex(); got != wantKey {
			t.Errorf("Prefix.Key %s, pinned %s", got, wantKey)
		}
	}
	if simcache.EngineVersion != "v3" {
		t.Errorf("EngineVersion %q: the pins above were taken at v3", simcache.EngineVersion)
	}

	trial := pipe.FaultTrial{Corrupted: true, Diverge: pipe.Diverge{Seq: 12345, PC: 0x10004, Op: isa.OpMul, SrcSlot: -1}}
	if got, want := hex.EncodeToString(encodeTrial(trial)), "696e6a747269616c20763220312031323334352031303030342032202d31"; got != want {
		t.Errorf("trial blob %s, pinned %s", got, want)
	}
	gi := pipe.GoldenInfo{WindowStart: 7512, Cycles: 41234, Digest: 0xfedcba9876543210,
		RFDead: []pipe.RFDeadInterval{{Slot: 3, Start: 7600, End: 7700}, {Slot: 127, Start: 9000, End: 48000}}}
	if got, want := hex.EncodeToString(encodeGoldenInfo(gi)), "676f6c64656e696e666f20763220373531322034313233342031383336343735383534343439333036343732302032203320373630302037373030203132372039303030203438303030"; got != want {
		t.Errorf("golden-info blob %s, pinned %s", got, want)
	}
}
