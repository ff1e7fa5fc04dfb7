package inject

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"avfstress/internal/isa"
	"avfstress/internal/pipe"
)

// The fmt forms of the blob codecs. The engine's codecs are written by
// hand on strconv; these are the documented formats they must match
// byte for byte (blobs written by either must decode under both), kept
// as test oracles.

func fmtEncodeTrial(t pipe.FaultTrial) []byte {
	c := 0
	if t.Corrupted {
		c = 1
	}
	return []byte(fmt.Sprintf("injtrial v2 %d %d %x %d %d",
		c, t.Diverge.Seq, t.Diverge.PC, uint8(t.Diverge.Op), t.Diverge.SrcSlot))
}

func fmtDecodeTrial(b []byte) (pipe.FaultTrial, error) {
	var (
		c, op int
		seq   int64
		pc    uint64
		slot  int8
		t     pipe.FaultTrial
	)
	n, err := fmt.Sscanf(string(b), "injtrial v2 %d %d %x %d %d", &c, &seq, &pc, &op, &slot)
	if err != nil || n != 5 {
		return t, fmt.Errorf("undecodable trial blob (%d bytes)", len(b))
	}
	if c != 0 && c != 1 || op > int(isa.OpBranch) {
		return t, fmt.Errorf("trial blob field out of range")
	}
	t.Corrupted = c == 1
	t.Diverge = pipe.Diverge{Seq: seq, PC: pc, Op: isa.Op(op), SrcSlot: slot}
	if string(fmtEncodeTrial(t)) != string(b) {
		return pipe.FaultTrial{}, fmt.Errorf("non-canonical trial blob")
	}
	return t, nil
}

func fmtEncodeGoldenInfo(gi pipe.GoldenInfo) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "goldeninfo v2 %d %d %d %d", gi.WindowStart, gi.Cycles, gi.Digest, len(gi.RFDead))
	for _, iv := range gi.RFDead {
		fmt.Fprintf(&b, " %d %d %d", iv.Slot, iv.Start, iv.End)
	}
	return []byte(b.String())
}

func fmtEncodeManifest(interval, lead int64, cycles []int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "ckptmanifest v1 %d %d %d", interval, lead, len(cycles))
	for _, c := range cycles {
		fmt.Fprintf(&b, " %d", c)
	}
	return []byte(b.String())
}

// randInt64 draws from the whole int64 range with a bias towards short
// numbers and the extremes.
func randInt64(r *rand.Rand) int64 {
	switch r.Intn(8) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 0
	}
	v := int64(r.Uint64() >> r.Intn(64))
	if r.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestCodecsMatchFmt: over 1000 random records each, the trial,
// golden-info and manifest encoders write exactly the fmt oracle's
// bytes, and the decoders round-trip them.
func TestCodecsMatchFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		tr := pipe.FaultTrial{
			Corrupted: r.Intn(2) == 0,
			Diverge: pipe.Diverge{Seq: randInt64(r), PC: uint64(randInt64(r)),
				Op: isa.Op(r.Intn(int(isa.OpBranch) + 1)), SrcSlot: int8(randInt64(r))},
		}
		b := encodeTrial(tr)
		if want := fmtEncodeTrial(tr); string(b) != string(want) {
			t.Fatalf("encodeTrial %q, fmt %q", b, want)
		}
		got, err := decodeTrial(b)
		if err != nil || got != tr {
			t.Fatalf("decodeTrial(%q) = %+v, %v; want %+v", b, got, err, tr)
		}

		gi := pipe.GoldenInfo{WindowStart: randInt64(r), Cycles: randInt64(r), Digest: uint64(randInt64(r))}
		for j := r.Intn(6); j > 0; j-- {
			gi.RFDead = append(gi.RFDead, pipe.RFDeadInterval{Slot: int16(randInt64(r)), Start: randInt64(r), End: randInt64(r)})
		}
		b = encodeGoldenInfo(gi)
		if want := fmtEncodeGoldenInfo(gi); string(b) != string(want) {
			t.Fatalf("encodeGoldenInfo %q, fmt %q", b, want)
		}
		if dec, err := decodeGoldenInfo(b); err != nil || !reflect.DeepEqual(dec, gi) {
			t.Fatalf("decodeGoldenInfo(%q) = %+v, %v; want %+v", b, dec, err, gi)
		}

		interval, lead := randInt64(r), randInt64(r)
		cycles := make([]int64, r.Intn(6))
		for j := range cycles {
			cycles[j] = randInt64(r)
		}
		b = encodeManifest(interval, lead, cycles)
		if want := fmtEncodeManifest(interval, lead, cycles); string(b) != string(want) {
			t.Fatalf("encodeManifest %q, fmt %q", b, want)
		}
		m, err := decodeManifest(b)
		if err != nil || m.interval != interval || m.lead != lead || !reflect.DeepEqual(m.cycles, cycles) {
			t.Fatalf("decodeManifest(%q) = %+v, %v", b, m, err)
		}
	}
}

// TestDecodersRejectNonCanonical: the golden-info and manifest decoders
// keep their count checks and accept only the canonical spelling.
func TestDecodersRejectNonCanonical(t *testing.T) {
	for _, s := range []string{
		"", "goldeninfo v2", "goldeninfo v2 1 2 3", "goldeninfo v1 1 2 3 0",
		"goldeninfo v2 1 2 3 1", "goldeninfo v2 1 2 3 1 4 5", "goldeninfo v2 1 2 3 0 4",
		"goldeninfo v2 1 2 3 -1", "goldeninfo v2 1 2 3 9223372036854775807 1 1 1",
		"goldeninfo v2 1 2 3 0 ", " goldeninfo v2 1 2 3 0", "goldeninfo  v2 1 2 3 0",
		"goldeninfo v2 +1 2 3 0", "goldeninfo v2 1 2 -3 0", "goldeninfo v2 1 2 3 1 32768 5 6",
		"goldeninfo\tv2 1 2 3 0", "goldeninfo v2 01 2 3 0",
	} {
		if gi, err := decodeGoldenInfo([]byte(s)); err == nil {
			t.Errorf("decodeGoldenInfo(%q) accepted: %+v", s, gi)
		}
	}
	for _, s := range []string{
		"", "ckptmanifest v1 1 2", "ckptmanifest v0 1 2 0", "ckptmanifest v1 1 2 1",
		"ckptmanifest v1 1 2 1 3 4", "ckptmanifest v1 1 2 -1", "ckptmanifest v1 1 2 0 ",
		"ckptmanifest v1 1 2 9223372036854775807 1", "ckptmanifest v1 -0 2 0", "ckptmanifest v1 1  2 0",
	} {
		if m, err := decodeManifest([]byte(s)); err == nil {
			t.Errorf("decodeManifest(%q) accepted: %+v", s, m)
		}
	}
}

// FuzzDecodeGoldenInfo: the decoder never panics, and anything it
// accepts re-encodes to the identical bytes.
func FuzzDecodeGoldenInfo(f *testing.F) {
	f.Add(encodeGoldenInfo(pipe.GoldenInfo{}))
	f.Add(encodeGoldenInfo(pipe.GoldenInfo{WindowStart: 7512, Cycles: 41234, Digest: math.MaxUint64,
		RFDead: []pipe.RFDeadInterval{{Slot: 3, Start: 7600, End: 7700}, {Slot: -1, Start: 0, End: 1}}}))
	f.Add([]byte("goldeninfo v2 1 2 3 2 4 5 6"))
	f.Add([]byte("goldeninfo v2 1 2 3 1  4 5 6"))
	f.Fuzz(func(t *testing.T, b []byte) {
		gi, err := decodeGoldenInfo(b)
		if err != nil {
			return
		}
		if got := encodeGoldenInfo(gi); string(got) != string(b) {
			t.Fatalf("accepted non-canonical blob %q (canonical %q)", b, got)
		}
		if got := fmtEncodeGoldenInfo(gi); string(got) != string(b) {
			t.Fatalf("accepted blob %q the fmt oracle writes as %q", b, got)
		}
	})
}

// FuzzDecodeManifest: the decoder never panics, and anything it
// accepts re-encodes to the identical bytes.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(encodeManifest(0, 0, nil))
	f.Add(encodeManifest(4096, 250, []int64{4096, 8192, 12288}))
	f.Add([]byte("ckptmanifest v1 1 2 2 3"))
	f.Add([]byte("ckptmanifest v1 1 2 1 +3"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			return
		}
		if got := encodeManifest(m.interval, m.lead, m.cycles); string(got) != string(b) {
			t.Fatalf("accepted non-canonical manifest %q (canonical %q)", b, got)
		}
		if got := fmtEncodeManifest(m.interval, m.lead, m.cycles); string(got) != string(b) {
			t.Fatalf("accepted manifest %q the fmt oracle writes as %q", b, got)
		}
	})
}

// benchGoldenInfo is a golden-info blob the size a suite campaign's
// golden run records (thousands of register-file dead intervals).
func benchGoldenInfo() []byte {
	gi := pipe.GoldenInfo{WindowStart: 7512, Cycles: 41234, Digest: 0xfedcba9876543210}
	for i := int64(0); i < 4000; i++ {
		gi.RFDead = append(gi.RFDead, pipe.RFDeadInterval{Slot: int16(i % 120), Start: 7512 + 10*i, End: 7530 + 10*i})
	}
	return encodeGoldenInfo(gi)
}

func BenchmarkDecodeGoldenInfo(b *testing.B) {
	blob := benchGoldenInfo()
	b.SetBytes(int64(len(blob)))
	for b.Loop() {
		if _, err := decodeGoldenInfo(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTrial(b *testing.B) {
	blob := encodeTrial(pipe.FaultTrial{Corrupted: true, Diverge: pipe.Diverge{Seq: 12345, PC: 0x10004, Op: isa.OpMul, SrcSlot: -1}})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeTrial(blob); err != nil {
			b.Fatal(err)
		}
	}
}
