package pipe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avfstress/internal/uarch"
)

// fmtFaultFingerprint is the documented form of Fault.Fingerprint,
// kept as the oracle its appender must match byte for byte: trial keys
// built from either must address the same cache entries.
func fmtFaultFingerprint(f Fault) string {
	return fmt.Sprintf("pipe.Fault{%d %d %d}", int(f.Structure), f.Bit, f.Cycle)
}

func TestFaultFingerprintMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	faults := []Fault{
		{},
		{Structure: uarch.NumStructures - 1, Bit: math.MaxUint64, Cycle: math.MaxInt64},
		{Structure: -1, Bit: 1, Cycle: math.MinInt64},
	}
	for i := 0; i < 1000; i++ {
		faults = append(faults, Fault{
			Structure: uarch.Structure(r.Intn(int(uarch.NumStructures))),
			Bit:       r.Uint64() >> r.Intn(64),
			Cycle:     r.Int63() >> r.Intn(63),
		})
	}
	buf := []byte("prefix:")
	for _, f := range faults {
		want := fmtFaultFingerprint(f)
		if got := f.Fingerprint(); got != want {
			t.Fatalf("Fingerprint %q, fmt %q", got, want)
		}
		if got := string(f.AppendFingerprint(buf)); got != "prefix:"+want {
			t.Fatalf("AppendFingerprint %q, want %q", got, "prefix:"+want)
		}
	}
}
