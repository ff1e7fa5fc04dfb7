package inject

import (
	"os"
	"path/filepath"
	"testing"

	"avfstress/internal/isa"
	"avfstress/internal/persist"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
)

func sampleTrials() []pipe.FaultTrial {
	return []pipe.FaultTrial{
		{}, // zero record
		{Corrupted: false, Diverge: pipe.Diverge{Seq: -1, SrcSlot: -1}},                                  // masked
		{Corrupted: true, Diverge: pipe.Diverge{Seq: -1, SrcSlot: -1}},                                   // corrupted, no consumer
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 12345, PC: 0x10004, Op: isa.OpMul, SrcSlot: 1}},     // RF consumer
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 1 << 40, PC: 0x1000, Op: isa.OpStore, SrcSlot: -1}}, // init PC, big seq
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 0, PC: 0x10000, Op: isa.OpBranch, SrcSlot: 0}},      // stream head
	}
}

func TestTrialBlobRoundTrip(t *testing.T) {
	for _, want := range sampleTrials() {
		b := encodeTrial(want)
		got, err := decodeTrial(b)
		if err != nil {
			t.Fatalf("decode(%q): %v", b, err)
		}
		// The codec does not carry the replay digest.
		want.Digest = 0
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", b, got, want)
		}
	}
}

// TestLegacyTrialBlobFailsDecode: v1 trial blobs were a single outcome
// byte; they must fail the v2 decode so the engine takes the
// discard-and-rebuild path rather than misreading them.
func TestLegacyTrialBlobFailsDecode(t *testing.T) {
	for _, b := range [][]byte{{0}, {1}, {}, []byte("injtrial v2"), []byte("injtrial v1 1 0 0 0 0")} {
		if tr, err := decodeTrial(b); err == nil {
			t.Errorf("decode(%v) accepted a non-v2 blob: %+v", b, tr)
		}
	}
	// Trailing garbage and non-canonical spellings are rejected too —
	// only the exact canonical encoding decodes.
	good := string(encodeTrial(pipe.FaultTrial{Corrupted: true, Diverge: pipe.Diverge{Seq: 3, PC: 0x10004, Op: isa.OpAdd, SrcSlot: 0}}))
	for _, s := range []string{good + " ", good + "x", " " + good, "injtrial v2 1 03 10004 1 0", "injtrial v2 2 3 10004 1 0", "injtrial v2 1 3 10004 9 0"} {
		if tr, err := decodeTrial([]byte(s)); err == nil {
			t.Errorf("decode(%q) accepted a non-canonical blob: %+v", s, tr)
		}
	}
}

// FuzzDecodeTrial: the hand-written decoder accepts exactly the blobs
// the fmt.Sscanf oracle accepts and decodes them to the same record,
// never panics, and anything it accepts re-encodes to the identical
// bytes (canonical form), so two distinct blobs can never alias one
// trial record.
func FuzzDecodeTrial(f *testing.F) {
	for _, tr := range sampleTrials() {
		f.Add(encodeTrial(tr))
	}
	f.Add([]byte{1})
	f.Add([]byte("injtrial v2 1 -1 0 0 -1"))
	for _, s := range []string{
		"injtrial v2 1 +3 10004 1 0", "injtrial v2 1 3 10004 1 0 ", "injtrial  v2 1 3 10004 1 0",
		"injtrial v2 1 3 1000A 1 0", "injtrial v2 1 3 10004 1 128", "injtrial v2 1 3 10004 -1 0",
		"injtrial v2 0 -9223372036854775808 ffffffffffffffff 6 -128", "injtrial v2 1 3 0x10004 1 0",
		"injtrial v2 1 3 10004 1 0\n", "injtrial v2 1 3 10004 1", "injtrial v2 1 -0 0 0 0",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := decodeTrial(b)
		want, werr := fmtDecodeTrial(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode(%q): error %v, fmt oracle error %v", b, err, werr)
		}
		if err != nil {
			return
		}
		if tr != want {
			t.Fatalf("decode(%q) = %+v, fmt oracle %+v", b, tr, want)
		}
		if got := encodeTrial(tr); string(got) != string(b) {
			t.Fatalf("accepted non-canonical blob %q (canonical %q)", b, got)
		}
	})
}

// TestTrialBlobBitFlipQuarantinesEveryOffset: v2 trial blobs are longer
// than the one-byte v1 outcome and carry numeric fields a flipped digit
// could silently alter — the CRC frame must turn every single-bit
// corruption of the on-disk entry into a quarantined miss before the
// codec ever sees it.
func TestTrialBlobBitFlipQuarantinesEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := simcache.New(simcache.Options{Dir: dir})
	key := s.Key("trialblob-corrupt")
	s.PutBlob(key, encodeTrial(pipe.FaultTrial{Corrupted: true,
		Diverge: pipe.Diverge{Seq: 12345, PC: 0x10004, Op: isa.OpMul, SrcSlot: 1}}))
	versionDir := filepath.Join(dir, simcache.EngineVersion)
	var path string
	ents, err := os.ReadDir(versionDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			path = filepath.Join(versionDir, e.Name())
		}
	}
	if path == "" {
		t.Fatal("no blob entry on disk")
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(good); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= 1 << bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			cold := simcache.New(simcache.Options{Dir: dir})
			if v, ok := cold.GetBlob(key); ok {
				t.Fatalf("offset %d bit %d: corrupt trial blob served as a hit (%q)", off, bit, v)
			}
			if st := cold.Stats(); st.Quarantined != 1 {
				t.Fatalf("offset %d bit %d: stats %+v, want Quarantined=1", off, bit, st)
			}
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCampaignHealsLegacyTrialBlobs: a cache directory holding
// v-previous entries — every blob rewritten as a framed v1 one-byte
// outcome — must not poison a campaign: undecodable trial blobs are
// discarded and replayed, and the report comes out byte-identical to
// the clean run's.
func TestCampaignHealsLegacyTrialBlobs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 80)
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	clean, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}

	// Downgrade every on-disk blob (trial outcomes, golden info,
	// checkpoint manifests alike) to a legacy one-byte entry with a
	// valid frame.
	versionDir := filepath.Join(dir, simcache.EngineVersion)
	ents, err := os.ReadDir(versionDir)
	if err != nil {
		t.Fatal(err)
	}
	downgraded := 0
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".bin" {
			continue
		}
		if err := os.WriteFile(filepath.Join(versionDir, e.Name()),
			persist.EncodeFramed([]byte{1}), 0o644); err != nil {
			t.Fatal(err)
		}
		downgraded++
	}
	if downgraded == 0 {
		t.Fatal("campaign left no blobs to downgrade")
	}

	o.Cache = simcache.New(simcache.Options{Dir: dir})
	healed, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Cache.Stats(); st.Quarantined == 0 {
		t.Errorf("legacy blobs were served as hits, none quarantined: %+v", st)
	}
	if healed.String() != clean.String() {
		t.Errorf("report differs after healing legacy blobs:\nclean:\n%s\nhealed:\n%s", clean, healed)
	}
}
