package inject

// Checkpoint plumbing for the campaign engine: persistence of the
// golden run's replay facts (GoldenInfo), the checkpoint manifest
// (capture cycles + validity lead) and the per-index checkpoint blobs
// in the simcache blob tier, plus the lazy checkpoint source bucket
// jobs pull from. Checkpoints are pure replay accelerators: every code
// path here degrades to a from-cycle-zero replay on any miss or decode
// failure, never to a wrong outcome — which is why none of these keys
// participate in trial-outcome addressing or in the report.

import (
	"errors"
	"strconv"
	"sync"

	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/simcache"
)

// encodeGoldenInfo serialises the golden run's replay facts (a small
// versioned text blob; the report only uses fields replays also need,
// so caching this beside the result spares warm campaigns the golden
// re-run entirely). v2 appends the recorded register-file dead
// intervals, which the target pruner needs; v1 blobs from older runs
// fail decode and ride the existing discard-and-rebuild path. The
// intervals are always recorded and always encoded — blob content is
// independent of the producing campaign's PruneStatic setting, so warm
// and cold campaigns see identical prune inputs.
//
//	goldeninfo v2 <window start> <cycles> <digest> <n> (<slot> <start> <end>)×n
func encodeGoldenInfo(gi pipe.GoldenInfo) []byte {
	b := make([]byte, 0, 48+24*len(gi.RFDead))
	b = append(b, "goldeninfo v2 "...)
	b = strconv.AppendInt(b, gi.WindowStart, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, gi.Cycles, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, gi.Digest, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(gi.RFDead)), 10)
	for _, iv := range gi.RFDead {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(iv.Slot), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, iv.Start, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, iv.End, 10)
	}
	return b
}

// decodeGoldenInfo parses a v2 golden-info blob. Only the canonical
// encoding scans, so anything it accepts re-encodes to the identical
// bytes.
func decodeGoldenInfo(b []byte) (pipe.GoldenInfo, error) {
	sc := fieldScanner{rest: string(b)}
	sc.literal("goldeninfo")
	sc.literal("v2")
	gi := pipe.GoldenInfo{WindowStart: sc.int(64), Cycles: sc.int(64), Digest: sc.uint()}
	n := sc.int(64)
	if sc.bad {
		return pipe.GoldenInfo{}, errors.New("inject: bad golden-info blob")
	}
	// Each interval takes at least six bytes (" 0 0 0"), which bounds
	// the allocation a corrupt count could ask for.
	if n < 0 || n > int64(len(b)/6) {
		return pipe.GoldenInfo{}, errors.New("inject: golden-info interval count mismatch")
	}
	if n > 0 {
		gi.RFDead = make([]pipe.RFDeadInterval, n)
		for i := range gi.RFDead {
			gi.RFDead[i] = pipe.RFDeadInterval{Slot: int16(sc.int(16)), Start: sc.int(64), End: sc.int(64)}
		}
	}
	if !sc.done() {
		return pipe.GoldenInfo{}, errors.New("inject: bad golden-info blob")
	}
	return gi, nil
}

// ckptManifest is the decoded checkpoint manifest: enough to bucket
// faults by nearest valid checkpoint without loading any checkpoint.
type ckptManifest struct {
	interval int64
	lead     int64
	cycles   []int64
}

// encodeManifest serialises a checkpoint set's manifest:
//
//	ckptmanifest v1 <interval> <lead> <n> <cycle>×n
func encodeManifest(interval, lead int64, cycles []int64) []byte {
	b := make([]byte, 0, 32+8*len(cycles))
	b = append(b, "ckptmanifest v1 "...)
	b = strconv.AppendInt(b, interval, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, lead, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(cycles)), 10)
	for _, c := range cycles {
		b = append(b, ' ')
		b = strconv.AppendInt(b, c, 10)
	}
	return b
}

// decodeManifest parses a checkpoint manifest. Only the canonical
// encoding scans, so anything it accepts re-encodes to the identical
// bytes.
func decodeManifest(b []byte) (ckptManifest, error) {
	sc := fieldScanner{rest: string(b)}
	sc.literal("ckptmanifest")
	sc.literal("v1")
	m := ckptManifest{interval: sc.int(64), lead: sc.int(64)}
	n := sc.int(64)
	if sc.bad {
		return ckptManifest{}, errors.New("inject: bad checkpoint manifest")
	}
	// Each cycle takes at least two bytes (" 0").
	if n < 0 || n > int64(len(b)/2) {
		return ckptManifest{}, errors.New("inject: checkpoint manifest count mismatch")
	}
	m.cycles = make([]int64, n)
	for i := range m.cycles {
		m.cycles[i] = sc.int(64)
	}
	if !sc.done() {
		return ckptManifest{}, errors.New("inject: bad checkpoint manifest")
	}
	return m, nil
}

// ckptSource hands out replay checkpoints by manifest index: from the
// fresh golden run's in-memory set when this process just captured it,
// otherwise lazily decoded from the blob tier (each index at most once,
// shared across buckets). A missing or corrupt blob yields nil and the
// bucket replays from cycle zero — slower, never wrong.
type ckptSource struct {
	set   *pipe.CheckpointSet
	cache *simcache.Store
	prog  *prog.Program
	keys  []simcache.Key

	mu      sync.Mutex
	decoded map[int]*pipe.Checkpoint
}

func (cs *ckptSource) checkpoint(i int) *pipe.Checkpoint {
	if cs == nil || i < 0 {
		return nil
	}
	if cs.set != nil {
		return cs.set.Checkpoints[i]
	}
	cs.mu.Lock()
	ck, ok := cs.decoded[i]
	cs.mu.Unlock()
	if ok {
		return ck
	}
	if b, found := cs.cache.GetBlob(cs.keys[i]); found {
		if dec, err := pipe.UnmarshalCheckpoint(b, cs.prog); err == nil {
			ck = dec
		}
	}
	cs.mu.Lock()
	cs.decoded[i] = ck // nil is cached too: one failed load per index
	cs.mu.Unlock()
	return ck
}
