// Package inject is the Monte Carlo statistical fault-injection
// campaign engine (DESIGN.md §9): the standard cross-check for an
// ACE-based AVF estimator. A campaign samples single-bit fault targets
// (structure, bit, cycle) uniformly over the bit-cycle space of a
// golden (fault-free) simulation, replays the run deterministically
// with each fault injected (internal/pipe.RunFault), classifies every
// trial as masked, SDC or detected, and aggregates per-structure and
// derated AVF estimates with 95% binomial confidence intervals — which
// the ACE-based AVF must fall inside for the estimator to validate.
//
// Campaigns are deterministic end to end: targets derive from a
// splitmix64 stream seeded by (Seed, structure, trial index), replays
// are pure functions of (config, program, budget, fault), and the
// rendered report is byte-identical across runs, worker counts and
// cache states. Trials memoise their outcomes in internal/simcache
// keyed by (golden fingerprint, target), so overlapping campaigns and
// warm re-runs replay only the marginal trials; the marginal trials
// themselves are bucketed by the nearest golden-run checkpoint
// preceding their injection cycle and fan out as one fork-replay job
// per bucket through internal/sched, so most replays resume mid-run
// instead of re-simulating from cycle zero (DESIGN.md §10).
package inject

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"avfstress/internal/avf"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/report"
	"avfstress/internal/rootcause"
	"avfstress/internal/scenario"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// Options parameterises one campaign.
type Options struct {
	// Config is the microarchitecture under injection.
	Config uarch.Config
	// Program is the workload whose golden run defines the sampling
	// space.
	Program *prog.Program
	// Run budgets the golden run and every replay.
	Run pipe.RunConfig
	// Rates weight the derated aggregate and define the outcome
	// taxonomy: a structure with rate zero is detection-protected (EDR),
	// so its corrupting trials classify as detected (DUE), not SDC. The
	// zero value means uniform 1 unit/bit.
	Rates uarch.FaultRates
	// Trials is the total trial budget, allocated to structures in
	// proportion to their bit counts (default 1000).
	Trials int
	// MinPerStructure floors each structure's allocation so small
	// structures still get a usable stratum (default 16; the aggregate
	// estimator is stratified, so allocation affects variance only, not
	// bias).
	MinPerStructure int
	// Seed drives target sampling (default 1).
	Seed int64
	// Structures restricts the campaign (default: every SER-tracked
	// structure).
	Structures []uarch.Structure
	// Parallelism bounds concurrent trial replays (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when set, memoises per-trial outcomes content-addressed by
	// (golden fingerprint, target); nil replays every trial.
	Cache *simcache.Store
	// CheckpointInterval controls golden-run checkpoint capture for
	// fork-replay: 0 (the default) picks the interval automatically, a
	// positive value checkpoints every that many measured cycles, and a
	// negative value disables checkpointing so every replay starts from
	// cycle zero. Checkpoints only accelerate replays — outcomes, trial
	// cache keys and the rendered report are byte-identical at any
	// setting.
	CheckpointInterval int64
	// PruneStatic controls static liveness pruning of the injection
	// space (DESIGN.md §12): 0 (the default) and any positive value
	// enable it, a negative value disables it (the benchmark baseline,
	// mirroring CheckpointInterval). When enabled, campaign setup
	// intersects every sampled target with the statically proven dead
	// set — capped queue entries, never-popped physical registers and
	// recorded dead-definition occupancies — classifies those targets
	// as masked analytically with zero replays, and re-allocates the
	// freed trial budget across the live subspace, so the same budget
	// buys a tighter confidence interval. Pruning changes which targets
	// replay, never any replay's outcome; with it disabled the campaign
	// is byte-identical to the legacy sampler.
	PruneStatic int
	// Retry bounds scheduler retries of transiently failing trial jobs
	// (zero value: no retries). Retries change wall-clock only, never
	// outcomes — trials are deterministic and memoised.
	Retry sched.RetryPolicy
	// Executor, when set, arbitrates bucket and trial jobs across
	// campaign-fabric nodes (DESIGN.md §13): every node derives the
	// same buckets, exactly one runs each cold, the rest assemble from
	// the shared store. Nil runs the whole campaign locally. Sharding
	// changes wall-clock only — sampling is up-front and outcomes are
	// content-addressed, so reports stay byte-identical.
	Executor sched.Executor
	// RootCause, when set, attributes every corrupting trial to the
	// program instruction whose value the flipped bit held
	// (internal/rootcause, DESIGN.md §14) and attaches the
	// per-instruction and per-class vulnerability tables to the result.
	// Attribution reuses the first-divergent-commit records every trial
	// replay already produces, so enabling it adds zero replays and
	// trial cache blobs stay shared with non-attributing campaigns.
	RootCause bool
}

func (o Options) withDefaults() Options {
	var zero uarch.FaultRates
	if o.Rates == zero {
		o.Rates = uarch.UniformRates(1)
	}
	if o.Trials <= 0 {
		o.Trials = 1000
	}
	if o.MinPerStructure <= 0 {
		o.MinPerStructure = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Structures) == 0 {
		o.Structures = make([]uarch.Structure, uarch.NumStructures)
		for s := range o.Structures {
			o.Structures[s] = uarch.Structure(s)
		}
	}
	return o
}

// Interval is a confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// StructureResult is one campaign stratum.
type StructureResult struct {
	Structure uarch.Structure
	Bits      uint64
	// Trials counts the stratum's trial slots: replayed trials plus
	// statically pruned targets, so SDC+Detected+Masked+Pruned always
	// reconciles with Trials.
	Trials   int
	SDC      int
	Detected int
	Masked   int
	// Pruned counts targets the static liveness filter classified
	// masked analytically (zero replays). PruneFrac is the dead
	// fraction of the stratum's bit-cycle space the estimator corrects
	// for (exactly zero when pruning is disabled), and StaticBound the
	// tightened static ACE upper bound: the paper's all-bits bound 1.0
	// minus the statically proven dead fraction (reported even when
	// pruning is disabled — it is a static fact of the workload).
	Pruned      int
	PruneFrac   float64
	StaticBound float64
	// AVF is the injection-measured vulnerability: the corrupted
	// fraction over replayed trials (SampleAVF) scaled by the live
	// fraction 1−PruneFrac, since replays sample only the live
	// subspace — detection changes the outcome class, not the
	// underlying vulnerability — with its similarly scaled Wilson 95%
	// confidence interval and the golden run's ACE-based AVF beside
	// it. Phase1* split out the outcome counts of the first sampling
	// phase, whose draws are stream-identical to an unpruned
	// campaign's; the pruned-campaign benchmark reconciles them
	// against the baseline's counts.
	AVF       float64
	SampleAVF float64
	CI        Interval
	ACE       float64

	Phase1SDC, Phase1Detected, Phase1Masked int
}

// Result is the outcome of one campaign.
type Result struct {
	Config   string
	Workload string
	Seed     int64
	Trials   int // trial slots: replays plus pruned targets (≥ Options.Trials after flooring)

	// Golden is the fault-free run the campaign validates, GoldenDigest
	// its committed-state digest (the reference of every replay's
	// architectural-state diff) and WindowStart/WindowCycles the sampled
	// cycle space.
	Golden       *avf.Result
	GoldenDigest uint64
	WindowStart  int64
	WindowCycles int64

	Structures []StructureResult

	// AVF is the bit-weighted injection-measured AVF over the campaign's
	// structures with its stratified 95% confidence interval; ACEAVF is
	// the bit-weighted ACE counterpart. Derated* repeat the comparison
	// under the fault-rate weighting (rate×bits per structure).
	AVF        float64
	CI         Interval
	ACEAVF     float64
	DeratedAVF float64
	DeratedCI  Interval
	DeratedACE float64

	SDC, Detected, Masked int

	// Pruned totals the statically pruned targets across strata,
	// StaticBound is the bit-weighted tightened static ACE upper bound
	// and PruneEnabled records whether the filter was active.
	Pruned       int
	StaticBound  float64
	PruneEnabled bool

	// RootCause holds the instruction-level attribution of the
	// campaign's corrupted trials when Options.RootCause was set; nil
	// otherwise.
	RootCause *rootcause.Result
}

// rng is a splitmix64 stream: a fixed, documented generator so
// campaigns are reproducible across platforms and Go versions
// (math/rand's stream is not part of its compatibility promise).
// The full sequential construction — golden-gamma counter plus
// finalizer — is used rather than ad-hoc finalizer hashing of trial
// indices: the finalizer alone over near-identical inputs leaves
// measurable structure in the low bits that the modulo reductions
// consume, enough to push a thousand-trial stratum several sigma off
// its mean.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// stratumRNG returns the sampling stream of one structure's stratum,
// decorrelated from the seed and the structure index by one finalizer
// round each.
func stratumRNG(seed int64, s uarch.Structure) rng {
	r := rng{state: uint64(seed)}
	a := r.next()
	r.state = a ^ (uint64(s)+1)*0xbf58476d1ce4e5b9
	b := r.next()
	return rng{state: a ^ b}
}

// allocate splits the trial budget across structures proportionally to
// weight (largest-remainder rounding, ties broken in structure order),
// then floors every stratum at min. Deterministic.
func allocate(total, min int, weights []float64) []int {
	n := make([]int, len(weights))
	rem := make([]float64, len(weights))
	allocated := 0
	for i, w := range weights {
		exact := float64(total) * w
		n[i] = int(exact)
		rem[i] = exact - float64(n[i])
		allocated += n[i]
	}
	for allocated < total {
		best := -1
		for i := range rem {
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		n[best]++
		rem[best] = -1
		allocated++
	}
	for i := range n {
		if n[i] < min {
			n[i] = min
		}
	}
	return n
}

// Run executes the campaign: one golden simulation, then Trials fault
// replays fanned out as deduplicated jobs on internal/sched. The
// context cancels between replays.
func Run(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	if err := o.Config.Validate(); err != nil {
		return nil, err
	}
	if o.Program == nil {
		return nil, fmt.Errorf("inject: no program")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		return nil, err
	}
	// The static liveness pass runs unconditionally: its dead-definition
	// set drives the golden run's interval recording, and the recorded
	// facts are cached — blob content must not depend on the producing
	// campaign's PruneStatic setting.
	live := liveness.Analyze(o.Program, o.Config.Core)
	cfgFP := o.Config.Fingerprint()
	progFP := "prog:" + o.Program.Fingerprint()
	rcFP := o.Run.Fingerprint()
	// Every campaign key but the golden result's shares the (config,
	// program, budget) prefix: hash it once, so a key costs only its
	// last part — for the thousand trial keys, the fault.
	keyPrefix := o.Cache.Prefix(cfgFP, progFP, rcFP)

	// Golden run: checkpoint-capturing and cache-aware. The result key
	// deliberately matches the workload-simulation key internal/
	// experiments uses, so campaigns and experiments share one golden
	// run per (config, program, budget); the replay facts (GoldenInfo)
	// live in a sibling blob so a warm campaign skips the golden re-run
	// entirely.
	var (
		info     pipe.GoldenInfo
		haveInfo bool
		cks      *pipe.CheckpointSet
	)
	infoKey := keyPrefix.Key("goldeninfo")
	// publishCheckpoints pushes a freshly captured checkpoint set to the
	// blob tier: the manifest plus one blob per checkpoint, keyed by the
	// interval (a different interval is a different set, not a different
	// answer). Called inside the golden compute — before any fabric
	// claim on the golden result resolves — so a node that waited on a
	// peer's golden run finds the checkpoints already published.
	publishCheckpoints := func(set *pipe.CheckpointSet) {
		if o.CheckpointInterval < 0 || set == nil || o.Cache == nil {
			return
		}
		manifestKey := keyPrefix.Key(fmt.Sprintf("ckpts:%d", o.CheckpointInterval))
		o.Cache.PutBlob(manifestKey, encodeManifest(set.Interval, set.Lead, set.Cycles()))
		for i, ck := range set.Checkpoints {
			key := keyPrefix.Key(fmt.Sprintf("ckpts:%d:%d", o.CheckpointInterval, i))
			if b, merr := ck.MarshalBinary(); merr == nil {
				o.Cache.PutBlob(key, b)
			}
		}
	}
	if b, ok := o.Cache.GetBlob(infoKey); ok {
		if gi, derr := decodeGoldenInfo(b); derr == nil {
			info, haveInfo = gi, true
		} else {
			// The frame validated but the decoder rejects it: discard so
			// the rebuild below writes a clean entry.
			o.Cache.DiscardBlob(infoKey)
		}
	}
	golden, err := o.Cache.Do(o.Cache.Key(cfgFP, progFP, rcFP), func() (*avf.Result, error) {
		res, gi, set, gerr := pool.SimulateGoldenRecorded(o.Program, o.Run, o.CheckpointInterval, live.DeadDefs)
		if gerr != nil {
			return nil, gerr
		}
		info, haveInfo, cks = gi, true, set
		o.Cache.PutBlob(infoKey, encodeGoldenInfo(gi))
		publishCheckpoints(set)
		return res, nil
	})
	if err != nil {
		return nil, fmt.Errorf("inject: golden run: %w", err)
	}
	if !haveInfo {
		// A fabric peer may have run the golden while we waited on its
		// claim: it publishes the info blob before the claim resolves,
		// so one re-probe avoids a duplicate golden re-run.
		if b, ok := o.Cache.GetBlob(infoKey); ok {
			if gi, derr := decodeGoldenInfo(b); derr == nil {
				info, haveInfo = gi, true
			}
		}
	}
	if !haveInfo {
		// The result tier was warm but the info blob is gone (e.g. a
		// partially swept cache directory): one golden re-run rebuilds
		// both it and the checkpoint set.
		_, gi, set, gerr := pool.SimulateGoldenRecorded(o.Program, o.Run, o.CheckpointInterval, live.DeadDefs)
		if gerr != nil {
			return nil, fmt.Errorf("inject: golden run: %w", gerr)
		}
		info, cks = gi, set
		o.Cache.PutBlob(infoKey, encodeGoldenInfo(gi))
		publishCheckpoints(set)
	}
	if info.Cycles <= 0 {
		return nil, fmt.Errorf("inject: golden run measured no cycles")
	}

	// Recover the checkpoint set (fresh sets were already published by
	// publishCheckpoints inside the golden compute): on a warm golden
	// the manifest alone tells us where checkpoints lie, and each one
	// is decoded lazily only if a bucket needs it.
	var (
		src        *ckptSource
		ckptCycles []int64
		ckptLead   int64
	)
	if o.CheckpointInterval >= 0 {
		manifestKey := keyPrefix.Key(fmt.Sprintf("ckpts:%d", o.CheckpointInterval))
		switch {
		case cks != nil:
			ckptCycles, ckptLead = cks.Cycles(), cks.Lead
			src = &ckptSource{set: cks}
		default:
			if b, ok := o.Cache.GetBlob(manifestKey); ok {
				if m, derr := decodeManifest(b); derr == nil {
					ckptCycles, ckptLead = m.cycles, m.lead
					keys := make([]simcache.Key, len(m.cycles))
					for i := range keys {
						keys[i] = keyPrefix.Key(fmt.Sprintf("ckpts:%d:%d", o.CheckpointInterval, i))
					}
					src = &ckptSource{cache: o.Cache, prog: o.Program, keys: keys, decoded: map[int]*pipe.Checkpoint{}}
				} else {
					// Undecodable manifest: discard it and run this
					// campaign without checkpoints (replays from cycle
					// zero — slower, never wrong).
					o.Cache.DiscardBlob(manifestKey)
				}
			}
		}
	}

	// Build the static target filter from the liveness summary and the
	// golden run's recorded dead intervals. All sampling below is
	// up-front and single-threaded, and the pruner's inputs are static
	// (or cached alongside the golden result), so pruned campaigns stay
	// byte-deterministic across runs, worker counts and cache states.
	pr := newPruner(o.PruneStatic >= 0, o.Config, live, info)

	weights := make([]float64, len(o.Structures))
	var totalBits float64
	bits := make([]uint64, len(o.Structures))
	for i, s := range o.Structures {
		bits[i] = uarch.Bits(o.Config, s)
		totalBits += float64(bits[i])
	}
	if totalBits == 0 {
		return nil, fmt.Errorf("inject: campaign structures have no bits")
	}
	for i := range weights {
		weights[i] = float64(bits[i]) / totalBits
	}
	alloc := allocate(o.Trials, o.MinPerStructure, weights)

	// Phase 1: draw every stratum's baseline allocation from its
	// deterministic stream. Statically pruned draws are classified
	// analytically and replay nothing; the rest fill the stratum's
	// replay list in draw order. With pruning disabled this phase is
	// the legacy sampler verbatim — same streams, same targets, same
	// order.
	prunedCnt := make([]int, len(o.Structures))
	faultsPer := make([][]pipe.Fault, len(o.Structures))
	rngs := make([]rng, len(o.Structures))
	freed := 0
	for i, s := range o.Structures {
		r := stratumRNG(o.Seed, s)
		for t := 0; t < alloc[i]; t++ {
			f := pipe.Fault{
				Structure: s,
				Bit:       r.next() % bits[i],
				Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
			}
			if pr.pruned(f) {
				prunedCnt[i]++
				freed++
				continue
			}
			faultsPer[i] = append(faultsPer[i], f)
		}
		rngs[i] = r
	}
	phase1 := make([]int, len(o.Structures))
	for i := range faultsPer {
		phase1[i] = len(faultsPer[i])
	}

	// Phase 2: re-allocate the freed budget across strata in proportion
	// to their live bit counts (largest-remainder again), continuing
	// each stratum's stream with rejection of pruned draws, so the
	// topped-up trials concentrate where uncertainty remains. The
	// attempt bound only guards a pathological all-dead stratum; budget
	// not placeable within it is dropped, deterministically.
	if pr.enabled && freed > 0 {
		w2 := make([]float64, len(o.Structures))
		var tw float64
		for i, s := range o.Structures {
			w2[i] = float64(bits[i]) * (1 - pr.staticFrac[s])
			tw += w2[i]
		}
		if tw > 0 {
			for i := range w2 {
				w2[i] /= tw
			}
			alloc2 := allocate(freed, 0, w2)
			for i, s := range o.Structures {
				r := rngs[i]
				drawn := 0
				for att := 0; drawn < alloc2[i] && att < 64*alloc2[i]+64; att++ {
					f := pipe.Fault{
						Structure: s,
						Bit:       r.next() % bits[i],
						Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
					}
					if pr.pruned(f) {
						continue
					}
					faultsPer[i] = append(faultsPer[i], f)
					drawn++
				}
			}
		}
	}

	// Deduplicate repeated targets into one replay feeding every trial
	// slot.
	type slot struct{ stratum, idx int }
	outcomes := make([][]pipe.FaultTrial, len(o.Structures)) // per replayed trial
	targets := map[pipe.Fault][]slot{}
	var order []pipe.Fault // deterministic job order
	for i := range o.Structures {
		outcomes[i] = make([]pipe.FaultTrial, len(faultsPer[i]))
		for t, f := range faultsPer[i] {
			if _, ok := targets[f]; !ok {
				order = append(order, f)
			}
			targets[f] = append(targets[f], slot{i, t})
		}
	}

	// Bucket the unique faults by the nearest checkpoint that is still
	// valid for their injection cycle (a checkpoint at C can serve a
	// fault at F only if C + lead ≤ F, the lead covering in-flight
	// memory timestamps). Each bucket becomes one job: a single restore
	// (or one cold replay for bucket -1) carries every uncached fault in
	// it as an independent armed watch, so a thousand-trial campaign
	// pays for a handful of partial replays instead of a thousand full
	// ones.
	buckets := map[int][]pipe.Fault{}
	var bucketOrder []int // deterministic: first-seen over `order`
	for _, f := range order {
		n := pipe.NearestCheckpoint(ckptCycles, ckptLead, f.Cycle)
		if _, ok := buckets[n]; !ok {
			bucketOrder = append(bucketOrder, n)
		}
		buckets[n] = append(buckets[n], f)
	}

	trialKey := func(f pipe.Fault) simcache.Key {
		var buf [96]byte
		return keyPrefix.Key(string(f.AppendFingerprint(append(buf[:0], "injtrial:"...))))
	}
	var mu sync.Mutex
	if o.CheckpointInterval < 0 {
		// Checkpointing disabled: the pre-fork-replay path, one job per
		// unique fault, each replaying the whole run from cycle zero.
		// Kept both as the safety fallback and as the baseline
		// BenchmarkInjectCampaign measures fork-replay against.
		jobs := make([]scenario.Job, 0, len(order))
		for _, f := range order {
			f, slots := f, targets[f]
			jobs = append(jobs, scenario.Job{
				Key:   "injtrial\x00" + cfgFP + "\x00" + progFP + "\x00" + rcFP + "\x00" + f.Fingerprint(),
				Lease: true,
				Run: func(ctx context.Context) error {
					if err := ctx.Err(); err != nil {
						return err
					}
					key := trialKey(f)
					b, err := o.Cache.DoBlob(key, func() ([]byte, error) {
						trial, err := pool.SimulateFaultDetail(o.Program, o.Run, f)
						if err != nil {
							return nil, fmt.Errorf("inject: trial %s: %w", f.Fingerprint(), err)
						}
						return encodeTrial(trial), nil
					})
					if err != nil {
						return err
					}
					trial, derr := decodeTrial(b)
					if derr != nil {
						// Undecodable (a legacy v1 outcome byte, or a
						// malformed entry): discard and fail transiently —
						// the retry recomputes through a now-clean miss.
						o.Cache.DiscardBlob(key)
						return sched.Transient(fmt.Errorf("inject: trial %s: %w", f.Fingerprint(), derr))
					}
					mu.Lock()
					for _, sl := range slots {
						outcomes[sl.stratum][sl.idx] = trial
					}
					mu.Unlock()
					return nil
				},
			})
		}
		if err := sched.Run(ctx, jobs, sched.Options{Workers: o.Parallelism, Retry: o.Retry, Executor: o.Executor}); err != nil {
			return nil, err
		}
		return aggregateResult(o, golden, info, bits, pr, prunedCnt, phase1, faultsPer, outcomes), nil
	}

	jobs := make([]scenario.Job, 0, len(bucketOrder))
	for _, bi := range bucketOrder {
		bi, faults := bi, buckets[bi]
		// The job key content-addresses the bucket's fault set, not its
		// index: two campaigns sharing a scheduler dedup only when they
		// would replay exactly the same faults from the same fork point.
		h := sha256.New()
		var fp []byte
		for _, f := range faults {
			fp = append(f.AppendFingerprint(fp[:0]), 0)
			h.Write(fp)
		}
		jobs = append(jobs, scenario.Job{
			Key:   fmt.Sprintf("injbucket\x00%s\x00%s\x00%s\x00%d\x00%x", cfgFP, progFP, rcFP, bi, h.Sum(nil)),
			Lease: true,
			Run: func(ctx context.Context) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				trials := make([]pipe.FaultTrial, len(faults))
				keys := make([]simcache.Key, len(faults))
				var missing []int
				for i, f := range faults {
					keys[i] = trialKey(f)
					if b, ok := o.Cache.GetBlob(keys[i]); ok {
						if t, derr := decodeTrial(b); derr == nil {
							trials[i] = t
							continue
						}
						// Present but undecodable (legacy v1 outcome byte,
						// or malformed): quarantine so the replay below
						// overwrites a clean entry.
						o.Cache.DiscardBlob(keys[i])
					}
					missing = append(missing, i)
				}
				if len(missing) > 0 {
					replay := make([]pipe.Fault, len(missing))
					for j, i := range missing {
						replay[j] = faults[i]
					}
					out, rerr := pool.SimulateFaultsDetailFrom(o.Program, o.Run, src.checkpoint(bi), replay)
					if rerr != nil {
						return fmt.Errorf("inject: bucket %d replay: %w", bi, rerr)
					}
					for j, i := range missing {
						trials[i] = out[j]
						o.Cache.PutBlob(keys[i], encodeTrial(out[j]))
					}
				}
				mu.Lock()
				for i, f := range faults {
					for _, sl := range targets[f] {
						outcomes[sl.stratum][sl.idx] = trials[i]
					}
				}
				mu.Unlock()
				return nil
			},
		})
	}
	if err := sched.Run(ctx, jobs, sched.Options{Workers: o.Parallelism, Retry: o.Retry, Executor: o.Executor}); err != nil {
		return nil, err
	}
	return aggregateResult(o, golden, info, bits, pr, prunedCnt, phase1, faultsPer, outcomes), nil
}

// aggregateResult folds the per-trial outcomes into the campaign result:
// per-stratum counts, Wilson intervals, the bit-weighted and
// rate-derated aggregates, and (when requested) the root-cause
// attribution tables. Pure, so both replay paths share it and the
// report cannot depend on which one ran.
func aggregateResult(o Options, golden *avf.Result, info pipe.GoldenInfo, bits []uint64, pr *pruner, pruned, phase1 []int, faultsPer [][]pipe.Fault, outcomes [][]pipe.FaultTrial) *Result {
	res := &Result{
		Config:       golden.Config,
		Workload:     golden.Workload,
		Seed:         o.Seed,
		Golden:       golden,
		GoldenDigest: info.Digest,
		WindowStart:  info.WindowStart,
		WindowCycles: info.Cycles,
		PruneEnabled: pr.enabled,
	}
	var (
		rcTrials  []rootcause.Trial
		rcSampled = map[uarch.Structure]int{}
	)
	for i, s := range o.Structures {
		replayed := len(outcomes[i])
		sr := StructureResult{
			Structure: s, Bits: bits[i],
			Trials: replayed + pruned[i], Pruned: pruned[i],
			PruneFrac: pr.frac(s), StaticBound: pr.bound(s),
			ACE: golden.AVF[s],
		}
		protected := o.Rates[s] == 0
		for t, trial := range outcomes[i] {
			p1 := t < phase1[i]
			switch {
			case !trial.Corrupted:
				sr.Masked++
				if p1 {
					sr.Phase1Masked++
				}
			case protected:
				sr.Detected++
				if p1 {
					sr.Phase1Detected++
				}
			default:
				sr.SDC++
				if p1 {
					sr.Phase1SDC++
				}
			}
			if trial.Corrupted && o.RootCause {
				rcTrials = append(rcTrials, rootcause.Trial{
					Fault: faultsPer[i][t], Diverge: trial.Diverge, DUE: protected,
				})
			}
		}
		if o.RootCause {
			rcSampled[s] = len(outcomes[i])
		}
		// The estimator samples the live subspace only, so the raw
		// corrupted fraction and its Wilson interval scale by the live
		// fraction. With pruning disabled the fraction is exactly zero
		// and the multiplications by 1.0 are IEEE-exact identities —
		// the legacy numbers, bit for bit.
		vuln := sr.SDC + sr.Detected
		liveFrac := 1 - sr.PruneFrac
		if replayed > 0 {
			sr.SampleAVF = float64(vuln) / float64(replayed)
			sr.AVF = liveFrac * sr.SampleAVF
			w := wilson(vuln, replayed)
			sr.CI = Interval{Lo: liveFrac * w.Lo, Hi: liveFrac * w.Hi}
		}
		res.Structures = append(res.Structures, sr)
		res.Trials += sr.Trials
		res.SDC += sr.SDC
		res.Detected += sr.Detected
		res.Masked += sr.Masked
		res.Pruned += sr.Pruned
	}
	res.AVF, res.CI, res.ACEAVF = res.aggregate(func(sr StructureResult) float64 {
		return float64(sr.Bits)
	})
	res.DeratedAVF, res.DeratedCI, res.DeratedACE = res.aggregate(func(sr StructureResult) float64 {
		return o.Rates[sr.Structure] * float64(sr.Bits)
	})
	var totalW float64
	for _, sr := range res.Structures {
		totalW += float64(sr.Bits)
	}
	if totalW > 0 {
		for _, sr := range res.Structures {
			res.StaticBound += float64(sr.Bits) / totalW * sr.StaticBound
		}
	}
	if o.RootCause {
		res.RootCause = rootcause.Aggregate(o.Program, o.Config, rcTrials, rcSampled)
	}
	return res
}

// aggregate combines the strata under the given weighting into the
// weighted AVF estimate, its stratified 95% confidence interval, and
// the weighted ACE counterpart.
func (r *Result) aggregate(weight func(StructureResult) float64) (est float64, ci Interval, ace float64) {
	var totalW float64
	for _, sr := range r.Structures {
		totalW += weight(sr)
	}
	if totalW == 0 {
		return 0, Interval{}, 0
	}
	var v float64 // variance of the stratified estimator
	for _, sr := range r.Structures {
		w := weight(sr) / totalW
		est += w * sr.AVF
		ace += w * sr.ACE
		// Pruned slots carry no sampling variance (they are analytic
		// constants), so each stratum contributes the binomial variance
		// of its replayed trials scaled by the squared live fraction.
		// With pruning disabled both factors are exactly 1.0 and this
		// is the legacy expression bit for bit.
		if n := sr.Trials - sr.Pruned; n > 0 {
			liveFrac := 1 - sr.PruneFrac
			v += w * w * liveFrac * liveFrac * sr.SampleAVF * (1 - sr.SampleAVF) / float64(n)
		}
	}
	return est, normalCI(est, v), ace
}

// TotalBits returns the campaign's sampled bit count.
func (r *Result) TotalBits() uint64 {
	var total uint64
	for _, sr := range r.Structures {
		total += sr.Bits
	}
	return total
}

// Rows renders the campaign as injection-table rows: one per structure
// (campaign order) plus the bit-weighted "overall" aggregate, whose
// outcome counts reconcile exactly with its AVF column. The
// rate-derated aggregate reweights the same trials per structure, so
// its value cannot be recomputed from pooled counts — String reports
// it as a separate line instead of a row with contradictory columns.
func (r *Result) Rows() []report.InjectionRow {
	rows := make([]report.InjectionRow, 0, len(r.Structures)+1)
	for _, sr := range r.Structures {
		rows = append(rows, report.InjectionRow{
			Label: sr.Structure.String(), Bits: sr.Bits, Trials: sr.Trials,
			SDC: sr.SDC, Detected: sr.Detected, Masked: sr.Masked, Pruned: sr.Pruned,
			AVF: sr.AVF, Lo: sr.CI.Lo, Hi: sr.CI.Hi, ACE: sr.ACE,
		})
	}
	rows = append(rows, report.InjectionRow{
		Label: "overall", Bits: r.TotalBits(), Trials: r.Trials,
		SDC: r.SDC, Detected: r.Detected, Masked: r.Masked, Pruned: r.Pruned,
		AVF: r.AVF, Lo: r.CI.Lo, Hi: r.CI.Hi, ACE: r.ACEAVF,
	})
	return rows
}

// DeratedLine renders the rate-weighted comparison as one line.
func (r *Result) DeratedLine() string {
	return fmt.Sprintf("derated (rate-weighted): AVF %.4f [%.4f, %.4f] vs ACE %.4f",
		r.DeratedAVF, r.DeratedCI.Lo, r.DeratedCI.Hi, r.DeratedACE)
}

// PruneLine renders the static-pruning summary as one stats line:
// pruned target counts (total, then per structure with a nonzero
// count) and the bit-weighted tightened static ACE upper bound.
func (r *Result) PruneLine() string {
	if !r.PruneEnabled {
		return "prune: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "prune: targets=%d/%d bound=%.4f", r.Pruned, r.Trials, r.StaticBound)
	for _, sr := range r.Structures {
		if sr.Pruned > 0 {
			fmt.Fprintf(&b, " %s=%d", sr.Structure, sr.Pruned)
		}
	}
	return b.String()
}

// String renders the campaign report.
func (r *Result) String() string {
	var b strings.Builder
	title := fmt.Sprintf("Injection campaign — %s on %s (%d trials, seed %d)",
		r.Config, r.Workload, r.Trials, r.Seed)
	b.WriteString(report.InjectionTable(title, r.Rows()))
	fmt.Fprintf(&b, "%s\n%s\ngolden: %d instrs, %d cycles, digest %016x\n",
		r.PruneLine(), r.DeratedLine(), r.Golden.Instructions, r.WindowCycles, r.GoldenDigest)
	if r.RootCause != nil {
		b.WriteString(r.RootCause.String())
	}
	return b.String()
}
