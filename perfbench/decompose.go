package main

import (
	"fmt"
	"math"
	"sort"

	"avfstress/internal/codegen"
	"avfstress/internal/experiments"
	"avfstress/internal/inject"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/rootcause"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// Outside-in decomposition of one representative campaign (the
// reference stressmark on the scaled baseline, uniform rates): the work
// inject.Run does, driven through the same public calls from outside,
// each inside a span. The accounted fraction is the sum of those spans
// over inject.Run's wall time on the same inputs, both single-worker;
// inject.unaccounted_frac is its distance from 1.
//
// The figure is approximate: inject's stratified sampler and static
// pruner are internal, so the decomposition replays as many distinct
// targets per structure as the campaign replayed (its Result's trials
// minus pruned ones, deduplicated), drawn uniformly rather than from
// the live subspace. Calls of a few hundred nanoseconds (keying, blob
// get/put, attribution) are grouped into one span per bucket, since a
// span costs about as much as the call it would wrap.
const decomposeReps = 3

// decompose records inject.run_s, inject.unaccounted_frac, the campaign's
// store traffic counts and the root-cause call costs.
func decompose(b *bench, tr *tracer) error {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, err := experiments.ReferenceKnobs("baseline")
	if err != nil {
		return err
	}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		return err
	}
	opts := inject.Options{
		Config: cfg, Program: p, Run: campaignRun, Rates: uarch.UniformRates(1),
		Trials: campaignTrials, Seed: b.derive(3000), RootCause: true, Parallelism: 1,
	}

	var runs, parts, analyze, replay, attribute, aggregate []float64
	var cold, warm simcache.Stats
	for r := 0; r < decomposeReps; r++ {
		o := opts
		o.Cache = simcache.New(simcache.Options{})
		var res *inject.Result
		d, err := timeIt(func() error {
			return tr.do("inject.Run", 0, func() error {
				var rerr error
				res, rerr = inject.Run(b.ctx, o)
				return rerr
			})
		})
		if err != nil {
			return err
		}
		runs = append(runs, d)
		st := o.Cache.Stats()
		if _, err := inject.Run(b.ctx, o); err != nil {
			return err
		}
		wst := statsDelta(o.Cache.Stats(), st)
		if r == 0 {
			cold, warm = st, wst
		} else if st != cold || wst != warm {
			b.check(fmt.Errorf("campaign store traffic changed between repetitions: cold %v/%v, warm %v/%v", st, cold, wst, warm))
		}

		spent, replayed, attributed, err := decomposeOnce(tr, opts, res)
		if err != nil {
			return err
		}
		var sum float64
		for _, d := range spent {
			sum += d
		}
		parts = append(parts, sum)
		analyze = append(analyze, spent["liveness.Analyze"])
		replay = append(replay, float64(replayed)/spent["pipe.Pool.SimulateFaultsDetailFrom"])
		attribute = append(attribute, spent["rootcause.Attribute"]/float64(max(attributed, 1)))
		aggregate = append(aggregate, spent["rootcause.Aggregate"])
	}
	b.put("inject.run_s", median(runs), "s", len(runs))
	accounted := median(parts) / median(runs)
	b.diag["inject.accounted_frac"] = accounted
	b.put("inject.unaccounted_frac", math.Abs(1-accounted), "frac", len(runs))
	b.put("liveness.analyze_ms", median(analyze)*1e3, "ms", len(analyze))
	b.put("pipe.replay_trials_per_s", median(replay), "1/s", len(replay))
	b.put("rootcause.attribute_ns", median(attribute)*1e9, "ns", len(attribute))
	b.put("rootcause.aggregate_ms", median(aggregate)*1e3, "ms", len(aggregate))
	b.put("simcache.cold_hits", float64(cold.Hits()), "count", 1)
	b.put("simcache.cold_misses", float64(cold.Misses), "count", 1)
	b.put("simcache.cold_simulated", float64(cold.Simulated), "count", 1)
	b.put("simcache.warm_hits", float64(warm.Hits()), "count", 1)
	b.put("simcache.warm_misses", float64(warm.Misses), "count", 1)
	b.put("simcache.warm_simulated", float64(warm.Simulated), "count", 1)
	b.check(countIs("warm campaign simulations", warm.Simulated, 0))
	return nil
}

// decomposeOnce drives the campaign's work through the public calls
// and returns the wall time spent in each call, in seconds, and the
// numbers of trials replayed and of corrupted trials attributed. res is
// inject.Run's result on the same options, which sizes the replays.
func decomposeOnce(tr *tracer, o inject.Options, res *inject.Result) (spent map[string]float64, replayed, attributed int, err error) {
	store := simcache.New(simcache.Options{})
	cfgFP, progFP, rcFP := o.Config.Fingerprint(), "prog:"+o.Program.Fingerprint(), o.Run.Fingerprint()
	spent = map[string]float64{}
	step := func(name string, f func() error) error {
		d, err := timeIt(func() error { return tr.do(name, 0, func() error { return f() }) })
		spent[name] += d
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var live *liveness.Summary
	step("liveness.Analyze", func() error { live = liveness.Analyze(o.Program, o.Config.Core); return nil })
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		return nil, 0, 0, err
	}
	var (
		info pipe.GoldenInfo
		set  *pipe.CheckpointSet
	)
	if err := step("pipe.Pool.SimulateGoldenRecorded", func() error {
		var gerr error
		_, info, set, gerr = pool.SimulateGoldenRecorded(o.Program, o.Run, 0, live.DeadDefs)
		return gerr
	}); err != nil {
		return nil, 0, 0, err
	}
	var blobs [][]byte
	if err := step("pipe.Checkpoint.MarshalBinary", func() error {
		for _, ck := range set.Checkpoints {
			data, err := ck.MarshalBinary()
			if err != nil {
				return err
			}
			blobs = append(blobs, data)
		}
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	step("simcache.Store.PutBlob", func() error {
		for i, data := range blobs {
			store.PutBlob(store.Key(cfgFP, progFP, rcFP, fmt.Sprintf("ckpts:0:%d", i)), data)
		}
		return nil
	})

	faults := sampleFaults(o, info, res)
	buckets := map[int][]pipe.Fault{}
	for _, f := range faults {
		n := pipe.NearestCheckpoint(set.Cycles(), set.Lead, f.Cycle)
		buckets[n] = append(buckets[n], f)
	}
	order := make([]int, 0, len(buckets))
	for n := range buckets {
		order = append(order, n)
	}
	sort.Ints(order)

	var rcTrials []rootcause.Trial
	sampled := map[uarch.Structure]int{}
	for _, n := range order {
		fs := buckets[n]
		keys := make([]simcache.Key, len(fs))
		step("simcache.Store.Key", func() error {
			for i, f := range fs {
				keys[i] = store.Key(cfgFP, progFP, rcFP, "injtrial:"+f.Fingerprint())
			}
			return nil
		})
		step("simcache.Store.GetBlob", func() error {
			for _, k := range keys {
				store.GetBlob(k)
			}
			return nil
		})
		var ck *pipe.Checkpoint
		if n >= 0 {
			ck = set.Checkpoints[n]
		}
		var trials []pipe.FaultTrial
		if err := step("pipe.Pool.SimulateFaultsDetailFrom", func() error {
			var rerr error
			trials, rerr = pool.SimulateFaultsDetailFrom(o.Program, o.Run, ck, fs)
			return rerr
		}); err != nil {
			return nil, 0, 0, err
		}
		step("simcache.Store.PutBlob", func() error {
			for i, t := range trials {
				store.PutBlob(keys[i], trialBlob(t))
			}
			return nil
		})
		step("rootcause.Attribute", func() error {
			for i, t := range trials {
				sampled[fs[i].Structure]++
				if !t.Corrupted {
					continue
				}
				rootcause.Attribute(o.Program, fs[i], t.Diverge)
				rcTrials = append(rcTrials, rootcause.Trial{Fault: fs[i], Diverge: t.Diverge, DUE: o.Rates[fs[i].Structure] == 0})
			}
			return nil
		})
	}
	step("rootcause.Aggregate", func() error {
		rootcause.Aggregate(o.Program, o.Config, rcTrials, sampled)
		return nil
	})
	return spent, len(faults), len(rcTrials), nil
}

// trialBlob encodes a trial in the trial-blob text format inject stores.
func trialBlob(t pipe.FaultTrial) []byte {
	c := 0
	if t.Corrupted {
		c = 1
	}
	return []byte(fmt.Sprintf("injtrial v2 %d %d %x %d %d", c, t.Diverge.Seq, t.Diverge.PC, uint8(t.Diverge.Op), t.Diverge.SrcSlot))
}

// sampleFaults draws, for each structure of res, as many targets as
// the campaign replayed there (trial slots minus pruned targets),
// uniformly over the structure's bit-cycle space, from a splitmix64
// stream, and keeps each distinct target once, as inject replays a
// repeated target once.
func sampleFaults(o inject.Options, info pipe.GoldenInfo, res *inject.Result) []pipe.Fault {
	state := uint64(o.Seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	var faults []pipe.Fault
	seen := map[pipe.Fault]bool{}
	for _, sr := range res.Structures {
		bits := uarch.Bits(o.Config, sr.Structure)
		if bits == 0 {
			continue
		}
		for t := 0; t < sr.Trials-sr.Pruned; t++ {
			f := pipe.Fault{
				Structure: sr.Structure, Bit: next() % bits,
				Cycle: info.WindowStart + int64(next()%uint64(info.Cycles)),
			}
			if !seen[f] {
				seen[f] = true
				faults = append(faults, f)
			}
		}
	}
	return faults
}
