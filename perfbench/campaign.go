package main

import (
	"crypto/sha256"
	"fmt"

	"avfstress/internal/codegen"
	"avfstress/internal/experiments"
	"avfstress/internal/inject"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// The campaign workload is a fixed list of Monte Carlo injection
// campaigns, each run cold into a fresh memory-only store and then warm
// campaignWarm times on that store.
const (
	campaignTrials = 1000
	campaignWarm   = 3
)

var (
	campaignRun      = pipe.RunConfig{MaxInstructions: 20_000, WarmupInstructions: 7_500}
	campaignPrograms = []string{"stressmark", "403.gcc", "429.mcf", "462.libquantum"}
	campaignConfigs  = []string{"baseline", "configA"}
	campaignRates    = []string{"uniform", "rhc", "edr"}
)

// campaignCase is one campaign of the list.
type campaignCase struct {
	name string
	opts inject.Options
	want *campaignWant // set by the first pass
}

// campaignWant is what every later pass of a campaign must reproduce.
type campaignWant struct {
	report     [sha256.Size]byte // cold report
	trials     int
	cold, warm simcache.Stats // store traffic of the cold run and of one warm run
}

// campaignProgram builds one program of the list for cfg: the paper's
// reference stressmark for the configuration, or a workload proxy. The
// programs are fixed inputs, like a benchmark suite's (proxies are
// built with seed 1); the run's seed varies the campaigns' fault
// sampling only, since a proxy's cost swings with its build seed by
// more than the timing noise.
func campaignProgram(name, config string, cfg uarch.Config) (*prog.Program, error) {
	if name == "stressmark" {
		k, err := experiments.ReferenceKnobs(experiments.SearchKeyFor(config, "uniform"))
		if err != nil {
			return nil, err
		}
		p, _, err := codegen.Generate(cfg, k, 1<<40)
		return p, err
	}
	pf, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return pf.Build(cfg, 1)
}

func campaignCases(b *bench) ([]*campaignCase, error) {
	var cases []*campaignCase
	i := 0
	for _, config := range campaignConfigs {
		cfg, err := experiments.ResolveConfig(config, 32)
		if err != nil {
			return nil, err
		}
		for _, pname := range campaignPrograms {
			p, err := campaignProgram(pname, config, cfg)
			if err != nil {
				return nil, fmt.Errorf("building %s for %s: %w", pname, config, err)
			}
			for _, rname := range campaignRates {
				rates, err := experiments.ResolveRates(rname)
				if err != nil {
					return nil, err
				}
				cases = append(cases, &campaignCase{
					name: fmt.Sprintf("%s/%s/%s", pname, config, rname),
					opts: inject.Options{
						Config: cfg, Program: p, Run: campaignRun, Rates: rates,
						Trials: campaignTrials, Seed: b.derive(i), RootCause: true,
					},
				})
				i++
			}
		}
	}
	return cases, nil
}

// campaignPass runs every campaign cold into a fresh store and then
// warm on it, checking that warm reports equal the cold one byte for
// byte, that cold reports and store traffic repeat across passes, and
// that warm runs simulate nothing.
func campaignPass(b *bench, tr *tracer, cases []*campaignCase) (passResult, error) {
	var pr passResult
	for _, c := range cases {
		o := c.opts
		o.Cache = simcache.New(simcache.Options{})
		var cold *inject.Result
		d, err := measure(func() error {
			return tr.do("inject.Run", 0, func() error {
				var rerr error
				cold, rerr = inject.Run(b.ctx, o)
				return rerr
			})
		})
		if err != nil {
			return pr, fmt.Errorf("campaign %s (cold): %w", c.name, err)
		}
		pr.cold = append(pr.cold, request{float64(cold.Trials), d})
		coldText := cold.String()
		got := campaignWant{report: sha256.Sum256([]byte(coldText)), trials: cold.Trials, cold: o.Cache.Stats()}
		if c.want == nil {
			c.want = &got
		}
		switch {
		case got.cold.Simulated == 0:
			b.check(fmt.Errorf("campaign %s: cold run simulated nothing", c.name))
		case got.report != c.want.report || got.trials != c.want.trials || got.cold != c.want.cold:
			b.check(fmt.Errorf("campaign %s: cold run differs from the first pass (store %v, first %v)", c.name, got.cold, c.want.cold))
		default:
			b.check(nil)
		}

		for w := 0; w < campaignWarm; w++ {
			before := o.Cache.Stats()
			var warm *inject.Result
			d, err := measure(func() error {
				return tr.do("inject.Run", 0, func() error {
					var rerr error
					warm, rerr = inject.Run(b.ctx, o)
					return rerr
				})
			})
			if err != nil {
				return pr, fmt.Errorf("campaign %s (warm): %w", c.name, err)
			}
			pr.warm = append(pr.warm, request{float64(warm.Trials), d})
			delta := statsDelta(o.Cache.Stats(), before)
			if c.want.warm == (simcache.Stats{}) {
				c.want.warm = delta // a warm run always has hits, so zero means unset
			}
			switch {
			case warm.String() != coldText:
				b.check(fmt.Errorf("campaign %s: warm report differs from the cold report", c.name))
			case delta.Simulated != 0:
				b.check(fmt.Errorf("campaign %s: warm run simulated %d results", c.name, delta.Simulated))
			case delta != c.want.warm:
				b.check(fmt.Errorf("campaign %s: warm store traffic %v, first warm run %v", c.name, delta, c.want.warm))
			default:
				b.check(nil)
			}
		}
		if err := b.between(); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// statsDelta is the store traffic between two snapshots.
func statsDelta(a, b simcache.Stats) simcache.Stats {
	return simcache.Stats{
		MemHits: a.MemHits - b.MemHits, DiskHits: a.DiskHits - b.DiskHits,
		Simulated: a.Simulated - b.Simulated, Deduped: a.Deduped - b.Deduped,
		Misses: a.Misses - b.Misses, Evicted: a.Evicted - b.Evicted,
		Quarantined: a.Quarantined - b.Quarantined,
		BlobHits:    a.BlobHits - b.BlobHits, BlobMisses: a.BlobMisses - b.BlobMisses,
		RemoteHits: a.RemoteHits - b.RemoteHits, RemoteMisses: a.RemoteMisses - b.RemoteMisses,
	}
}

// runCampaign is the timed campaign workload.
func runCampaign(b *bench) error {
	cases, err := setup(b, func() ([]*campaignCase, error) { return campaignCases(b) }, nil)
	if err != nil {
		return err
	}
	return b.timedPasses(func() (passResult, error) { return campaignPass(b, nil, cases) })
}

// campaignTracedPass is one traced pass for the traced run.
func campaignTracedPass(b *bench, tr *tracer) error {
	cases, err := campaignCases(b)
	if err != nil {
		return err
	}
	_, err = campaignPass(b, tr, cases)
	return err
}
