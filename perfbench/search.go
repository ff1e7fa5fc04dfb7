package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"avfstress/internal/avf"
	"avfstress/internal/core"
	"avfstress/internal/experiments"
	"avfstress/internal/ga"
	"avfstress/internal/pipe"
)

// The search workload is the paper's Figure-2 loop: GA ⇄ code generator
// ⇄ simulator, with no memo store attached.
const (
	searchPop   = 16
	searchGens  = 3
	searchSeeds = 4 // GA seeds per (config, rates) pair
	// searchRewarm is how often a pass re-evaluates each winner, so the
	// warm requests add up to a sixth of the run, not a twentieth.
	searchRewarm = 4
)

var (
	searchEval  = pipe.RunConfig{MaxInstructions: 30_000, WarmupInstructions: 10_000}
	searchFinal = pipe.RunConfig{MaxInstructions: 60_000, WarmupInstructions: 20_000}
	// searchPairs are the (config, rates) pairs searched, with the
	// paper's search key for each (it picks the fitness weighting).
	searchPairs = []struct{ config, rates, key string }{
		{"baseline", "uniform", "baseline"},
		{"baseline", "rhc", "rhc"},
		{"configA", "uniform", "configA"},
	}
)

// searchWinner is what a search must reproduce for a given seed.
type searchWinner struct {
	knobs   string
	fitness float64
}

type searchCase struct {
	name string
	spec core.SearchSpec
	want *searchWinner // set by the first pass
}

func searchCases(b *bench) ([]*searchCase, error) {
	var cases []*searchCase
	for i, pr := range searchPairs {
		cfg, err := experiments.ResolveConfig(pr.config, 32)
		if err != nil {
			return nil, err
		}
		rates, err := experiments.ResolveRates(pr.rates)
		if err != nil {
			return nil, err
		}
		w := avf.DefaultWeights()
		if pr.key == "rhc" {
			w = avf.Weights{Core: 1} // core-only fitness, as the paper's RHC study
		}
		for s := 0; s < searchSeeds; s++ {
			seed := b.derive(i*searchSeeds + s)
			cases = append(cases, &searchCase{
				name: fmt.Sprintf("%s/%s/seed%d", pr.config, pr.rates, seed),
				spec: core.SearchSpec{
					Config: cfg, Rates: rates, Weights: w,
					Eval: searchEval, Final: searchFinal,
					GA: ga.Config{PopSize: searchPop, Generations: searchGens, Seed: seed},
				},
			})
		}
	}
	return cases, nil
}

// searchPass runs every search of the list (cold: GA candidates), then
// re-evaluates each winner from its knobs alone (warm: the
// reference-mode path, a known stressmark and no GA), checking that
// winners repeat per seed and that the re-evaluation reproduces the
// winner's fitness. It also returns the summed
// SearchResult.Evaluations, a diagnostic only (README.md).
//
// A re-evaluation runs on one thread, so the winners are re-evaluated,
// searchRewarm times each, on a pool of one worker per CPU and timed as
// a whole: a lone thread
// measures the speed of the CPU it lands on, which on the reference
// host differed between CPUs for minutes at a time (see calib.go).
func searchPass(b *bench, tr *tracer, cases []*searchCase) (pr passResult, evaluations int64, err error) {
	winners := make([]*core.SearchResult, len(cases))
	for i, c := range cases {
		var res *core.SearchResult
		d, err := measure(func() error {
			return tr.do("core.Search", 0, func() error {
				var serr error
				res, serr = core.Search(b.ctx, c.spec)
				return serr
			})
		})
		if err != nil {
			return pr, 0, fmt.Errorf("search %s: %w", c.name, err)
		}
		pr.cold = append(pr.cold, request{float64(c.spec.GA.PopSize * c.spec.GA.Generations), d})
		evaluations += res.Evaluations
		winners[i] = res
		got := &searchWinner{knobs: res.Knobs.Fingerprint(), fitness: res.Fitness}
		switch {
		case c.want == nil:
			c.want = got
			b.check(nil)
		case *got != *c.want:
			b.check(fmt.Errorf("search %s: winner %s fitness %v, first pass %s fitness %v",
				c.name, got.knobs, got.fitness, c.want.knobs, c.want.fitness))
		default:
			b.check(nil)
		}
		if err := b.between(); err != nil {
			return pr, 0, err
		}
	}

	// The re-evaluations run on a pool of one worker per CPU, timed
	// together as one warm request.
	jobs := searchRewarm * len(cases)
	fits, errs := make([]float64, jobs), make([]error, jobs)
	next := make(chan int, jobs)
	for k := 0; k < jobs; k++ {
		next <- k
	}
	close(next)
	d, _ := measure(func() error {
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					c, res := cases[k%len(cases)], winners[k%len(cases)]
					errs[k] = tr.do("core.EvaluateKnobs", 0, func() error {
						var eerr error
						fits[k], eerr = core.EvaluateKnobs(b.ctx, c.spec.Config, c.spec.Rates, c.spec.Weights, res.Knobs, searchFinal)
						return eerr
					})
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return pr, 0, fmt.Errorf("evaluating winners: %w", err)
	}
	pr.warm = append(pr.warm, request{float64(jobs), d})
	for k, fit := range fits {
		if c, res := cases[k%len(cases)], winners[k%len(cases)]; fit != res.Fitness {
			b.check(fmt.Errorf("search %s: winner re-evaluates to fitness %v, search reported %v", c.name, fit, res.Fitness))
		} else {
			b.check(nil)
		}
	}
	if err := b.between(); err != nil {
		return pr, 0, err
	}
	return pr, evaluations, nil
}

// runSearch is the timed search workload.
func runSearch(b *bench) error {
	cases, err := setup(b, func() ([]*searchCase, error) { return searchCases(b) }, nil)
	if err != nil {
		return err
	}
	var evals []float64
	err = b.timedPasses(func() (passResult, error) {
		pr, n, err := searchPass(b, nil, cases)
		evals = append(evals, float64(n))
		return pr, err
	})
	b.diag["core.evaluations_min"] = quantile(evals, 0)
	b.diag["core.evaluations_max"] = quantile(evals, 1)
	return err
}

// searchTracedPass is one traced pass for the traced run.
func searchTracedPass(b *bench, tr *tracer) error {
	cases, err := searchCases(b)
	if err != nil {
		return err
	}
	_, _, err = searchPass(b, tr, cases)
	return err
}
