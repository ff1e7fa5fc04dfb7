package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// layers are the internal packages the per-layer self times cover.
var layers = []string{
	"pipe", "cache", "codegen", "core", "liveness", "rootcause",
	"inject", "simcache", "persist", "sched", "experiments", "service",
}

// runTraced is the traced run: the layer probes and the campaign
// decomposition, then alternating untraced and traced passes of the
// workload until the time budget is spent. It reports the per-layer
// metrics, each layer's self time from the spans, and the tracing
// overhead (median traced pass minus median untraced pass, in user CPU
// seconds). Spans are kept in memory and written to .bench_build/trace/
// at the end.
//
// The self times and the span count cover a fixed amount of work
// whatever the speed of the program: the probes' spans once, plus the
// traced passes' spans divided by the number of traced passes.
func runTraced(b *bench, pass func(*bench, *tracer) error) error {
	tr := newTracer()
	deadline := time.Now().Add(b.budget)
	probes := []func(*bench, *tracer) error{probePipe, probeCache, probeCodegenCore, probeSimcache, probePersist, probeSched, decompose}
	for _, p := range probes {
		if err := p(b, tr); err != nil {
			return err
		}
	}
	store, err := probeService(b, tr)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	if err := probeExperiments(b, tr, store); err != nil {
		return err
	}
	probed := tr.count()

	// Passes alternate, so host drift hits both sides alike; user CPU
	// time keeps host CPU steal out of the difference.
	var plain, traced []float64
	for len(plain) < 2 || time.Now().Before(deadline) {
		c, err := measure(func() error { return pass(b, nil) })
		if err != nil {
			return err
		}
		plain = append(plain, c.cpu)
		if c, err = measure(func() error { return pass(b, tr) }); err != nil {
			return err
		}
		traced = append(traced, c.cpu)
	}
	over := median(traced) - median(plain)
	b.put("trace.overhead_s", over, "user-cpu-s", len(traced))
	b.put("trace.overhead_frac", over/median(plain), "frac", len(traced))
	passes := float64(len(traced))
	total := tr.count()
	b.put("trace.spans", float64(probed)+float64(total-probed)/passes, "count", len(traced))

	self, perPass := tr.selfTimes(0, probed), tr.selfTimes(probed, total)
	for _, l := range layers {
		b.put("self."+l+"_s", self[l]+perPass[l]/passes, "s", len(traced))
	}
	b.put("failed_frac", float64(b.failed)/float64(max(b.attempted, 1)), "frac", b.attempted)
	return tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)))
}
