// Command perfbench is the repository's end-to-end benchmark: three
// workloads (search, campaign, service) that each put most of their
// time in a different set of internal layers, timed from the outside
// through the layers' public functions, with every run checking its own
// outputs. README.md in this directory explains the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds it from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (timed, untraced,
// calibrated for the host's speed as calib.go describes);
// with --trace 1 they are the per-layer set, taken in a separate traced
// run. A failed output check makes the run exit with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// benchWorkloads maps each workload name to its timed run and its traced
// pass (the unit the traced run repeats to measure tracing overhead).
var benchWorkloads = map[string]struct {
	timed func(b *bench) error
	pass  func(b *bench, tr *tracer) error
}{
	"search":   {timed: runSearch, pass: searchTracedPass},
	"campaign": {timed: runCampaign, pass: campaignTracedPass},
	"service":  {timed: runService, pass: serviceTracedPass},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: search, campaign or service")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := benchWorkloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload search|campaign|service --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	// Load comes from this one process, never with more threads than
	// the host has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		ctx:      context.Background(),
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		work:     work,
		metrics:  map[string]metric{},
		samples:  map[string]int{},
		diag:     map[string]float64{},
	}
	steal0, busy0 := hostTicks()
	if *trace == 1 {
		err = runTraced(b, w.pass)
	} else {
		b.cal = newCalibrator()
		if err = b.cal.sample(); err == nil {
			err = w.timed(b)
		}
		if err == nil {
			b.putSetup()
			b.put("peak_rss_mb", peakRSSMB(), "MB", 1)
		}
	}
	if steal1, busy1 := hostTicks(); busy1 > busy0 {
		b.diag["host_steal_frac"] = (steal1 - steal0) / (busy1 - busy0)
	}
	if rerr := os.RemoveAll(work); rerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", work, rerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	b.emit(os.Stdout)
	if b.failed > 0 {
		os.Exit(1)
	}
}

// bench carries one run's inputs and accumulates its results.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	budget   time.Duration
	work     string // scratch directory, removed at exit

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	diag              map[string]float64 // printed beside the result, never gated

	// Set-up rounds (see setup): the mean of each round so far and when
	// it ended, when the last one ran, and how to run another.
	setupMeans []float64
	setupAt    []time.Time
	lastSetup  time.Time
	resetup    func() error

	cal *calibrator // host-speed calibration of the timed run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// put records a metric and the number of samples behind it.
func (b *bench) put(name string, v float64, unit string, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.samples[name] = n
}

// putSetup records setup_s: the median over set-up rounds of a round's
// mean, each calibrated for host speed when the round ended.
func (b *bench) putSetup() {
	cal := make([]float64, len(b.setupMeans))
	for i, m := range b.setupMeans {
		cal[i] = m * b.cal.factorOver(b.setupAt[i], b.setupAt[i])
	}
	b.put("setup_s", median(cal), "s", len(b.setupMeans)*setupSteps*runtime.GOMAXPROCS(0))
	b.diag["raw.setup_s"] = median(b.setupMeans)
	b.diag["calibration_mean_s"] = b.cal.mean()
	b.diag["calibration_samples"] = float64(len(b.cal.samples))
}

// check counts one checked operation; a non-nil err is a failed output
// check or a failed call, reported on standard error.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// emit prints the sample counts and diagnostics, then the result object
// as the last line of standard output.
func (b *bench) emit(f *os.File) {
	enc := json.NewEncoder(f)
	enc.Encode(map[string]interface{}{"samples": b.samples, "diagnostics": b.diag})
	enc.Encode(map[string]interface{}{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   b.metrics,
	})
}

// derive returns the i-th input seed of this run: a splitmix64 step
// over (run seed, i), so every input follows from --seed alone.
func (b *bench) derive(i int) int64 {
	z := uint64(b.seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}
