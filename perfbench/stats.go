package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"avfstress/internal/codegen"
	"avfstress/internal/experiments"
	"avfstress/internal/pipe"
	"avfstress/internal/uarch"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// median returns the median of xs: the middle value, or the mean of
// the two middle values when their number is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail returns the highest of p90/p99 that has at least ten samples
// beyond it, and its label; ok is false when even p90 has fewer.
func tail(xs []float64) (v float64, label string, ok bool) {
	switch {
	case len(xs) >= 1000:
		return quantile(xs, 0.99), "p99", true
	case len(xs) >= 100:
		return quantile(xs, 0.90), "p90", true
	}
	return 0, "", false
}

// timeIt returns the wall time of f in seconds and f's error.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// cost is what one measured call took: wall seconds; net, the wall
// seconds with the host's CPU steal taken out; and the user CPU seconds
// (all threads) this process spent meanwhile; and when it ended.
type cost struct {
	wall, net, cpu float64
	at             time.Time
}

// instant is a reading of every clock a cost is taken from.
type instant struct {
	t           time.Time
	cpu         float64
	steal, busy float64 // host CPU ticks: stolen, and not idle
}

func now() instant {
	steal, busy := hostTicks()
	return instant{t: time.Now(), cpu: cpuSeconds(), steal: steal, busy: busy}
}

// since returns the cost from i to now. The net wall time scales the
// wall time by the share of the host's busy CPU ticks that were not
// stolen: a stolen tick is one a CPU wanted to run and the hypervisor
// gave to another machine, and an idle CPU accrues none, so the share
// is right for one busy thread and for all CPUs busy alike.
func (i instant) since() cost {
	j := now()
	c := cost{wall: j.t.Sub(i.t).Seconds(), cpu: j.cpu - i.cpu, at: j.t}
	c.net = c.wall
	if busy := j.busy - i.busy; busy > 0 {
		c.net *= 1 - (j.steal-i.steal)/busy
	}
	return c
}

// measure runs f and returns its cost.
func measure(f func() error) (cost, error) {
	start := now()
	err := f()
	return start.since(), err
}

// cpuSeconds is the process's user CPU time so far. Unlike wall time
// it excludes the time a virtual machine's CPUs are stolen by the host;
// unlike system time it excludes the kernel's share of disk writes,
// which on a virtual disk includes waiting for fsync completions and
// swings with the host's disk.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()) / 1e9
}

// hostTicks reads the host's cumulative stolen CPU ticks and its busy
// ticks (every state but idle and iowait, steal included) from
// /proc/stat; zeros where unavailable.
func hostTicks() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user and nice).
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 3, 4:
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return steal, busy
}

// request is one timed request: the work units it completed and what
// it cost.
type request struct {
	units float64
	cost
}

// passResult is one pass over a workload's request list, split into
// the cold and warm request classes, each in list order.
type passResult struct {
	cold, warm []request
}

// timedPasses repeats run until the time budget is spent, at least
// twice so every output is checked against a repeat, and records the
// cold and warm end-to-end metrics over every pass.
func (b *bench) timedPasses(run func() (passResult, error)) error {
	var cold, warm []request
	start, own0 := time.Now(), procSeconds()
	steal0, busy0 := hostTicks()
	deadline := start.Add(b.budget)
	for passes := 0; passes < 2 || time.Now().Before(deadline); passes++ {
		pr, err := run()
		if err != nil {
			return err
		}
		cold, warm = append(cold, pr.cold...), append(warm, pr.warm...)
	}
	b.putPhase("cold", cold, netWall)
	b.putPhase("warm", warm, netWall)
	// CPUs kept busy by other processes meanwhile: busy host ticks, less
	// stolen ones, less this process's own CPU time, per wall second.
	steal1, busy1 := hostTicks()
	others := ((busy1-busy0)-(steal1-steal0))/clockTicks - (procSeconds() - own0)
	b.checkParallel(cold, others/time.Since(start).Seconds())
	return nil
}

// clockTicks is the /proc/stat tick rate (USER_HZ), 100 on Linux.
const clockTicks = 100

// procSeconds is the process's user and system CPU time so far.
func procSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// minParallel is the least user CPU seconds per net wall second the
// cold requests of search and campaign may show on two or more CPUs.
// Their work is spread over every CPU (1.5-1.8 on two CPUs); with one
// worker, or a lock that serialises the workers, it is about 1. User
// CPU time alone cannot see that change.
const minParallel = 1.25

// checkParallel checks the cold requests' parallelism (see
// minParallel), unless other processes kept more than a fifth of a CPU
// busy on average (others), since they take CPUs from the workers.
func (b *bench) checkParallel(reqs []request, others float64) {
	b.diag["host_other_cpus"] = others
	if runtime.GOMAXPROCS(0) < 2 || others > 0.2 {
		return
	}
	var cpu, net float64
	for _, r := range reqs {
		cpu += r.cpu
		net += r.net
	}
	par := cpu / net
	b.diag["cold_parallelism"] = par
	if par < minParallel {
		b.check(fmt.Errorf("cold requests used %.2f user CPU seconds per net wall second, want at least %.2f", par, minParallel))
	} else {
		b.check(nil)
	}
}

// netWall and userCPU are the clocks putPhase can read a cost on.
func netWall(c cost) float64 { return c.net }
func userCPU(c cost) float64 { return c.cpu }

// putPhase records one request class's end-to-end metrics under prefix
// from every request of the run, each read on clock and calibrated for
// host speed at its end (calib.go): prefix_per_s, all work units over
// all their seconds, and prefix_p50_s, the median seconds of one
// request. The uncalibrated values and user CPU figures go to the
// diagnostics.
func (b *bench) putPhase(prefix string, reqs []request, clock func(cost) float64) {
	var units, sum, rawSum, cpuSum float64
	var t, raw, cpu, net []float64
	for _, r := range reqs {
		v := clock(r.cost)
		cal := v * b.cal.factorOver(r.at.Add(-time.Duration(r.wall*float64(time.Second))), r.at)
		units += r.units
		sum += cal
		rawSum += v
		cpuSum += r.cpu
		t = append(t, cal)
		raw = append(raw, v)
		cpu = append(cpu, r.cpu)
		net = append(net, r.net)
	}
	b.put(prefix+"_per_s", units/sum, "1/s", len(reqs))
	b.put(prefix+"_p50_s", median(t), "s", len(reqs))
	b.diag["raw."+prefix+"_per_s"] = units / rawSum
	b.diag["raw."+prefix+"_p50_s"] = median(raw)
	b.diag[prefix+"_per_cpu_s"] = units / cpuSum
	b.diag[prefix+"_cpu_p50_s"] = median(cpu)
	b.diag[prefix+"_wall_p50_s"] = median(net)
	if v, label, ok := tail(net); ok {
		b.diag[prefix+"_wall_"+label+"_s"] = v
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Reference simulation: the scaled baseline stressmark at 120k/40k
// instructions, recorded as cycles/run by BenchmarkTableI_BaselineSim.
const (
	refCycles       = 205596
	refInstructions = 80001
)

// referenceCheck simulates the scaled baseline reference stressmark and
// checks its bit-identity numbers. Every workload runs it as the first
// step of set-up, so a simulator that drifted fails before timing.
func referenceCheck() error {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, err := experiments.ReferenceKnobs("baseline")
	if err != nil {
		return err
	}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		return err
	}
	res, err := pipe.Simulate(cfg, p, pipe.RunConfig{MaxInstructions: 120_000, WarmupInstructions: 40_000})
	if err != nil {
		return err
	}
	if res.Cycles != refCycles || res.Instructions != refInstructions {
		return fmt.Errorf("reference stressmark: %d cycles / %d instrs, want %d / %d",
			res.Cycles, res.Instructions, refCycles, refInstructions)
	}
	return nil
}

// Set-up is timed in rounds: one round before the run, then one
// between requests whenever setupEvery has passed, and setup_s is the
// median of the rounds' means. A round runs setupSteps steps of one
// set-up per CPU at once. On the reference host one vCPU at a time ran
// at half speed (its hyperthread sibling busy) for stretches of
// 100-200 ms, so a lone set-up's cost depended on the CPU it landed on;
// a step spans both, a round spans several stretches, and spreading the
// rounds over the run samples the host's drift as the timed passes do.
const (
	setupSteps = 3
	setupEvery = 3 * time.Second
)

// setupRound runs setupSteps steps of GOMAXPROCS concurrent set-ups
// (the reference check, then prepare) and returns the mean user CPU
// seconds of one set-up and the last prepared state; every other state
// is released through discard, when set.
func setupRound[T any](prepare func() (T, error), discard func(T)) (mean float64, last T, err error) {
	n := runtime.GOMAXPROCS(0)
	var sum float64
	for step := 0; step < setupSteps; step++ {
		runtime.GC() // every step starts from a collected heap
		states, errs := make([]T, n), make([]error, n)
		d, _ := measure(func() error {
			var wg sync.WaitGroup
			for i := range states {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if errs[i] = referenceCheck(); errs[i] == nil {
						states[i], errs[i] = prepare()
					}
				}()
			}
			wg.Wait()
			return nil
		})
		if err := errors.Join(errs...); err != nil {
			return 0, last, err
		}
		sum += d.cpu / float64(n)
		for i, st := range states {
			if discard != nil && (step < setupSteps-1 || i < n-1) {
				discard(st)
			}
		}
		last = states[n-1]
	}
	return sum / setupSteps, last, nil
}

// setup runs the first set-up round and returns its last prepared
// state for the run to use. It arms b.between to repeat the round
// during the run, releasing those rounds' states at once.
func setup[T any](b *bench, prepare func() (T, error), discard func(T)) (T, error) {
	mean, st, err := setupRound(prepare, discard)
	b.check(err)
	if err != nil {
		return st, err
	}
	b.setupMeans, b.setupAt = append(b.setupMeans, mean), append(b.setupAt, time.Now())
	b.lastSetup = time.Now()
	b.resetup = func() error {
		mean, st, err := setupRound(prepare, discard)
		if err != nil {
			return err
		}
		if discard != nil {
			discard(st)
		}
		b.setupMeans, b.setupAt = append(b.setupMeans, mean), append(b.setupAt, time.Now())
		return nil
	}
	return st, nil
}

// between runs, when due, a calibration sample (calib.go) and another
// set-up round. Workloads call it between requests, outside any
// measured request; it does nothing in the traced run.
func (b *bench) between() error {
	if b.cal != nil && b.cal.due() {
		if err := b.cal.sample(); err != nil {
			return err
		}
	}
	if b.resetup == nil || time.Since(b.lastSetup) < setupEvery {
		return nil
	}
	err := b.resetup()
	b.lastSetup = time.Now()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return nil
}
