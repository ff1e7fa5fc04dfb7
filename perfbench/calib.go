package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration (README.md, "Host-speed calibration").
//
// The reference host, a 2-vCPU virtual machine, runs each vCPU at one
// of two speeds, switching every few seconds and at times staying slow
// for minutes: in the slow state the simulator takes 1.9-2.3x as long,
// while the steal counters stay near zero. Raw timings of ten 30 s
// runs spread by up to 0.47 of their median (quartile distance) with
// the share of time the vCPUs spent slow, and taking a low quantile of
// each request's samples instead of a median spread them further.
//
// So every timed run also times a fixed calibration kernel, one copy
// per CPU at once, every calibEvery between requests, and scales each
// timing by calRefSeconds over the kernel's mean time around it (the
// samples from calWindow before it starts to calWindow after it ends),
// so a request that ran while the vCPUs were slow is scaled down by as
// much as the kernel slowed meanwhile. The kernel is the Go standard
// library's JSON encoder and fmt formatter over a fixed document set:
// nothing of the repository, so a change to the program moves the
// calibrated timings exactly as it moves the raw ones. Of the kernels
// tried, these two tracked the simulator best (their log times
// correlated 0.84-0.95 with its over 3-10 s windows, at 0.75-1.1 of
// its slowdown), so the calibration removes most of the host's swing
// but not all of it. The raw timings are printed beside the result as
// diagnostics.
const (
	calibEvery = 500 * time.Millisecond
	calWindow  = 1200 * time.Millisecond
	// calRefSeconds is the kernel's time on the reference host when
	// its vCPU runs at the fast speed; calibrated timings are seconds
	// at that speed.
	calRefSeconds = 0.0065
	calDocs       = 500
	calRounds     = 6
)

// calDoc is one record of the calibration document set.
type calDoc struct {
	Name, Kind string
	Seq        int64
	Weight     float64
	Ops        []int32
	Sub        struct {
		A, B int
		C    string
		D    bool
	}
}

// calibrator times the calibration kernel between requests.
type calibrator struct {
	docs    []calDoc
	bufs    []bytes.Buffer // one per concurrent copy, reused
	samples []calSample    // in time order
	last    time.Time
}

// calSample is one kernel run: when it ended and its wall seconds.
type calSample struct {
	at   time.Time
	secs float64
}

func newCalibrator() *calibrator {
	docs := make([]calDoc, calDocs)
	for i := range docs {
		d := &docs[i]
		d.Name, d.Kind = fmt.Sprintf("item-%d", i), `k"q<`
		d.Seq, d.Weight = int64(i)*7919, float64(i)/3
		d.Ops = []int32{int32(i), 2, 3, int32(i % 17)}
		d.Sub.A, d.Sub.C, d.Sub.D = i, "sub", i%3 == 0
	}
	return &calibrator{docs: docs, bufs: make([]bytes.Buffer, runtime.GOMAXPROCS(0))}
}

// kernel encodes the document set as JSON and formats it line by line
// into buf, calRounds times.
func (c *calibrator) kernel(buf *bytes.Buffer) error {
	for r := 0; r < calRounds; r++ {
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(c.docs); err != nil {
			return err
		}
		buf.Reset()
		for i := range c.docs {
			d := &c.docs[i]
			fmt.Fprintf(buf, "%s %q %d %.3f %v\n", d.Name, d.Kind, d.Seq, d.Weight, d.Ops)
		}
	}
	return nil
}

// sample runs one copy of the kernel per CPU at once and records each
// copy's wall time. The program's garbage collector is held off
// meanwhile (disabling it waits for a running cycle to end), so the
// kernel never shares the CPUs with a collection of the program's heap
// and a program that allocates more cannot slow the kernel.
func (c *calibrator) sample() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := len(c.bufs)
	times, errs := make([]float64, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i], errs[i] = timeIt(func() error { return c.kernel(&c.bufs[i]) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("calibration kernel: %w", err)
		}
	}
	c.last = time.Now()
	for _, t := range times {
		c.samples = append(c.samples, calSample{c.last, t})
	}
	return nil
}

// due reports whether calibEvery has passed since the last sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= calibEvery }

// factorOver is what a timing taken from start to end is multiplied
// by: calRefSeconds over the kernel's mean time from calWindow before
// start to calWindow after end, or over the nearest sample's when none
// is that close. The mean, not the median, because the vCPUs' speed
// has two levels and the kernel runs on all of them at once.
func (c *calibrator) factorOver(start, end time.Time) float64 {
	lo := sort.Search(len(c.samples), func(i int) bool { return !c.samples[i].at.Before(start.Add(-calWindow)) })
	var sum float64
	var n int
	for j := lo; j < len(c.samples) && !c.samples[j].at.After(end.Add(calWindow)); j++ {
		sum, n = sum+c.samples[j].secs, n+1
	}
	if n == 0 {
		// Every sample is more than calWindow away: take the one just
		// before the window, or just after it.
		j := lo
		if j == len(c.samples) || (j > 0 && start.Sub(c.samples[j-1].at) < c.samples[j].at.Sub(end)) {
			j--
		}
		sum, n = c.samples[j].secs, 1
	}
	return calRefSeconds / (sum / float64(n))
}

// mean is the kernel's mean time over the whole run.
func (c *calibrator) mean() float64 {
	var sum float64
	for _, s := range c.samples {
		sum += s.secs
	}
	return sum / float64(len(c.samples))
}
