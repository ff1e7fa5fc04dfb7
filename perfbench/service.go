package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"avfstress/internal/scenario"
	"avfstress/internal/service"
	"avfstress/internal/simcache"
)

// The service workload drives avfstressd's job server over loopback
// HTTP from one closed-loop client: cold jobs run the registered paper
// suite, a restarted daemon serves the same specs from its disk tier,
// and repeated submissions are served from memory, timed in batches.
const (
	serviceColdJobs  = 6
	serviceWarmBatch = 100
)

// serviceSpec is the i-th distinct submission: the registered paper
// suite in reference mode at the daemon's default sizes (workload
// simulations of 160k/60k instructions, injection campaigns of 20k/7.5k
// instructions and 1000 trials), made distinct by its seed.
func serviceSpec(b *bench, i int) scenario.Spec {
	return scenario.Spec{Mode: "reference", Seed: b.derive(2000 + i)}
}

// daemon is one in-process avfstressd life on a loopback listener.
type daemon struct {
	dir  string // cache and journal directory
	srv  *service.Server
	http *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

// startDaemon builds a server over dir's cache and journal and serves
// it on a fresh loopback port.
func startDaemon(dir string) (*daemon, error) {
	srv, err := service.New(service.Options{
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal"),
		// Retained reports bound the daemon's memory; a small history
		// keeps peak RSS independent of how many warm jobs fit the run.
		MaxHistory: 32,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener, waits for Serve to return and stops the
// job server (a crash-equivalent stop; no job is running by then).
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.http.Shutdown(ctx)
	<-d.done
	if err := d.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// client is the one closed-loop client: at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// jobResult is one job as the client saw it.
type jobResult struct {
	id     string
	cost   cost // POST to the end of the results body
	report string
	stats  simcache.Stats
	// Client-clock instants of the request phases, for the traced run.
	posted, streamed, fetched time.Time
}

// runJob submits spec, waits on the job's progress stream (which
// returns when the job ends, with no poll tick), then fetches its
// results.
func runJob(c *http.Client, base string, spec scenario.Spec, tr *tracer) (jobResult, error) {
	var jr jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	sp := tr.begin("service.job", 0)
	defer tr.end(sp)
	start := now()
	var st struct {
		ID string `json:"id"`
	}
	if err := tr.do("service.submit", sp, func() error {
		return doJSON(c, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &st)
	}); err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	jr.id, jr.posted = st.ID, time.Now()
	var tailLine string
	if err := tr.do("service.wait", sp, func() error {
		resp, err := c.Get(base + "/v1/jobs/" + st.ID + "?stream=1")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		tailLine = lines[len(lines)-1]
		return nil
	}); err != nil {
		return jr, fmt.Errorf("waiting on %s: %w", st.ID, err)
	}
	jr.streamed = time.Now()
	if tailLine != "status: done" {
		return jr, fmt.Errorf("job %s ended %q", st.ID, tailLine)
	}
	var res struct {
		Status string         `json:"status"`
		Stats  simcache.Stats `json:"stats"`
		Report string         `json:"report"`
	}
	if err := tr.do("service.fetch", sp, func() error {
		return doJSON(c, http.MethodGet, base+"/v1/results/"+st.ID, nil, http.StatusOK, &res)
	}); err != nil {
		return jr, fmt.Errorf("results of %s: %w", st.ID, err)
	}
	jr.fetched = time.Now()
	jr.cost = start.since()
	jr.report, jr.stats = res.Report, res.Stats
	return jr, nil
}

// doJSON sends one request and decodes a JSON response with the wanted
// status code.
func doJSON(c *http.Client, method, url string, body []byte, want int, out interface{}) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// servicePhases holds what the cold/disk/warm phases measured: one
// cost per cold and disk job, and every warm job.
type servicePhases struct {
	cold, disk []cost
	warm       []request
	restartS   float64
}

// serviceRun runs the three phases against a daemon: the cold jobs, a
// restart on the same directory, the disk-tier jobs, then batches of
// batch warm jobs until warmUntil (at least minBatches of them). It
// returns the daemon it ends with.
func serviceRun(b *bench, tr *tracer, d *daemon, cold, batch int, warmUntil time.Time, minBatches int) (*daemon, servicePhases, error) {
	var ph servicePhases
	c := newClient()
	defer c.CloseIdleConnections()
	want := make([]string, cold)
	for i := 0; i < cold; i++ {
		jr, err := runJob(c, d.base, serviceSpec(b, i), tr)
		if err != nil {
			return d, ph, fmt.Errorf("cold job %d: %w", i, err)
		}
		want[i] = jr.report
		ph.cold = append(ph.cold, jr.cost)
		if jr.stats.Simulated == 0 {
			b.check(fmt.Errorf("cold job %s simulated nothing", jr.id))
		} else {
			b.check(nil)
		}
		if err := b.between(); err != nil {
			return d, ph, err
		}
	}

	c.CloseIdleConnections()
	var err error
	ph.restartS, err = timeIt(func() error {
		return tr.do("service.restart", 0, func() error {
			if err := d.stop(); err != nil {
				return err
			}
			d, err = startDaemon(d.dir)
			return err
		})
	})
	if err != nil {
		return d, ph, fmt.Errorf("restarting the daemon: %w", err)
	}

	served := func(phase string, i int) (cost, error) {
		jr, err := runJob(c, d.base, serviceSpec(b, i%cold), tr)
		if err != nil {
			return cost{}, fmt.Errorf("%s job: %w", phase, err)
		}
		switch {
		case jr.report != want[i%cold]:
			b.check(fmt.Errorf("%s job %s: report differs from the cold report", phase, jr.id))
		case jr.stats.Simulated != 0:
			b.check(fmt.Errorf("%s job %s simulated %d results", phase, jr.id, jr.stats.Simulated))
		case phase == "disk" && jr.stats.DiskHits == 0:
			b.check(fmt.Errorf("disk job %s had no disk hits", jr.id))
		default:
			b.check(nil)
		}
		return jr.cost, nil
	}
	for i := 0; i < cold; i++ {
		jc, err := served("disk", i)
		if err != nil {
			return d, ph, err
		}
		ph.disk = append(ph.disk, jc)
		if err := b.between(); err != nil {
			return d, ph, err
		}
	}
	// Warm jobs run in batches of batch jobs until warmUntil.
	for batches := 0; batches < minBatches || time.Now().Before(warmUntil); batches++ {
		for i := 0; i < batch; i++ {
			jc, err := served("warm", i)
			if err != nil {
				return d, ph, err
			}
			ph.warm = append(ph.warm, request{1, jc})
			if err := b.between(); err != nil {
				return d, ph, err
			}
		}
	}
	return d, ph, nil
}

// runService is the timed service workload.
func runService(b *bench) error {
	var reps atomic.Int64
	d, err := setup(b, func() (*daemon, error) {
		dir := filepath.Join(b.work, fmt.Sprintf("svc%d", reps.Add(1)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return startDaemon(dir)
	}, func(d *daemon) {
		if err := d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping a set-up daemon: %v\n", err)
		}
	})
	if err != nil {
		return err
	}
	d, ph, err := serviceRun(b, nil, d, serviceColdJobs, serviceWarmBatch, time.Now().Add(b.budget), 2)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	// A cold job's wall time waits on fsync'd disk-tier writes, whose
	// latency moved it 1.9-4.4 s across ten runs; its user CPU time is
	// the cold cost.
	var cold []request
	for _, c := range ph.cold {
		cold = append(cold, request{1, c})
	}
	b.putPhase("cold", cold, userCPU)
	b.putPhase("warm", ph.warm, netWall)
	var disk []float64
	for _, c := range ph.disk {
		disk = append(disk, c.net)
	}
	b.diag["disk_wall_p50_s"] = median(disk)
	b.diag["restart_s"] = ph.restartS
	return nil
}

// serviceTracedPass is one traced pass for the traced run: a fresh
// daemon, one cold job, a restart, a disk job and a batch of warm jobs.
func serviceTracedPass(b *bench, tr *tracer) error {
	dir, err := os.MkdirTemp(b.work, "svcpass")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	d, _, err = serviceRun(b, tr, d, 1, 20, time.Time{}, 1)
	if serr := d.stop(); err == nil {
		err = serr
	}
	return err
}
