package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"avfstress/internal/avf"
	"avfstress/internal/cache"
	"avfstress/internal/codegen"
	"avfstress/internal/core"
	"avfstress/internal/experiments"
	"avfstress/internal/persist"
	"avfstress/internal/pipe"
	"avfstress/internal/scenario"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// Layer probes for the traced run. Each probe times a fixed amount of
// work through one layer's public functions, inside spans named
// "<layer>.<call>", and reports a per-call cost as the median of a few
// repetitions.

// repeat runs f n times inside spans and returns the median wall time
// in seconds.
func repeat(tr *tracer, name string, n int, f func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timeIt(func() error { return tr.do(name, 0, f) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ts = append(ts, d)
	}
	return median(ts), nil
}

// probePipe measures whole-run simulation, golden recording, pipeline
// snapshot/restore and the checkpoint codec on the reference stressmark.
func probePipe(b *bench, tr *tracer) error {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, err := experiments.ReferenceKnobs("baseline")
	if err != nil {
		return err
	}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		return err
	}
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		return err
	}
	rc := pipe.RunConfig{MaxInstructions: 120_000, WarmupInstructions: 40_000}
	var cycles int64
	d, err := repeat(tr, "pipe.Pool.Simulate", 5, func() error {
		res, err := pool.Simulate(p, rc)
		if err == nil {
			cycles = res.Cycles
		}
		return err
	})
	if err != nil {
		return err
	}
	b.check(countIs("pipe.sim_cycles", cycles, refCycles))
	b.put("pipe.instrs_per_s", float64(rc.MaxInstructions)/d, "1/s", 5)
	b.put("pipe.sim_cycles", float64(cycles), "count", 1)

	var set *pipe.CheckpointSet
	d, err = repeat(tr, "pipe.Pool.SimulateGoldenRecorded", 5, func() error {
		var gerr error
		_, _, set, gerr = pool.SimulateGoldenRecorded(p, rc, 0, nil)
		return gerr
	})
	if err != nil {
		return err
	}
	b.put("pipe.golden_s", d, "s", 5)
	if len(set.Checkpoints) == 0 {
		return fmt.Errorf("golden run captured no checkpoints")
	}

	pl, err := pipe.New(cfg, p)
	if err != nil {
		return err
	}
	var snapT, restT, encT, decT []float64
	var bytesTotal int
	for _, ck := range set.Checkpoints {
		d, err := timeIt(func() error { return tr.do("pipe.Pipeline.Restore", 0, func() error { return pl.Restore(ck) }) })
		if err != nil {
			return err
		}
		restT = append(restT, d)
		var snap *pipe.Checkpoint
		d, _ = timeIt(func() error {
			return tr.do("pipe.Pipeline.Snapshot", 0, func() error { snap = pl.Snapshot(); return nil })
		})
		snapT = append(snapT, d)
		var data []byte
		d, err = timeIt(func() error {
			return tr.do("pipe.Checkpoint.MarshalBinary", 0, func() error {
				var merr error
				data, merr = snap.MarshalBinary()
				return merr
			})
		})
		if err != nil {
			return err
		}
		encT = append(encT, d)
		bytesTotal += len(data)
		var back *pipe.Checkpoint
		d, err = timeIt(func() error {
			return tr.do("pipe.UnmarshalCheckpoint", 0, func() error {
				var uerr error
				back, uerr = pipe.UnmarshalCheckpoint(data, p)
				return uerr
			})
		})
		if err != nil {
			return err
		}
		decT = append(decT, d)
		if back.Cycle() != ck.Cycle() {
			b.check(fmt.Errorf("checkpoint round trip moved cycle %d to %d", ck.Cycle(), back.Cycle()))
		}
	}
	n := len(set.Checkpoints)
	b.put("pipe.restore_us", median(restT)*1e6, "us", n)
	b.put("pipe.snapshot_us", median(snapT)*1e6, "us", n)
	b.put("pipe.ckpt_encode_us", median(encT)*1e6, "us", n)
	b.put("pipe.ckpt_decode_us", median(decT)*1e6, "us", n)
	b.put("pipe.ckpt_bytes", float64(bytesTotal)/float64(n), "B", n)
	return nil
}

// countIs checks that a count the benchmark depends on repeats exactly.
func countIs(name string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", name, got, want)
	}
	return nil
}

// probeCache measures the cache lifetime engine's hot operations on the
// Table I DL1 geometry and the data TLB.
func probeCache(b *bench, tr *tracer) error {
	mem := uarch.Baseline().Mem
	const ops = 1 << 20
	c, err := cache.New(mem.DL1)
	if err != nil {
		return err
	}
	c.FillTouch(0, 1, 0x1000, 8, false)
	d, _ := repeat(tr, "cache.Cache.Access", 3, func() error {
		for i := 0; i < ops; i++ {
			c.Access(int64(i)+2, 0x1000, 8, false)
		}
		return nil
	})
	b.put("cache.access_ns", d/ops*1e9, "ns", 3)

	stride, lines := uint64(c.Config().LineBytes), uint64(c.Lines()*4)
	d, _ = repeat(tr, "cache.Cache.FillTouch", 3, func() error {
		c.Reset()
		for i := 0; i < ops; i++ {
			addr, now := (uint64(i)%lines)*stride, int64(i)*2
			if !c.Access(now, addr, 8, false) {
				c.FillTouch(now, now+1, addr, 8, false)
			}
		}
		return nil
	})
	b.put("cache.fill_ns", d/ops*1e9, "ns", 3)

	var fin []float64
	for r := 0; r < 20; r++ {
		c.Reset()
		for l := 0; l < c.Lines(); l++ {
			c.FillTouch(0, 1, uint64(l)*stride, 8, l%2 == 0)
		}
		d, _ := timeIt(func() error { return tr.do("cache.Cache.Finalize", 0, func() error { c.Finalize(10); return nil }) })
		fin = append(fin, d)
	}
	b.put("cache.finalize_us", median(fin)*1e6, "us", len(fin))

	t, err := cache.NewTLB(mem.DTLB)
	if err != nil {
		return err
	}
	// A working set of half the entries: after the first touches every
	// access takes the hit path, the one the pipeline takes most.
	page, pages := uint64(mem.DTLB.PageBytes), uint64(mem.DTLB.Entries/2)
	d, _ = repeat(tr, "cache.TLB.Access", 3, func() error {
		t.Reset()
		for i := 0; i < ops; i++ {
			t.Access(int64(i), (uint64(i*7)%pages)*page)
		}
		return nil
	})
	b.put("cache.tlb_access_ns", d/ops*1e9, "ns", 3)
	return nil
}

// probeCodegenCore measures stressmark generation and one GA candidate
// evaluation (generate + simulate + fitness) at the search budget.
func probeCodegenCore(b *bench, tr *tracer) error {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, err := experiments.ReferenceKnobs("baseline")
	if err != nil {
		return err
	}
	const gens = 200
	i := int64(0)
	d, err := repeat(tr, "codegen.Generate", gens, func() error {
		i++
		k.Seed = i
		_, _, err := codegen.Generate(cfg, k, 1<<40)
		return err
	})
	if err != nil {
		return err
	}
	b.put("codegen.generate_us", d*1e6, "us", gens)

	k.Seed = 0
	d, err = repeat(tr, "core.EvaluateKnobs", 5, func() error {
		_, err := core.EvaluateKnobs(b.ctx, cfg, uarch.UniformRates(1), avf.DefaultWeights(), k, searchEval)
		return err
	})
	if err != nil {
		return err
	}
	b.put("core.evaluate_s", d, "s", 5)
	return nil
}

// probeSimcache measures content keying and blob get/put on the memory
// tier and on the disk tier (a second store over the same directory,
// so its reads come from disk).
func probeSimcache(b *bench, tr *tracer) error {
	const n = 2000
	mem := simcache.New(simcache.Options{})
	cfgFP := uarch.Scaled(uarch.Baseline(), 32).Fingerprint()
	keys := make([]simcache.Key, n)
	blob := []byte("injtrial v2 1 12345 4a0 3 -1")
	d, _ := repeat(tr, "simcache.Store.Key", 3, func() error {
		for i := range keys {
			f := pipe.Fault{Structure: uarch.Structure(i % int(uarch.NumStructures)), Bit: uint64(i * 31), Cycle: int64(10_000 + i)}
			keys[i] = mem.Key(cfgFP, "prog:stressmark", campaignRun.Fingerprint(), "injtrial:"+f.Fingerprint())
		}
		return nil
	})
	b.put("simcache.key_ns", d/n*1e9, "ns", 3)
	d, _ = repeat(tr, "simcache.Store.PutBlob", 3, func() error {
		mem = simcache.New(simcache.Options{})
		for _, k := range keys {
			mem.PutBlob(k, blob)
		}
		return nil
	})
	b.put("simcache.mem_put_ns", d/n*1e9, "ns", 3)
	d, _ = repeat(tr, "simcache.Store.GetBlob", 3, func() error {
		for _, k := range keys {
			if _, ok := mem.GetBlob(k); !ok {
				return fmt.Errorf("memory tier lost a blob")
			}
		}
		return nil
	})
	b.put("simcache.mem_get_ns", d/n*1e9, "ns", 3)

	const m = 200
	dir := filepath.Join(b.work, "simcache-probe")
	disk := simcache.New(simcache.Options{Dir: dir})
	d, _ = repeat(tr, "simcache.Store.PutBlob", 1, func() error {
		for _, k := range keys[:m] {
			disk.PutBlob(k, blob)
		}
		return nil
	})
	b.put("simcache.disk_put_us", d/m*1e6, "us", m)
	reread := simcache.New(simcache.Options{Dir: dir})
	d, err := repeat(tr, "simcache.Store.GetBlob", 1, func() error {
		for _, k := range keys[:m] {
			if v, ok := reread.GetBlob(k); !ok || !bytes.Equal(v, blob) {
				return fmt.Errorf("disk tier lost a blob")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.put("simcache.disk_get_us", d/m*1e6, "us", m)
	b.check(countIs("simcache.disk_hits", reread.Stats().DiskHits, m))
	return nil
}

// probePersist measures the CRC frame codec's throughput and one
// crash-safe framed file write.
func probePersist(b *bench, tr *tracer) error {
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	d, err := repeat(tr, "persist.EncodeFramed", 5, func() error {
		back, err := persist.DecodeFramed(persist.EncodeFramed(payload))
		if err == nil && !bytes.Equal(back, payload) {
			err = fmt.Errorf("frame round trip changed the payload")
		}
		return err
	})
	if err != nil {
		return err
	}
	b.put("persist.frame_mb_per_s", float64(len(payload))/(1<<20)/d, "MB/s", 5)
	path := filepath.Join(b.work, "persist-probe.bin")
	d, err = repeat(tr, "persist.WriteFramedFile", 10, func() error {
		return persist.WriteFramedFile(path, payload[:64<<10])
	})
	if err != nil {
		return err
	}
	b.put("persist.write_file_ms", d*1e3, "ms", 10)
	return nil
}

// probeSched measures the scheduler's per-job overhead over no-op jobs.
func probeSched(b *bench, tr *tracer) error {
	const n = 2000
	jobs := make([]scenario.Job, n)
	for i := range jobs {
		jobs[i] = scenario.Job{Key: fmt.Sprintf("noop-%d", i), Run: func(context.Context) error { return nil }}
	}
	d, err := repeat(tr, "sched.Run", 5, func() error { return sched.Run(b.ctx, jobs, sched.Options{}) })
	if err != nil {
		return err
	}
	b.put("sched.job_overhead_us", d/n*1e6, "us", 5)
	return nil
}

// probeExperiments measures rendering the registered suite on a warm
// store (every simulation a memo hit), the daemon's warm-job body.
func probeExperiments(b *bench, tr *tracer, store *simcache.Store) error {
	spec := serviceSpec(b, 0)
	before := store.Stats()
	d, err := repeat(tr, "experiments.RunScenarios", 5, func() error {
		c, names, err := experiments.NewSpecContext(spec, experiments.Options{Cache: store})
		if err != nil {
			return err
		}
		_, err = c.RunScenarios(b.ctx, names)
		return err
	})
	if err != nil {
		return err
	}
	b.check(countIs("experiments warm simulations", store.Stats().Simulated-before.Simulated, 0))
	b.put("experiments.render_warm_ms", d*1e3, "ms", 5)
	return nil
}

// probeService measures the daemon's per-job phases from JobStatus
// timestamps against the client clock, a restart on the same state,
// a disk-tier job, and one synthetic fabric runner's claim round trip.
// It returns the daemon's store, warm with the registered suite.
func probeService(b *bench, tr *tracer) (*simcache.Store, error) {
	dir := filepath.Join(b.work, "service-probe")
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			b.check(fmt.Errorf("stopping the probe daemon: %w", err))
		}
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	if _, err := runJob(c, d.base, serviceSpec(b, 0), tr); err != nil {
		return nil, err
	}
	c.CloseIdleConnections()
	restart, err := timeIt(func() error {
		return tr.do("service.restart", 0, func() error {
			if err := d.stop(); err != nil {
				return err
			}
			d, err = startDaemon(d.dir)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	b.put("service.restart_s", restart, "s", 1)
	disk, err := runJob(c, d.base, serviceSpec(b, 0), tr)
	if err != nil {
		return nil, err
	}
	b.put("service.disk_job_s", disk.cost.wall, "s", 1)

	const warm = 100
	var queue, run, notify, fetch, lat []float64
	for i := 0; i < warm; i++ {
		jr, err := runJob(c, d.base, serviceSpec(b, 0), tr)
		if err != nil {
			return nil, err
		}
		var st struct {
			Created time.Time `json:"created_at"`
			Started time.Time `json:"started_at"`
			Ended   time.Time `json:"ended_at"`
		}
		if err := doJSON(c, http.MethodGet, d.base+"/v1/jobs/"+jr.id, nil, http.StatusOK, &st); err != nil {
			return nil, err
		}
		queue = append(queue, st.Started.Sub(st.Created).Seconds())
		run = append(run, st.Ended.Sub(st.Started).Seconds())
		notify = append(notify, jr.streamed.Sub(st.Ended).Seconds())
		fetch = append(fetch, jr.fetched.Sub(jr.streamed).Seconds())
		lat = append(lat, jr.cost.wall)
	}
	b.put("service.queue_ms", median(queue)*1e3, "ms", warm)
	b.put("service.run_ms", median(run)*1e3, "ms", warm)
	b.put("service.notify_ms", median(notify)*1e3, "ms", warm)
	b.put("service.fetch_ms", median(fetch)*1e3, "ms", warm)
	if v, _, ok := tail(lat); ok {
		b.put("service.warm_job_p90_s", v, "s", warm)
	}

	rtt, err := fabricClaimRTT(c, d.base, tr)
	if err != nil {
		return nil, err
	}
	b.put("service.fabric_claim_rtt_ms", rtt*1e3, "ms", fabricClaims)
	return d.srv.Store(), nil
}

const fabricClaims = 50

// fabricClaimRTT joins one synthetic runner and returns the median
// round trip of a result-key claim followed by its release. The runner
// is recorded only: it computes nothing.
func fabricClaimRTT(c *http.Client, base string, tr *tracer) (float64, error) {
	var joined struct {
		Runner string `json:"runner"`
	}
	if err := doFramed(c, base+"/v1/fabric/join", map[string]interface{}{"name": "perfbench", "workers": 1}, &joined); err != nil {
		return 0, fmt.Errorf("fabric join: %w", err)
	}
	store := simcache.New(simcache.Options{})
	var rtts []float64
	for i := 0; i < fabricClaims; i++ {
		key := store.Key("perfbench-claim", fmt.Sprint(i)).Hex()
		var claim struct {
			State string `json:"state"`
		}
		d, err := timeIt(func() error {
			return tr.do("service.fabric.claim", 0, func() error {
				if err := doFramed(c, base+"/v1/fabric/claim", map[string]interface{}{
					"runner": joined.Runner, "kind": simcache.KindResult, "key": key,
				}, &claim); err != nil {
					return err
				}
				var none struct{}
				return doFramed(c, base+"/v1/fabric/release", map[string]interface{}{
					"runner": joined.Runner, "kind": simcache.KindResult, "key": key, "ok": false,
				}, &none)
			})
		})
		if err != nil {
			return 0, fmt.Errorf("fabric claim: %w", err)
		}
		if claim.State != "granted" {
			return 0, fmt.Errorf("fabric claim of a fresh key answered %q", claim.State)
		}
		rtts = append(rtts, d)
	}
	return median(rtts), nil
}

// doFramed posts one CRC-framed JSON request of the fabric wire
// protocol and decodes the framed JSON answer.
func doFramed(c *http.Client, url string, in, out interface{}) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(persist.EncodeFramed(payload)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	framed, err := persist.DecodeFramed(body)
	if err != nil {
		return err
	}
	return json.Unmarshal(framed, out)
}
