package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/study"
)

// blockLen is the number of jobs in one block of the service stream:
// five distinct runs and three repeats, so 3/8 of the replies are
// cache hits. That share is held well away from one half, where the
// median latency would flip between the hit and the cold population.
const blockLen = 8

// streamJob is one request of the service stream.
type streamJob struct {
	job serve.Job
	// class names the throughput metric a cold run of this job feeds
	// (serial, shm or mp); empty for the other jobs. A repeat carries
	// its original's class: with two clients either may run cold.
	class string
	// dupOf is the stream index of the distinct job this one repeats,
	// possibly under another spelling; -1 for a distinct job.
	dupOf int
}

// jobStream builds the seeded job stream. Each block holds one distinct
// run per class — serial, shm (2 workers), mp2d (2 ranks, Fresh) with
// the scenario rotating over jet, cavity and channel; an mp:v5 jet on
// the paper's 100 radial rows; and one rotating special (a
// convergence-controlled jet, an Euler jet, a 2-slice parareal jet, a
// hybrid jet) — plus three repeats: the mp:v5 job spelled as "mp" with
// version 5, the mp2d job spelled with halo depth 1 instead of Fresh,
// and an exact repeat of an earlier distinct job. Grid sizes and step
// counts follow the block index, so every seed has the same cost mix;
// the seed sets the jet physics, the order within a block and which
// earlier job is repeated.
func jobStream(seed int64, blocks int) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	var out []streamJob
	scenarios := []string{"jet", "cavity", "channel"}
	jetPhys := func(j serve.Job) serve.Job {
		if j.Scenario == "jet" || j.Scenario == "" {
			eps := 1e-4 * (0.5 + rng.Float64())
			j.Reynolds, j.Eps = 1.2e6*(0.5+rng.Float64()), &eps
		}
		return j
	}
	for b := 0; b < blocks; b++ {
		// u counts the blocks of this scenario, so no (scenario, grid,
		// steps) triple repeats within 60 blocks of one scenario.
		u := b / len(scenarios)
		vary := func(j serve.Job, nx, steps int) serve.Job {
			j.Nx, j.Steps = nx+4*(u%6), steps+u/6%10
			return jetPhys(j)
		}
		sc := scenarios[b%len(scenarios)]
		v5 := vary(serve.Job{Backend: "mp:v5", Procs: 2, Nr: 100}, 200, 8)
		mp := vary(serve.Job{Scenario: sc, Backend: "mp2d", Procs: 2, Fresh: true, Nr: 64}, 160, 24)
		local := []streamJob{
			{job: vary(serve.Job{Scenario: sc, Backend: "serial", Nr: 48}, 128, 40), class: "serial", dupOf: -1},
			{job: vary(serve.Job{Scenario: sc, Backend: "shm", Procs: 2, Nr: 48}, 128, 40), class: "shm", dupOf: -1},
			{job: mp, class: "mp", dupOf: -1},
			{job: v5, dupOf: -1},
			{job: special(b, rng), dupOf: -1},
		}
		// Repeats refer to local indices 3 (v5) and 2 (mp) of this
		// block, or to a global index of an earlier distinct job.
		alias5 := v5
		alias5.Backend, alias5.Version = "mp", 5
		depth1 := mp
		depth1.Fresh, depth1.HaloDepth = false, 1
		type rep struct {
			job          serve.Job
			class        string
			local, globl int
		}
		reps := []rep{{alias5, "", 3, -1}, {depth1, "mp", 2, -1}}
		if pick := rng.Intn(len(out) + len(local)); pick < len(out) {
			for out[pick].dupOf >= 0 {
				pick = out[pick].dupOf
			}
			reps = append(reps, rep{out[pick].job, out[pick].class, -1, pick})
		} else {
			l := local[pick-len(out)]
			reps = append(reps, rep{l.job, l.class, pick - len(out), -1})
		}
		// Shuffle the distinct jobs, then insert each repeat at a random
		// position after its original.
		order := rng.Perm(len(local))
		pos := func(l int) int {
			for p, o := range order {
				if o == l {
					return p
				}
			}
			return -1
		}
		for _, r := range reps {
			local = append(local, streamJob{job: r.job, class: r.class, dupOf: r.globl})
			after := pos(r.local) // -1 for an earlier block: anywhere
			at := after + 1 + rng.Intn(len(order)-after)
			order = append(order[:at], append([]int{len(local) - 1}, order[at:]...)...)
			if r.local >= 0 {
				local[len(local)-1].dupOf = -2 - r.local // resolved below
			}
		}
		base := len(out)
		for _, l := range order {
			out = append(out, local[l])
		}
		for i := base; i < len(out); i++ {
			if d := out[i].dupOf; d <= -2 {
				out[i].dupOf = base + pos(-2-d)
			}
			out[i].job.ID = strconv.Itoa(i)
		}
	}
	return out
}

// special returns block b's rotating job.
func special(b int, rng *rand.Rand) serve.Job {
	eps := 1e-4 * (0.5 + rng.Float64())
	re := 1.2e6 * (0.5 + rng.Float64())
	switch b % 4 {
	case 0:
		zero := 0.0
		return serve.Job{Backend: "serial", Nx: 64, Nr: 32, Steps: 4000, Tol: study.ConvergedTol,
			ReduceEvery: study.ConvergedCadence, Reynolds: study.ConvergedReynolds * (0.96 + 0.08*rng.Float64()), Eps: &zero}
	case 1:
		return serve.Job{Backend: "serial", Euler: true, Nx: 96, Nr: 32, Steps: 40, Reynolds: re}
	case 2:
		return serve.Job{TimeSlices: 2, Fine: "serial", Nx: 64, Nr: 24, Steps: 60, Reynolds: re, Eps: &eps}
	default:
		return serve.Job{Backend: "hybrid", Procs: 2, Workers: 1, Nx: 128, Nr: 48, Steps: 30, Reynolds: re, Eps: &eps}
	}
}

// server is a scheduler behind a loopback HTTP listener, with a client
// holding at most two connections to it.
type server struct {
	sched  *serve.Scheduler
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

// startServer starts a scheduler with one slot per CPU and returns it
// with the time from start to its first healthy reply.
func startServer() (*server, time.Duration, error) {
	t0 := time.Now()
	sched := serve.New(serve.Options{Slots: runtime.NumCPU()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, 0, err
	}
	s := &server{
		sched: sched,
		srv:   &http.Server{Handler: sched.Handler()},
		done:  make(chan struct{}),
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if err := s.healthz(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func (s *server) healthz() error {
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close stops the listener, waits for the serving goroutine to return,
// and drops the client's connections.
func (s *server) close() {
	_ = s.srv.Close() // only fails on listener errors; nothing is left to release
	<-s.done
	s.sched.Close()
	s.client.CloseIdleConnections()
}

// post submits one job and returns the reply with its client-side
// latency.
func (s *server) post(tr *tracer, parent int, j serve.Job, id int) (serve.JobResult, time.Duration, error) {
	var r serve.JobResult
	body, err := json.Marshal(j)
	if err != nil {
		return r, 0, err
	}
	sp := tr.begin("http.POST /run", parent, id)
	defer tr.end(sp)
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, 0, fmt.Errorf("job %s: %s", j.ID, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&r)
	lat := time.Since(t0)
	if err == nil && !r.OK {
		err = fmt.Errorf("job %s: %s", j.ID, r.Error)
	}
	return r, lat, err
}

// reply is one completed request of the service stream.
type reply struct {
	res    serve.JobResult
	lat    time.Duration
	keyDur time.Duration // client-side serve.Key time, recorded epochs only
	done   bool
}

// epochBlocks is the length of the stream one scheduler serves: 12
// blocks, the period of the stream's cost pattern. Every epoch starts a
// fresh scheduler, so the cache a run builds up, and with it the peak
// memory, does not depend on how fast the host runs.
const epochBlocks = 12

// serviceMix is a closed loop of two clients, each waiting for its
// reply, submitting the seeded job stream to POST /run on a loopback
// listener, epoch after epoch until the budget is spent. It is the only
// workload that exercises canonicalization, the result cache, admission
// and the HTTP/JSON reply path. The clients stop at a block boundary,
// so the hit share is exactly 3/8. The throughput metrics are the cold
// runs' stepping rates by class (solver time as the service reports
// it); jobs_per_s is replies per second of wall time.
func serviceMix(e *env) (*outcome, error) {
	o := newOutcome()
	stream := jobStream(e.seed, epochBlocks)
	// Set-up is the scheduler and listener start to the first healthy
	// reply: the median over every epoch's start and 20 bare starts
	// before each epoch. A start takes well under a millisecond and
	// swings with the host's phases, so the starts are spread over the
	// whole run like the requests; their time is left out of the wall.
	var setups []float64
	var startsTime time.Duration
	acc := &serviceTally{sums: map[string]string{}, byClass: map[string][]float64{}}
	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	deadline := start.Add(e.budget)
	// At least two epochs, so the traced run always has an untraced
	// epoch to compare with.
	for epoch := 0; epoch < 2 || time.Now().Before(deadline); epoch++ {
		t0 := time.Now()
		for i := 0; i < 20; i++ {
			s, d, err := startServer()
			o.op(err)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			s.close()
		}
		startsTime += time.Since(t0)
		srv, d, err := startServer()
		o.op(err)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		// The traced run records every other epoch: the latency
		// difference is the tracing overhead.
		on := epoch%2 == 0
		e.tr.setOn(on)
		replies, queued, rtts := runEpoch(e, srv, stream, deadline, on)
		st := srv.sched.Stats()
		if epoch == 0 && e.tr != nil {
			runtime.GC()
			runtime.ReadMemStats(&gc1)
			o.layers["serve.cache_entries"] = float64(st.CacheEntries)
			o.layers["serve.cache_mb"] = (float64(gc1.HeapAlloc) - float64(gc0.HeapAlloc)) / (1 << 20)
			o.layers["serve.queue_depth_mean"] = stats.Mean(queued)
			o.layers["http.roundtrip_us"] = median(rtts)
		}
		srv.close()
		hits, n := acc.add(o, stream, replies, epoch%2 == 0)
		if st.CacheHits != uint64(hits) || n%blockLen != 0 {
			o.op(fmt.Errorf("epoch %d: the service counted %d hits over %d jobs, the stream expects %d over whole blocks", epoch, st.CacheHits, n, hits))
		}
		o.layers["serve.hit_rate"] = st.HitRate
	}
	wall := time.Since(start) - startsTime
	e.tr.setOn(true)
	var gc2 runtime.MemStats
	runtime.ReadMemStats(&gc2)

	o.e2e["setup_s"] = median(setups)
	for _, c := range []string{"serial", "shm", "mp"} {
		o.e2e["mpts_"+c] = median(acc.byClass[c])
		o.note("%-6s cold runs n=%d mpts=%.4g Mpts/s (quartiles %.4g-%.4g)", c, len(acc.byClass[c]), median(acc.byClass[c]),
			percentile(acc.byClass[c], 0.25), percentile(acc.byClass[c], 0.75))
	}
	o.e2e["jobs_per_s"] = float64(acc.jobs) / wall.Seconds()
	p95 := percentile(acc.lats, 0.95)
	beyond := 0
	for _, l := range acc.lats {
		if l > p95 {
			beyond++
		}
	}
	o.note("requests n=%d p50=%.4g ms p95=%.4g ms (%d beyond p95), hit share %d/%d", len(acc.lats), median(acc.lats), p95, beyond, acc.hits, acc.jobs)
	o.layers["serve.req_p50_ms"] = median(acc.lats)
	o.layers["serve.req_p95_ms"] = p95
	o.layers["serve.hit_ms_p50"] = median(acc.hitLats)
	o.layers["serve.cold_ms_p50"] = median(acc.coldLats)
	o.layers["serve.cold_overhead_ms_p50"] = median(acc.overheads)
	o.layers["serve.key_us"] = median(acc.keys)
	o.layers["runtime.gc_cycles"] = float64(gc2.NumGC - gc2.NumForcedGC - gc0.NumGC + gc0.NumForcedGC)
	o.layers["trace.overhead_pct"] = 100 * (stats.Mean(acc.onLats)/stats.Mean(acc.offLats) - 1)
	o.layers["backend.parareal.iterations"] = 0
	for i, sj := range stream {
		if sj.job.TimeSlices > 0 && sj.dupOf < 0 {
			o.layers["backend.parareal.iterations"] = float64(acc.first[i].Iterations)
			break
		}
	}
	o.layers["solver.steps_to_tol"] = 0

	// A seeded subset of distinct runs, one per class, must match a
	// direct core run bit for bit.
	rng := rand.New(rand.NewSource(e.seed))
	var newRuns, nonSteps []float64
	for _, class := range []string{"serial", "shm", "mp"} {
		var cand []int
		for i, sj := range stream {
			if sj.class == class && sj.dupOf < 0 && acc.first[i].OK {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			continue
		}
		i := cand[rng.Intn(len(cand))]
		s, err := runSample(e.tr, solverCase{class: class, cfg: stream[i].job.Config()}, i)
		if err == nil && serve.MomentumChecksum(s.res.Momentum) != acc.first[i].MomentumSHA256 {
			err = fmt.Errorf("job %d: served momentum differs from a direct core run", i)
		}
		o.op(err)
		if err != nil {
			continue
		}
		newRuns = append(newRuns, ms(s.newRun))
		nonSteps = append(nonSteps, ms(s.nonStep))
		if class == "mp" {
			commLayers(o, s.res)
		}
	}
	if e.tr == nil {
		return o, nil
	}
	o.layers["core.newrun_ms"] = median(newRuns)
	o.layers["core.nonstep_ms"] = median(nonSteps)
	for _, sj := range stream {
		if sj.class == "serial" && sj.job.Scenario == "jet" {
			cfg := sj.job.Config()
			probeLayers(e, probeSpec{phys: *cfg.Jet, nx: cfg.Nx, nr: cfg.Nr,
				mp: core.Config{Backend: "mp2d", Procs: 2, FreshHalos: true}}, o)
			break
		}
	}
	return o, nil
}

// runEpoch serves the stream with two clients until its end, or until
// the first block boundary past the deadline (after at least one
// block). In the traced run's recorded epochs (on) it also polls the
// scheduler's Stats (queue depth), times serve.Key on each job and
// times a GET /healthz every eighth request of each client; the other
// epochs run none of this, so they are the untraced baseline.
func runEpoch(e *env, srv *server, stream []streamJob, deadline time.Time, on bool) (replies []reply, queued, rtts []float64) {
	probe := e.tr != nil && on
	replies = make([]reply, len(stream))
	var (
		mu       sync.Mutex
		next     int
		stopped  bool
		stopPoll = make(chan struct{})
		poller   sync.WaitGroup
	)
	pull := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next == len(stream) || (next > 0 && next%blockLen == 0 && time.Now().After(deadline)) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	if probe {
		poller.Add(1)
		go func() {
			defer poller.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					queued = append(queued, float64(srv.sched.Stats().Queued))
				}
			}
		}()
	}
	var rttMu sync.Mutex
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for n := 0; ; n++ {
				i, ok := pull()
				if !ok {
					return
				}
				r := &replies[i]
				r.done = true
				root := e.tr.begin("request", -1, i)
				if probe {
					sp := e.tr.begin("serve.Key", root, i)
					t0 := time.Now()
					_, err := serve.Key(stream[i].job.Config())
					r.keyDur = time.Since(t0)
					e.tr.end(sp)
					if err != nil {
						e.tr.end(root)
						r.res = serve.JobResult{ID: strconv.Itoa(i), Error: err.Error()}
						continue
					}
					if n%blockLen == 0 {
						sp := e.tr.begin("http.GET /healthz", root, i)
						t0 := time.Now()
						if err := srv.healthz(); err == nil {
							rttMu.Lock()
							rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
							rttMu.Unlock()
						}
						e.tr.end(sp)
					}
				}
				res, lat, err := srv.post(e.tr, root, stream[i].job, i)
				e.tr.end(root)
				if err != nil {
					res = serve.JobResult{ID: strconv.Itoa(i), Error: err.Error()}
				}
				r.res, r.lat = res, lat
			}
		}()
	}
	clients.Wait()
	close(stopPoll)
	poller.Wait()
	return replies, queued, rtts
}

// serviceTally accumulates the checked replies of every epoch.
type serviceTally struct {
	sums          map[string]string       // key -> momentum checksum
	first         map[int]serve.JobResult // first epoch's reply by stream index
	byClass       map[string][]float64    // cold-run Mpts/s by class
	lats, hitLats []float64
	coldLats      []float64
	overheads     []float64
	keys          []float64
	onLats        []float64
	offLats       []float64
	jobs, hits    int
}

// add checks one epoch's replies and tallies them; it returns the
// epoch's cache hits and completed jobs.
func (t *serviceTally) add(o *outcome, stream []streamJob, replies []reply, traced bool) (hits, n int) {
	if t.first == nil {
		t.first = map[int]serve.JobResult{}
		for i, r := range replies {
			if r.done {
				t.first[i] = r.res
			}
		}
	}
	colds := map[int]int{}
	for i, r := range replies {
		if !r.done {
			break
		}
		n++
		sj := stream[i]
		err := checkReply(sj, r.res, replies, t.sums)
		if err == nil && !r.res.Cached {
			colds[root(stream, i)]++
		}
		o.op(err)
		if err != nil {
			continue
		}
		l := ms(r.lat)
		t.lats = append(t.lats, l)
		if traced {
			t.onLats = append(t.onLats, l)
		} else {
			t.offLats = append(t.offLats, l)
		}
		if r.keyDur > 0 {
			t.keys = append(t.keys, float64(r.keyDur.Nanoseconds())/1e3)
		}
		if r.res.Cached {
			hits++
			t.hitLats = append(t.hitLats, l)
			continue
		}
		t.coldLats = append(t.coldLats, l)
		t.overheads = append(t.overheads, l-r.res.ElapsedMS)
		if sj.class != "" {
			j := sj.job
			t.byClass[sj.class] = append(t.byClass[sj.class], float64(j.Nx*j.Nr*r.res.Steps)/r.res.ElapsedMS/1e3)
		}
	}
	for r, c := range colds {
		if c != 1 {
			o.op(fmt.Errorf("job %d and its repeats ran cold %d times, want once", r, c))
		}
	}
	t.jobs += n
	t.hits += hits
	return hits, n
}

// root is the stream index of the distinct job that job i is or repeats.
func root(stream []streamJob, i int) int {
	if d := stream[i].dupOf; d >= 0 {
		return d
	}
	return i
}

// checkReply checks one reply against the stream's expectations: it
// succeeded, a repeat carries its original's key, and one key carries
// one checksum (so a cached reply equals the cold run bit for bit).
// Which of a job and its repeats runs cold is up to the two clients'
// timing; add checks that exactly one does.
func checkReply(sj streamJob, r serve.JobResult, replies []reply, sums map[string]string) error {
	if r.Error != "" || !r.OK {
		return errors.New(r.Error)
	}
	if sj.dupOf >= 0 && r.Key != replies[sj.dupOf].res.Key {
		return fmt.Errorf("job %s: key differs from the job it repeats", r.ID)
	}
	if s, ok := sums[r.Key]; ok && s != r.MomentumSHA256 {
		return fmt.Errorf("job %s: two checksums for one key", r.ID)
	}
	sums[r.Key] = r.MomentumSHA256
	return nil
}

// serialJob is the wire form of a solver workload's serial
// configuration (the jet physics differ from the paper's only in the
// Reynolds number and the excitation level).
func serialJob(c core.Config) serve.Job {
	eps := c.Jet.Eps
	return serve.Job{Backend: "serial", Nx: c.Nx, Nr: c.Nr, Steps: c.Steps, Tol: c.StopTol,
		ReduceEvery: c.ReduceEvery, Reynolds: c.Jet.Reynolds, Eps: &eps}
}

// probeServe measures the serve layer on a solver workload's own serial
// job: one cold submission, then repeats served from the cache.
func probeServe(e *env, o *outcome, j serve.Job) {
	srv, _, err := startServer()
	o.op(err)
	if err != nil {
		return
	}
	defer srv.close()
	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	cold, lat, err := srv.post(e.tr, -1, j, 0)
	o.op(err)
	if err != nil {
		return
	}
	runtime.GC()
	runtime.ReadMemStats(&gc1)
	o.layers["serve.cold_ms_p50"] = ms(lat)
	o.layers["serve.cold_overhead_ms_p50"] = ms(lat) - cold.ElapsedMS
	o.layers["serve.cache_mb"] = (float64(gc1.HeapAlloc) - float64(gc0.HeapAlloc)) / (1 << 20)
	var hits, rtts, keys []float64
	for i := 1; i <= 20; i++ {
		r, lat, err := srv.post(e.tr, -1, j, i)
		if err == nil && (!r.Cached || r.MomentumSHA256 != cold.MomentumSHA256) {
			err = fmt.Errorf("repeat %d of the serial job: cached=%v, checksum match=%v", i, r.Cached, r.MomentumSHA256 == cold.MomentumSHA256)
		}
		o.op(err)
		hits = append(hits, ms(lat))
		t0 := time.Now()
		sp := e.tr.begin("http.GET /healthz", -1, i)
		o.op(srv.healthz())
		e.tr.end(sp)
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	cfg := j.Config()
	for i := 0; i < 200; i++ {
		sp := e.tr.begin("serve.Key", -1, i)
		t0 := time.Now()
		_, err := serve.Key(cfg)
		keys = append(keys, float64(time.Since(t0).Nanoseconds())/1e3)
		e.tr.end(sp)
		if err != nil {
			o.op(err)
			break
		}
	}
	st := srv.sched.Stats()
	o.layers["serve.hit_rate"] = st.HitRate
	o.layers["serve.hit_ms_p50"] = median(hits)
	o.layers["serve.req_p50_ms"] = median(append(hits, ms(lat)))
	o.layers["serve.req_p95_ms"] = percentile(append(hits, ms(lat)), 0.95)
	o.layers["serve.key_us"] = median(keys)
	o.layers["serve.queue_depth_mean"] = float64(st.Queued)
	o.layers["serve.cache_entries"] = float64(st.CacheEntries)
	o.layers["http.roundtrip_us"] = median(rtts)
}
