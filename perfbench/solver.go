package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jet"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/study"
)

// solverCase is one configuration a solver workload interleaves.
type solverCase struct {
	class string // serial, shm or mp: the metric it feeds
	cfg   core.Config
}

// solverWorkload is a round-robin of configurations that all solve the
// same seeded problem, so every exact configuration must reproduce the
// serial momentum bit for bit.
type solverWorkload struct {
	phys   jet.Config
	nx, nr int
	cases  []solverCase
	// tolerance marks runs to a residual tolerance: the exact
	// configurations must also stop on the serial run's step.
	tolerance bool
}

// sample is one measured run of one configuration.
type sample struct {
	class   string
	newRun  time.Duration
	wall    time.Duration // NewRun start to Execute return
	res     *core.Result
	nonStep time.Duration // Execute wall minus the backend's stepping time
}

func (s sample) mpts(points int) float64 {
	return float64(points) * float64(s.res.Steps) / s.res.Elapsed.Seconds() / 1e6
}

// paperGrid is the paper's excited Navier-Stokes jet on its 250x100
// grid, 40 steps per sample, interleaving serial, shm (2 workers) and
// mp2d (2 ranks, exact Fresh halos). The working set fits in cache, and
// the slabs are small, so fork-join barriers (shm) and per-stage halo
// exchanges (mp2d) are a large share of each step. The seed sets the
// excitation level, which leaves the cost of a step unchanged.
func paperGrid(e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	phys := jet.Paper()
	phys.Eps *= 0.5 + rng.Float64()
	base := core.Config{Nx: 250, Nr: 100, Steps: 40, Jet: &phys}
	return runSolver(e, solverWorkload{phys: phys, nx: 250, nr: 100, cases: []solverCase{
		{"serial", with(base, func(c *core.Config) { c.Backend = "serial" })},
		{"shm", with(base, func(c *core.Config) { c.Backend, c.Procs = "shm", 2 })},
		{"mp", with(base, func(c *core.Config) { c.Backend, c.Procs, c.FreshHalos = "mp2d", 2, true })},
	}})
}

// toTolerance runs the unexcited Re~500 jet on 128x48 to the converged
// residual tolerance: serial, shm (2 workers) and mp2d (2 ranks, Wide(2)
// halos, which skip every other exchange). The allreduce, the
// convergence controller and the wide-halo cadence do most of the work
// here. The seed perturbs the Reynolds number by up to 4%, which moves
// the stopping step.
//
// Parareal is not measured here: on this problem its coarse propagator
// diverges and every run reports a NaN defect.
func toTolerance(e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	phys := study.ConvergedConfig()
	phys.Reynolds *= 0.96 + 0.08*rng.Float64()
	base := core.Config{Nx: 128, Nr: 48, Steps: 4000, Jet: &phys,
		StopTol: study.ConvergedTol, ReduceEvery: study.ConvergedCadence}
	w := solverWorkload{phys: phys, nx: 128, nr: 48, tolerance: true, cases: []solverCase{
		{"serial", with(base, func(c *core.Config) { c.Backend = "serial" })},
		{"shm", with(base, func(c *core.Config) { c.Backend, c.Procs = "shm", 2 })},
		{"mp", with(base, func(c *core.Config) { c.Backend, c.Procs, c.HaloDepth = "mp2d", 2, 2 })},
	}}
	return runSolver(e, w)
}

func with(c core.Config, f func(*core.Config)) core.Config {
	f(&c)
	return c
}

// runSolver measures a solver workload: one warm-up sample per
// configuration, then round-robin rounds until the budget is spent.
func runSolver(e *env, w solverWorkload) (*outcome, error) {
	o := newOutcome()
	points := w.nx * w.nr
	start := time.Now()
	ref := &reference{}
	var (
		samples              []sample
		roundOn, roundOff    []float64
		gcStart              runtime.MemStats
		job                  int
		measured, minMeasure = 0, 3
	)
	runtime.ReadMemStats(&gcStart)
	for round := 0; ; round++ {
		if round > 1 && measured >= minMeasure && time.Since(start) >= e.budget {
			break
		}
		// The traced run alternates rounds with recording on and off:
		// the difference is the tracing overhead.
		on := round%2 == 0
		e.tr.setOn(on)
		roundStart := time.Now()
		for _, c := range w.cases {
			runtime.GC()
			s, err := runSample(e.tr, c, job)
			job++
			if err == nil {
				err = ref.check(s, w.tolerance)
			}
			o.op(err)
			if err != nil {
				continue
			}
			if round > 0 {
				s.res.Momentum = nil // checked; keep the sample, not its field
				samples = append(samples, s)
			}
		}
		if round > 0 {
			measured++
			if on {
				roundOn = append(roundOn, time.Since(roundStart).Seconds())
			} else {
				roundOff = append(roundOff, time.Since(roundStart).Seconds())
			}
		}
	}
	e.tr.setOn(true)
	var gcEnd runtime.MemStats
	runtime.ReadMemStats(&gcEnd)

	byClass := map[string][]sample{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
	}
	var setups, newRuns, nonSteps []float64
	var jobSeconds float64
	for _, c := range w.cases {
		ss := byClass[c.class]
		if len(ss) == 0 {
			return nil, fmt.Errorf("no successful %s sample", c.class)
		}
		var mp, wall, setup []float64
		for _, s := range ss {
			mp = append(mp, s.mpts(points))
			wall = append(wall, s.wall.Seconds())
			setup = append(setup, (s.newRun + s.nonStep).Seconds())
			newRuns = append(newRuns, ms(s.newRun))
			nonSteps = append(nonSteps, ms(s.nonStep))
		}
		setups = append(setups, median(setup))
		jobSeconds += median(wall)
		o.e2e["mpts_"+c.class] = median(mp)
		o.note("%-8s n=%-3d mpts=%.4g Mpts/s (quartiles %.4g-%.4g) wall=%.4g s steps=%d", c.class, len(ss), median(mp),
			percentile(mp, 0.25), percentile(mp, 0.75), median(wall), ss[0].res.Steps)
		if c.class == "mp" {
			commLayers(o, ss[len(ss)-1].res)
		}
	}
	o.e2e["setup_s"] = stats.Mean(setups)
	o.e2e["jobs_per_s"] = float64(len(w.cases)) / jobSeconds
	o.note("setup_s is the mean over configurations of each one's median; jobs_per_s is configurations per summed median wall")
	o.layers["solver.steps_to_tol"] = 0
	if w.tolerance {
		o.layers["solver.steps_to_tol"] = float64(ref.steps)
	}
	o.layers["backend.parareal.iterations"] = 0

	if e.tr == nil {
		return o, nil
	}
	o.layers["core.newrun_ms"] = median(newRuns)
	o.layers["core.nonstep_ms"] = median(nonSteps)
	o.layers["runtime.gc_cycles"] = float64(gcEnd.NumGC - gcEnd.NumForcedGC - gcStart.NumGC + gcStart.NumForcedGC)
	o.layers["trace.overhead_pct"] = 100 * (median(roundOn)/median(roundOff) - 1)
	probe := probeSpec{phys: w.phys, nx: w.nx, nr: w.nr, mp: w.cases[2].cfg}
	probeLayers(e, probe, o)
	probeServe(e, o, serialJob(w.cases[0].cfg))
	return o, nil
}

// runSample runs one configuration through core and times it.
func runSample(tr *tracer, c solverCase, job int) (sample, error) {
	root := tr.begin("sample/"+c.class, -1, job)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("core.NewRun", root, job)
	run, err := core.NewRun(c.cfg)
	tr.end(sp)
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", c.class, err)
	}
	t1 := time.Now()
	sp = tr.begin("core.Run.Execute", root, job)
	res, err := run.Execute()
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", c.class, err)
	}
	return sample{class: c.class, newRun: t1.Sub(t0), wall: t2.Sub(t0), res: res,
		nonStep: t2.Sub(t1) - res.Elapsed}, nil
}

// reference holds the first serial sample's outputs, which every later
// sample of the workload is checked against.
type reference struct {
	checksum string
	steps    int
}

func (r *reference) check(s sample, tolerance bool) error {
	if s.res.Diag.HasNaN {
		return fmt.Errorf("%s: NaN in the solution", s.class)
	}
	sum := serve.MomentumChecksum(s.res.Momentum)
	if r.checksum == "" {
		if s.class != "serial" {
			return fmt.Errorf("%s sampled before the serial reference", s.class)
		}
		r.checksum, r.steps = sum, s.res.Steps
		if tolerance && !s.res.Converged {
			return fmt.Errorf("serial run did not reach the tolerance in %d steps", s.res.Steps)
		}
		return nil
	}
	if sum != r.checksum {
		return fmt.Errorf("%s momentum differs from the serial run", s.class)
	}
	if tolerance && s.res.Steps != r.steps {
		return fmt.Errorf("%s stopped at step %d, serial at %d", s.class, s.res.Steps, r.steps)
	}
	return nil
}

// commLayers reads the message and rank counters of one mp run.
func commLayers(o *outcome, r *core.Result) {
	steps := float64(r.Steps)
	o.layers["msg.startups_per_step"] = float64(r.Comm.Startups) / steps
	o.layers["msg.kb_per_step"] = float64(r.Comm.Bytes) / 1024 / steps
	// Saved startups are booked per exchange class only; the aggregate
	// Comm of a 2-D rank grid does not carry them.
	o.layers["msg.saved_startups_per_step"] = float64(r.CommDir.Total().SavedStartups) / steps
	o.layers["msg.reduce_startups_per_step"] = float64(r.CommDir.Reduce.Startups) / steps
	var busy []float64
	var wait, total, flops, redundant float64
	for _, rk := range r.PerRank {
		busy = append(busy, rk.Busy.Seconds())
		wait += rk.Wait.Seconds()
		total += rk.Total.Seconds()
		flops += rk.Flops
		redundant += rk.RedundantFlops
	}
	o.layers["par.wait_frac"] = wait / total
	o.layers["par.busy_spread"] = (stats.Max(busy) - stats.Min(busy)) / stats.Mean(busy)
	o.layers["par.redundant_flops_frac"] = redundant / flops
}
