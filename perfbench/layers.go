package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/scheme"
	"repro/internal/shm"
	"repro/internal/solver"
)

// probeSpec is the problem the traced run probes layer by layer: the
// workload's own physics and grid, and its message-passing
// configuration.
type probeSpec struct {
	phys   jet.Config
	nx, nr int
	mp     core.Config
}

// probeLayers measures the backend, kernel, shm and runtime layers on
// the workload's own problem, timing calls into each layer's public
// functions.
func probeLayers(e *env, p probeSpec, o *outcome) {
	run, err := core.NewRun(core.Config{Nx: p.nx, Nr: p.nr, Steps: 1, Jet: &p.phys})
	o.op(err)
	if err != nil {
		return
	}
	g := run.Grid()
	run.Close()
	points := float64(p.nx * p.nr)
	// Steps per probe: about 2e6 point-steps, at least 2.
	steps := max(2, int(2e6/points)&^1)

	policy := solver.Fresh
	if p.mp.HaloDepth > 1 {
		policy = solver.Wide(p.mp.HaloDepth)
	}
	configs := []struct {
		name string
		opts backend.Options
	}{
		{"serial", backend.Options{}},
		{"shm", backend.Options{Procs: 2}},
		{p.mp.Backend, backend.Options{Procs: p.mp.Procs, Policy: policy}},
	}
	stepSec := map[string]float64{}
	var allocs, allocKB float64
	for i, c := range configs {
		r, err := probePropagator(e.tr, c.name, c.opts, p.phys, g, steps)
		o.op(err)
		if err != nil {
			return
		}
		stepSec[configs[i].name] = r.stepSec
		allocs += r.allocsPerStep / float64(len(configs))
		allocKB += r.allocKBPerStep / float64(len(configs))
		if i == 0 {
			o.layers["backend.construct_mb"] = r.constructMB
		}
	}
	serialStep := stepSec["serial"]
	o.layers["runtime.allocs_per_step"] = allocs
	o.layers["runtime.alloc_kb_per_step"] = allocKB
	o.layers["par.speedup"] = serialStep / stepSec[p.mp.Backend]

	flops := 0.0
	for _, f := range solver.ColCostFlops(p.phys, g) {
		flops += f
	}
	o.layers["kernel.flops_pt"] = flops / points
	o.layers["kernel.bytes_pt"] = kernelBytesPerPoint()
	o.layers["kernel.gflops"] = flops / serialStep / 1e9
	o.op(probeKernels(e.tr, p.phys, g, o))
	o.op(probeShm(e.tr, p.phys, g, steps, serialStep, o))
}

type propagatorProbe struct {
	constructMB, stepSec, allocsPerStep, allocKBPerStep float64
}

// probePropagator builds a backend's propagator, advances it, and reads
// the heap and allocation deltas around construction and stepping.
func probePropagator(tr *tracer, name string, opts backend.Options, phys jet.Config, g *grid.Grid, steps int) (propagatorProbe, error) {
	var r propagatorProbe
	b, err := backend.Get(name)
	if err != nil {
		return r, err
	}
	root := tr.begin("probe/backend."+name, -1, -1)
	defer tr.end(root)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sp := tr.begin("backend.NewPropagator", root, -1)
	p, err := backend.NewPropagator(b, phys, g, opts)
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("propagator %s: %w", name, err)
	}
	defer p.Close()
	runtime.ReadMemStats(&m1)
	r.constructMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	sp = tr.begin("backend.Propagator.Advance", root, -1)
	p.Advance(2) // warm-up: first-touch of every page and lazily built tables
	tr.end(sp)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t0 := time.Now()
	sp = tr.begin("backend.Propagator.Advance", root, -1)
	p.Advance(steps)
	tr.end(sp)
	r.stepSec = time.Since(t0).Seconds() / float64(steps)
	runtime.ReadMemStats(&m2)
	r.allocsPerStep = float64(m2.Mallocs-m1.Mallocs) / float64(steps)
	r.allocKBPerStep = float64(m2.TotalAlloc-m1.TotalAlloc) / 1024 / float64(steps)
	state := flux.NewState(g.Nx, g.Nr)
	sp = tr.begin("backend.Propagator.State", root, -1)
	p.State(state)
	tr.end(sp)
	if hasNaN(state) {
		return r, fmt.Errorf("propagator %s: NaN in the state", name)
	}
	return r, nil
}

func hasNaN(s *flux.State) bool {
	for _, f := range s {
		for i := 0; i < f.Nx; i++ {
			for _, v := range f.Col(i) {
				if math.IsNaN(v) {
					return true
				}
			}
		}
	}
	return false
}

// fusedKernel is one exported fused kernel with the array arguments it
// reads and writes: states are flux.State bundles of flux.NVar fields,
// fields single scalar fields.
type fusedKernel struct {
	metric         string
	states, fields int
	call           func(s *solver.Slab, v scheme.Variant)
}

// fusedKernels mirrors one composite step's kernel calls in solver.Slab:
// each stress-flux kernel runs twice (current and predicted state).
var fusedKernels = []fusedKernel{
	{"flux.stress_flux_x", 3, 0, func(s *solver.Slab, v scheme.Variant) { // q, w -> f
		flux.StressFluxX(s.Gas, s.Grid.Dx, s.Grid.Dr, s.R, s.Q, s.W, s.F, 0, s.NxLoc, 0, s.NrLoc, s.Cfg.Viscous)
	}},
	{"scheme.predict_x", 4, 0, func(s *solver.Slab, v scheme.Variant) { // q, f -> qp, wp
		scheme.PredictXPrims(v, s.Dt/(6*s.Grid.Dx), s.Gas, s.Q, s.F, s.QP, s.WP, 0, s.NxLoc)
	}},
	{"scheme.correct_x", 5, 0, func(s *solver.Slab, v scheme.Variant) { // q, qp, fp -> qn, w
		scheme.CorrectXPrims(v, s.Dt/(6*s.Grid.Dx), s.Gas, s.Q, s.QP, s.FP, s.QN, s.W, 0, s.NxLoc, 1, s.NxLoc-1)
	}},
	{"flux.stress_flux_r", 3, 1, func(s *solver.Slab, v scheme.Variant) { // q, w -> f, src
		flux.StressFluxRSource(s.Gas, s.Grid.Dx, s.Grid.Dr, s.R, s.Q, s.W, s.F, s.Src, 0, s.NxLoc, 0, s.NrLoc, s.Cfg.Viscous)
	}},
	{"scheme.predict_r", 4, 1, func(s *solver.Slab, v scheme.Variant) { // q, f, src -> qp, wp
		scheme.PredictRPrims(v, s.Dt/(6*s.Grid.Dr), s.Dt, s.Gas, s.RInv, s.Q, s.F, s.QP, s.WP, s.Src, 0, s.NxLoc)
	}},
	{"scheme.correct_r", 5, 1, func(s *solver.Slab, v scheme.Variant) { // q, qp, fp, srcp -> qn, w
		scheme.CorrectRRowsPrims(v, s.Dt/(6*s.Grid.Dr), s.Dt, s.Gas, s.RInv, s.Q, s.QP, s.FP, s.QN, s.W, s.SrcP, 0, s.NxLoc, 0, s.NrLoc, 1, s.NrLoc-1)
	}},
}

// kernelBytesPerPoint is the computed (not measured) traffic of one
// composite step: every float64 array argument of every fused kernel
// call, read or written once per point.
func kernelBytesPerPoint() float64 {
	var arrays int
	for _, k := range fusedKernels {
		n := k.states*flux.NVar + k.fields
		if k.metric == "flux.stress_flux_x" || k.metric == "flux.stress_flux_r" {
			n *= 2
		}
		arrays += n
	}
	return float64(arrays * 8)
}

// probeKernels times each exported fused kernel over the whole grid on
// the state of a serial slab advanced a few steps from the workload's
// initial condition.
func probeKernels(tr *tracer, phys jet.Config, g *grid.Grid, o *outcome) error {
	runtime.GC()
	ser, err := solver.NewSerial(phys, g)
	if err != nil {
		return err
	}
	s := ser.Slab
	s.Advance()
	s.Advance()
	points := float64(g.Nx * g.Nr)
	reps := max(3, int(4e6/points))
	root := tr.begin("probe/kernels", -1, -1)
	defer tr.end(root)
	for _, k := range fusedKernels {
		ns := make([]float64, reps)
		for r := range ns {
			sp := tr.begin(k.metric, root, r)
			t0 := time.Now()
			k.call(s, scheme.L1)
			ns[r] = float64(time.Since(t0).Nanoseconds()) / points
			tr.end(sp)
		}
		o.layers[k.metric+".ns_pt"] = median(ns)
	}
	if hasNaN(s.Q) {
		return fmt.Errorf("kernel probe: NaN in the state")
	}
	return nil
}

// countingPool wraps an shm pool as a solver.ParallelFor, counting and
// timing the fork-join splits the slab makes through its Pool hook.
type countingPool struct {
	pool   *shm.Pool
	tr     *tracer
	parent int
	splits int
	inside time.Duration
}

func (c *countingPool) Split(lo, hi int, fn func(lo, hi int)) {
	sp := c.tr.begin("shm.Pool.Split", c.parent, c.splits)
	t0 := time.Now()
	c.pool.Split(lo, hi, fn)
	c.inside += time.Since(t0)
	c.tr.end(sp)
	c.splits++
}

// probeShm counts the fork-join splits per step of a two-worker slab,
// the share of step time spent outside them, and the cost of an
// empty-body split.
func probeShm(tr *tracer, phys jet.Config, g *grid.Grid, steps int, serialStep float64, o *outcome) error {
	runtime.GC()
	ser, err := solver.NewSerial(phys, g)
	if err != nil {
		return err
	}
	pool := shm.NewPool(2)
	defer pool.Close()
	root := tr.begin("probe/shm", -1, -1)
	defer tr.end(root)
	cp := &countingPool{pool: pool, tr: tr, parent: root}
	ser.Pool = cp
	ser.Advance()
	ser.Advance()
	cp.splits, cp.inside = 0, 0
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		ser.Advance()
	}
	total := time.Since(t0)
	o.layers["shm.splits_per_step"] = float64(cp.splits) / float64(steps)
	o.layers["shm.serial_frac"] = 1 - cp.inside.Seconds()/total.Seconds()
	o.layers["shm.speedup"] = serialStep / (total.Seconds() / float64(steps))

	empty := make([]float64, 2000)
	nop := func(lo, hi int) {}
	for i := range empty {
		t := time.Now()
		pool.Split(0, 2, nop)
		empty[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	o.layers["shm.split_us"] = median(empty)
	if ser.Diagnose().HasNaN {
		return fmt.Errorf("shm probe: NaN in the state")
	}
	return nil
}
