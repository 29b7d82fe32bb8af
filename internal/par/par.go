// Package par is the distributed-memory parallelization of the paper's
// Section 5: the domain is decomposed in axial blocks, each rank runs
// the slab engine of internal/solver in its own goroutine, and halo
// exchanges travel through the PVM-like message layer of internal/msg.
//
// The three communication strategies the paper evaluates are all
// implemented:
//
//	Version 5: grouped two-column messages, no overlap (the baseline
//	           the paper settled on).
//	Version 6: interior computation overlapped with halo messages, in
//	           both sweeps; on the 2-D rank grid (Runner2D) the row
//	           exchanges overlap the same way (see DESIGN.md §5b).
//	Version 7: flux columns sent one at a time to reduce burstiness,
//	           at the cost of twice the startups (axial-only: the 2-D
//	           runner rejects it).
package par

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/msg"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Version selects the paper's communication strategy.
type Version int

const (
	V5 Version = 5
	V6 Version = 6
	V7 Version = 7
)

func (v Version) String() string { return fmt.Sprintf("Version %d", int(v)) }

// Options configures a parallel run.
type Options struct {
	Procs   int
	Version Version
	Policy  solver.HaloPolicy
	CFL     float64 // 0 means solver.DefaultCFL
	// ColWeights is an optional per-column cost profile (len Grid.Nx):
	// the decomposition minimizes the maximum block cost instead of
	// balancing point counts (decomp.WeightedAxial). nil keeps the
	// uniform split. Weighting changes which columns a rank owns, never
	// the arithmetic — under the Fresh policy every profile reproduces
	// the serial fields bitwise.
	ColWeights []float64
	// Prob is the scenario problem every slab runs (nil = built-in jet).
	Prob *solver.Problem
	// ReduceGroup, when > 1, makes the convergence controller's
	// allreduce hierarchical: ranks are grouped into contiguous
	// shared-memory nodes of this size, each node combines through a
	// combiner (no messages), and only node leaders run the cross-node
	// recursive-doubling plan. 0 or 1 keeps the flat plan. Either way
	// every rank finishes with the bitwise-identical result.
	ReduceGroup int
}

// CheckWideFit validates that a Wide(depth) policy's redundant shell
// fits a decomposition axis: with interior neighbours present (two or
// more blocks along the axis), every block must span at least ext+2
// points — ext for the neighbour's shell it hosts, plus the 2-point
// per-stage exchange window beyond it. Returns an actionable error
// naming the deepest feasible policy otherwise. The same check guards
// runner construction and backend validation.
func CheckWideFit(viscous bool, depth int, spans []int, axis string) error {
	ext := trace.WideExtension(viscous, depth)
	if ext == 0 || len(spans) < 2 {
		return nil
	}
	min := spans[0]
	for _, w := range spans[1:] {
		if w < min {
			min = w
		}
	}
	if min >= ext+2 {
		return nil
	}
	maxDepth := (min-2)/trace.WideSpeed(viscous) + 1
	if maxDepth < 1 {
		maxDepth = 1
	}
	return fmt.Errorf("par: halo depth %d needs a %d-point redundant shell plus the 2-point exchange window on each interior %s side, but the narrowest rank owns only %d %ss; the deepest feasible policy for this decomposition is Wide(%d)",
		depth, ext, axis, min, axis, maxDepth)
}

// RankStats reports one rank's measured execution profile.
type RankStats struct {
	Rank  int
	Busy  time.Duration // wall time minus receive-wait time
	Wait  time.Duration // time blocked in receives (non-overlapped comm)
	Total time.Duration
	Comm  trace.Counters
	// Dir splits Comm by exchange direction (Radial is zero for the
	// axial-only decomposition).
	Dir   trace.DirCounters
	Flops float64
	// RedundantFlops is the share of Flops spent advancing a Wide
	// policy's redundant ghost shell (zero under Fresh/Lagged).
	RedundantFlops float64
}

// Result summarizes a parallel run.
type Result struct {
	// Steps is the number of composite steps actually run (fewer than
	// requested when convergence control stopped early).
	Steps   int
	Procs   int
	Dt      float64
	Elapsed time.Duration
	Ranks   []RankStats
	Diag    solver.Diagnostics
	// Converged and Residuals report the convergence controller of
	// RunControlled (empty for a plain fixed-step Run).
	Converged bool
	Residuals []solver.ResidualPoint
}

// TotalComm aggregates the per-rank communication counters.
func (r *Result) TotalComm() trace.Counters {
	var t trace.Counters
	for _, rs := range r.Ranks {
		t.Merge(rs.Comm)
	}
	return t
}

// TotalDir aggregates the per-rank per-direction message counters.
func (r *Result) TotalDir() trace.DirCounters {
	var t trace.DirCounters
	for _, rs := range r.Ranks {
		t.Merge(rs.Dir)
	}
	return t
}

// TotalFlops aggregates the per-rank FLOP counts.
func (r *Result) TotalFlops() float64 {
	f := 0.0
	for _, rs := range r.Ranks {
		f += rs.Flops
	}
	return f
}

// Runner owns the slabs and the message world of one parallel solver.
type Runner struct {
	Cfg   jet.Config
	Grid  *grid.Grid
	Opt   Options
	Dec   *decomp.Decomposition
	World *msg.World
	Slabs []*solver.Slab
	comms []*msg.Comm
	halos []*rankHalo
	reds  []*reducer
}

// NewRunner decomposes the grid, builds one slab per rank, and computes
// the global CFL time step.
func NewRunner(cfg jet.Config, g *grid.Grid, opt Options) (*Runner, error) {
	if opt.Procs < 1 {
		return nil, fmt.Errorf("par: need at least one rank, got %d", opt.Procs)
	}
	switch opt.Version {
	case 0:
		opt.Version = V5
	case V5, V6, V7:
	default:
		return nil, fmt.Errorf("par: unknown communication version %d", int(opt.Version))
	}
	if opt.CFL == 0 {
		opt.CFL = solver.DefaultCFL
	}
	d, err := decomp.WeightedAxial(g.Nx, opt.Procs, opt.ColWeights)
	if err != nil {
		return nil, err
	}
	ext := trace.WideExtension(cfg.Viscous, opt.Policy.Depth())
	if opt.Procs == 1 {
		ext = 0 // no interior sides: Wide degenerates to Fresh
	}
	if ext > 0 {
		widths := make([]int, opt.Procs)
		for rank := range widths {
			_, widths[rank] = d.Range(rank)
		}
		if err := CheckWideFit(cfg.Viscous, opt.Policy.Depth(), widths, "column"); err != nil {
			return nil, err
		}
	}
	group, combs, err := buildCombiners(opt.ReduceGroup, opt.Procs)
	if err != nil {
		return nil, err
	}
	gm := cfg.Gas()
	world := msg.NewWorld(opt.Procs)
	r := &Runner{Cfg: cfg, Grid: g, Opt: opt, Dec: d, World: world}
	dt := math.Inf(1)
	for rank := 0; rank < opt.Procs; rank++ {
		i0, n := d.Range(rank)
		extL, extR := 0, 0
		if rank > 0 {
			extL = ext
		}
		if rank < opt.Procs-1 {
			extR = ext
		}
		comm := world.Comm(rank)
		h := newRankHalo(comm, rank, opt.Procs, n+extL+extR, g.Nr, opt.Version, ext, opt.Prob.Walls())
		sl, err := solver.NewSlabProblem(cfg, opt.Prob, g, gm, i0-extL, n+extL+extR, 0, g.Nr, h, opt.Policy)
		if err != nil {
			return nil, err
		}
		sl.ExtL, sl.ExtR = extL, extR
		sl.Overlap = opt.Version == V6
		sl.InitParallelFlow()
		if local := sl.StableDt(opt.CFL); local < dt {
			dt = local
		}
		r.Slabs = append(r.Slabs, sl)
		r.comms = append(r.comms, comm)
		r.halos = append(r.halos, h)
		r.reds = append(r.reds, newReducer(comm, group, combs, rank))
	}
	for _, sl := range r.Slabs {
		sl.Dt = dt
	}
	return r, nil
}

// Run advances all ranks by n composite steps concurrently and returns
// the measured profile.
func (r *Runner) Run(n int) *Result {
	return r.RunControlled(n, solver.Control{})
}

// RunControlled is Run under residual-driven convergence control: each
// rank executes the solver's controlled step loop with this runner's
// allreduce as the global reduction, so every rank sees the identical
// residual and refreshed dt and all ranks stop on the same step. A
// zero Control reproduces the plain fixed-step Run exactly.
func (r *Runner) RunControlled(n int, ctl solver.Control) *Result {
	if ctl.CFL == 0 {
		ctl.CFL = r.Opt.CFL
	}
	var wg sync.WaitGroup
	totals := make([]time.Duration, len(r.Slabs))
	runs := make([]solver.ConvergedRun, len(r.Slabs))
	start := time.Now()
	for i, sl := range r.Slabs {
		wg.Add(1)
		go func(i int, sl *solver.Slab) {
			defer wg.Done()
			t0 := time.Now()
			runs[i] = sl.RunControlled(n, ctl, r.reds[i])
			totals[i] = time.Since(t0)
		}(i, sl)
	}
	wg.Wait()
	res := &Result{
		Steps:     runs[0].Steps,
		Procs:     r.Opt.Procs,
		Dt:        r.Slabs[0].Dt,
		Elapsed:   time.Since(start),
		Converged: runs[0].Converged,
		Residuals: runs[0].Residuals,
	}
	res.Diag = r.Diagnose()
	for i, sl := range r.Slabs {
		c := r.comms[i]
		dir := r.halos[i].dir
		dir.Reduce = r.reds[i].T
		res.Ranks = append(res.Ranks, RankStats{
			Rank:           i,
			Busy:           totals[i] - c.WaitTime,
			Wait:           c.WaitTime,
			Total:          totals[i],
			Comm:           c.Counters,
			Dir:            dir,
			Flops:          sl.T.Flops,
			RedundantFlops: sl.T.RedundantFlops,
		})
	}
	return res
}

// SeedState loads a full-grid conservative state into every slab —
// whole rectangle, redundant Wide shell included — and positions every
// clock at composite step `step` (time = step*dt), so the next advance
// behaves exactly as it would mid-way through a continuous run. The
// Parareal coordinator uses this to make the runner a restartable fine
// propagator.
func (r *Runner) SeedState(full *flux.State, step int) {
	for _, sl := range r.Slabs {
		sl.LoadState(full)
		sl.SetClock(step, float64(step)*sl.Dt, sl.Dt)
	}
}

// AdvanceSteps runs n composite steps concurrently at the fixed dt with
// no monitoring — the light-weight step loop of a Parareal fine
// propagation, callable repeatedly between SeedState/StoreState.
func (r *Runner) AdvanceSteps(n int) {
	var wg sync.WaitGroup
	for _, sl := range r.Slabs {
		wg.Add(1)
		go func(sl *solver.Slab) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sl.Advance()
			}
		}(sl)
	}
	wg.Wait()
}

// StoreState gathers every slab's owned core into a full-grid
// conservative state, tiling the domain exactly (the in-place
// counterpart of GatherState).
func (r *Runner) StoreState(full *flux.State) {
	for _, sl := range r.Slabs {
		sl.StoreState(full)
	}
}

// Diagnose aggregates the per-slab diagnostics.
func (r *Runner) Diagnose() solver.Diagnostics {
	var d solver.Diagnostics
	d.MinRho, d.MinP = math.Inf(1), math.Inf(1)
	for _, sl := range r.Slabs {
		sd := sl.Diagnose()
		d.Mass += sd.Mass
		d.Energy += sd.Energy
		d.OwnPoints += sd.OwnPoints
		if sd.MaxV > d.MaxV {
			d.MaxV = sd.MaxV
		}
		if sd.MinRho < d.MinRho {
			d.MinRho = sd.MinRho
		}
		if sd.MinP < d.MinP {
			d.MinP = sd.MinP
		}
		d.HasNaN = d.HasNaN || sd.HasNaN
	}
	return d
}

// GatherState assembles the full-domain conservative state from the
// slabs (core values only — a Wide policy's redundant shell is the
// neighbour's data), for comparison against the serial solver.
func (r *Runner) GatherState() *flux.State {
	full := flux.NewState(r.Grid.Nx, r.Grid.Nr)
	for rank, sl := range r.Slabs {
		i0, n := r.Dec.Range(rank)
		for k := 0; k < flux.NVar; k++ {
			for c := 0; c < n; c++ {
				copy(full[k].Col(i0+c), sl.Q[k].Col(sl.ExtL+c))
			}
		}
	}
	return full
}
