package decomp

import (
	"math"
	"testing"
)

// checkWeighted asserts the invariants every accepted weighted split
// must satisfy: monotone contiguous starts, full coverage, no overlap,
// minimum block width, and Owner/Range agreement. Unlike the uniform
// checkDecomposition it does not bound the width spread — trading
// width balance for cost balance is the point.
func checkWeighted(t *testing.T, d *Decomposition, n, p, min int) {
	t.Helper()
	pos := 0
	for r := 0; r < p; r++ {
		i0, w := d.Range(r)
		if i0 != pos {
			t.Fatalf("rank %d starts at %d, want %d (gap or overlap)", r, i0, pos)
		}
		if w < min {
			t.Fatalf("rank %d block length %d below minimum %d", r, w, min)
		}
		if d.Owner(i0) != r || d.Owner(i0+w-1) != r {
			t.Fatalf("rank %d: Owner disagrees with Range", r)
		}
		pos += w
	}
	if pos != n {
		t.Fatalf("blocks cover %d indices, want %d", pos, n)
	}
}

// maxBlockCost evaluates a partition's maximum block cost through the
// same prefix sums the optimizer uses, so comparisons against its
// guarantee are exact (direct per-block summation can differ in the
// last ulp).
func maxBlockCost(d *Decomposition, weights []float64) float64 {
	pre := make([]float64, len(weights)+1)
	for i, w := range weights {
		pre[i+1] = pre[i] + w
	}
	mx := 0.0
	for r := 0; r < d.P; r++ {
		i0, w := d.Range(r)
		if c := pre[i0+w] - pre[i0]; c > mx {
			mx = c
		}
	}
	return mx
}

// ramp builds a linearly increasing profile from 1 to ratio.
func ramp(n int, ratio float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + (ratio-1)*float64(i)/float64(n-1)
	}
	return w
}

func TestWeightedAxialRamp(t *testing.T) {
	const n, p = 64, 4
	w := ramp(n, 8)
	d, err := WeightedAxial(n, p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkWeighted(t, d, n, p, MinWidth)
	u, err := Axial(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, uni := maxBlockCost(d, w), maxBlockCost(u, w); got > uni {
		t.Errorf("weighted max cost %g exceeds uniform %g", got, uni)
	}
	widths := d.Widths()
	if widths[0] <= widths[p-1] {
		t.Errorf("increasing profile should give the cheap end wider blocks: widths %v", widths)
	}
	if d.CostImbalance(w) >= u.CostImbalance(w) {
		t.Errorf("weighted cost imbalance %g not below uniform %g", d.CostImbalance(w), u.CostImbalance(w))
	}
	// The point metric and the cost metric must stay distinct: the
	// weighted split trades one for the other.
	if d.Imbalance() <= u.Imbalance() {
		t.Errorf("weighted split should be less point-balanced than uniform: %g vs %g", d.Imbalance(), u.Imbalance())
	}
}

// TestWeightedAxialBeatsGreedy pins the case where maximal greedy
// extension fails: overextending the first block forces a later
// minimum-width block to straddle two heavy runs. The dynamic program
// must find the partition with maximum cost 10.
func TestWeightedAxialBeatsGreedy(t *testing.T) {
	w := []float64{0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 0, 0, 0, 0}
	d, err := WeightedAxial(len(w), 3, w)
	if err != nil {
		t.Fatal(err)
	}
	checkWeighted(t, d, len(w), 3, MinWidth)
	if mx := maxBlockCost(d, w); mx > 10 {
		t.Errorf("max block cost %g, want <= 10 (e.g. blocks [0,4) [4,8) [8,14))", mx)
	}
}

// TestWeightedAxialProbeRounding splits a two-rank probe profile (the
// shape par.MeasuredColWeights builds: each probe rank's busy time
// spread over its 16 columns) on which prefix-sum rounding once left
// every block empty.
func TestWeightedAxialProbeRounding(t *testing.T) {
	w := make([]float64, 32)
	for i := range w {
		busy := 0.001374
		if i >= 16 {
			busy = 0.001547
		}
		w[i] = busy / 16
	}
	d, err := WeightedAxial(len(w), 3, w)
	if err != nil {
		t.Fatal(err)
	}
	checkWeighted(t, d, len(w), 3, MinWidth)
}

func TestWeightedUniformReproducesSplit(t *testing.T) {
	for _, c := range []struct{ n, p int }{{250, 16}, {17, 4}, {64, 15}, {16, 4}} {
		u, err := Axial(c.n, c.p)
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, c.n)
		for i := range flat {
			flat[i] = 2.5
		}
		for _, weights := range [][]float64{nil, flat} {
			d, err := WeightedAxial(c.n, c.p, weights)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < c.p; r++ {
				ui, uw := u.Range(r)
				di, dw := d.Range(r)
				if ui != di || uw != dw {
					t.Fatalf("n=%d p=%d rank %d: weighted (%d,%d) != uniform (%d,%d)", c.n, c.p, r, di, dw, ui, uw)
				}
			}
		}
	}
}

func TestWeightedAxialRejects(t *testing.T) {
	cases := []struct {
		name string
		n, p int
		w    []float64
	}{
		{"short-profile", 16, 2, []float64{1, 2}},
		{"negative", 16, 2, append(make([]float64, 15), -1)},
		{"nan", 16, 2, append(make([]float64, 15), math.NaN())},
		{"inf", 16, 2, append(make([]float64, 15), math.Inf(1))},
		{"too-many-ranks", 16, 5, make([]float64, 16)},
		{"no-ranks", 16, 0, make([]float64, 16)},
	}
	for _, c := range cases {
		if _, err := WeightedAxial(c.n, c.p, c.w); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	huge := make([]float64, 16)
	for i := range huge {
		huge[i] = math.MaxFloat64
	}
	huge[0] = 1 // non-uniform, so the sum is actually taken
	if _, err := WeightedAxial(16, 2, huge); err == nil {
		t.Error("overflowing profile accepted")
	}
}

func TestWeightedGrid2DSkewed(t *testing.T) {
	const nx, nr, px, pr = 64, 32, 4, 2
	cw, rw := ramp(nx, 6), ramp(nr, 3)
	d, err := WeightedGrid2D(nx, nr, px, pr, cw, rw)
	if err != nil {
		t.Fatal(err)
	}
	checkWeighted(t, d.X, nx, px, MinWidth)
	checkWeighted(t, d.R, nr, pr, MinHeight)
	u, err := NewGrid2D(nx, nr, px, pr)
	if err != nil {
		t.Fatal(err)
	}
	if dc, uc := d.CostImbalance(cw, rw), u.CostImbalance(cw, rw); dc >= uc {
		t.Errorf("weighted grid cost imbalance %g not below uniform %g", dc, uc)
	}
	area := 0
	for r := 0; r < d.Ranks(); r++ {
		_, w, _, h := d.Block(r)
		area += w * h
	}
	if area != nx*nr {
		t.Fatalf("blocks cover %d points, want %d", area, nx*nr)
	}
}

func TestCostImbalanceUniformMatchesImbalance(t *testing.T) {
	d, err := Axial(250, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.CostImbalance(nil), d.Imbalance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CostImbalance(nil) = %g, Imbalance = %g", got, want)
	}
	g, err := NewGrid2D(64, 32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.CostImbalance(nil, nil), g.Imbalance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("grid CostImbalance(nil,nil) = %g, Imbalance = %g", got, want)
	}
}

// fuzzWeights derives a nonnegative profile from fuzz bytes; empty data
// yields nil (the delegation path).
func fuzzWeights(n int, data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(data[i%len(data)])
	}
	return w
}

// FuzzWeightedAxial fuzzes the weighted 1-D splits of both directions:
// any accepted (n, p, profile) must produce contiguous nonempty blocks
// covering [0,n) above the minimum width, a degenerate (nil or uniform)
// profile must reproduce today's split exactly, and the weighted
// maximum block cost must never exceed the uniform split's.
func FuzzWeightedAxial(f *testing.F) {
	f.Add(250, 16, []byte{1, 9, 1, 9, 200})
	f.Add(64, 4, []byte{0, 0, 0, 0, 0, 0, 255})
	f.Add(17, 4, []byte{7})                                        // uniform: must delegate
	f.Add(16, 4, []byte{})                                         // nil profile
	f.Add(14, 3, []byte{0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 0, 0, 0, 0}) // greedy trap
	f.Add(0, 0, []byte{1})
	f.Add(-3, 2, []byte{1, 2})
	f.Fuzz(func(t *testing.T, n, p int, data []byte) {
		if n > 1024 || p > 128 || len(data) > 1024 {
			t.Skip("bounded: the feasibility DP is O(n*p) per probe")
		}
		for _, dir := range []struct {
			min   int
			build func(int, int, []float64) (*Decomposition, error)
		}{{MinWidth, WeightedAxial}, {MinHeight, WeightedRadial}} {
			var w []float64
			if n >= 0 {
				w = fuzzWeights(n, data)
			}
			d, err := dir.build(n, p, w)
			u, uerr := split(n, p, dir.min, "indices")
			if err != nil {
				if w != nil && uerr == nil {
					t.Fatalf("(%d,%d) rejected with a valid profile but accepted uniform: %v", n, p, err)
				}
				continue
			}
			if uerr != nil {
				t.Fatalf("(%d,%d) accepted weighted but rejected uniform: %v", n, p, uerr)
			}
			checkWeighted(t, d, n, p, dir.min)
			if w == nil || uniformWeights(w) {
				for r := 0; r < p; r++ {
					ui, uw := u.Range(r)
					di, dw := d.Range(r)
					if ui != di || uw != dw {
						t.Fatalf("degenerate profile: rank %d (%d,%d) != split (%d,%d)", r, di, dw, ui, uw)
					}
				}
				continue
			}
			if got, uni := maxBlockCost(d, w), maxBlockCost(u, w); got > uni {
				t.Fatalf("weighted max cost %g exceeds uniform %g", got, uni)
			}
		}
	})
}

// FuzzWeightedGrid2D fuzzes the weighted rank grid: both directions'
// splits must satisfy the 1-D invariants, the blocks must tile the
// domain exactly, and each direction must balance at least as well as
// its uniform split.
func FuzzWeightedGrid2D(f *testing.F) {
	f.Add(250, 100, 4, 2, []byte{3, 1, 4, 1, 5, 9})
	f.Add(64, 26, 3, 3, []byte{0, 255})
	f.Add(16, 16, 4, 4, []byte{8}) // uniform both ways
	f.Add(64, 32, 2, 2, []byte{})
	f.Add(0, 0, 0, 0, []byte{1})
	f.Fuzz(func(t *testing.T, nx, nr, px, pr int, data []byte) {
		if nx > 512 || nr > 512 || px > 64 || pr > 64 || len(data) > 1024 {
			t.Skip("bounded")
		}
		var cw, rw []float64
		if nx >= 0 {
			cw = fuzzWeights(nx, data)
		}
		if nr >= 0 {
			rev := make([]byte, len(data))
			for i, b := range data {
				rev[len(data)-1-i] = b
			}
			rw = fuzzWeights(nr, rev)
		}
		d, err := WeightedGrid2D(nx, nr, px, pr, cw, rw)
		if err != nil {
			return
		}
		checkWeighted(t, d.X, nx, px, MinWidth)
		checkWeighted(t, d.R, nr, pr, MinHeight)
		area := 0
		for r := 0; r < d.Ranks(); r++ {
			_, w, _, h := d.Block(r)
			area += w * h
		}
		if area != nx*nr {
			t.Fatalf("blocks cover %d points, want %d", area, nx*nr)
		}
		if cw != nil && !uniformWeights(cw) {
			u, err := Axial(nx, px)
			if err != nil {
				t.Fatalf("weighted grid accepted but uniform axial split rejected: %v", err)
			}
			if got, uni := maxBlockCost(d.X, cw), maxBlockCost(u, cw); got > uni {
				t.Fatalf("axial weighted max cost %g exceeds uniform %g", got, uni)
			}
		}
		if rw != nil && !uniformWeights(rw) {
			u, err := Radial(nr, pr)
			if err != nil {
				t.Fatalf("weighted grid accepted but uniform radial split rejected: %v", err)
			}
			if got, uni := maxBlockCost(d.R, rw), maxBlockCost(u, rw); got > uni {
				t.Fatalf("radial weighted max cost %g exceeds uniform %g", got, uni)
			}
		}
	})
}
