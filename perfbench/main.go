// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public API of the solver stack (core, backend,
// solver, shm, flux, scheme) or of the run service (serve), checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every public call it makes and reports the
// per-layer metrics instead. All timing is done from outside: the
// benchmark times its own calls into each layer and reads the counters
// the program already returns.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// Host noise shapes the design: every solver workload is many short
// samples with its configurations interleaved round-robin, so a slow
// host phase hits all of them alike, and each metric is a median.
// Load never exceeds the host's CPU count: backends are at most two
// wide, and the service runs two client connections on two slots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the solver or of the service sees.
// Every workload defines all of them (see each workload's doc comment).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"mpts_serial", "Mpts/s"},
	{"mpts_shm", "Mpts/s"},
	{"mpts_mp", "Mpts/s"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"core.newrun_ms", "ms"},
	{"core.nonstep_ms", "ms"},
	{"backend.construct_mb", "MB"},
	{"backend.parareal.iterations", "count"},
	{"solver.steps_to_tol", "count"},
	{"flux.stress_flux_x.ns_pt", "ns"},
	{"flux.stress_flux_r.ns_pt", "ns"},
	{"scheme.predict_x.ns_pt", "ns"},
	{"scheme.correct_x.ns_pt", "ns"},
	{"scheme.predict_r.ns_pt", "ns"},
	{"scheme.correct_r.ns_pt", "ns"},
	{"kernel.flops_pt", "flop"},
	{"kernel.bytes_pt", "B"},
	{"kernel.gflops", "GFLOP/s"},
	{"shm.splits_per_step", "count"},
	{"shm.serial_frac", "ratio"},
	{"shm.split_us", "us"},
	{"shm.speedup", "x"},
	{"msg.startups_per_step", "count"},
	{"msg.kb_per_step", "KiB"},
	{"msg.saved_startups_per_step", "count"},
	{"msg.reduce_startups_per_step", "count"},
	{"par.wait_frac", "ratio"},
	{"par.busy_spread", "ratio"},
	{"par.redundant_flops_frac", "ratio"},
	{"par.speedup", "x"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.alloc_kb_per_step", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"serve.hit_rate", "ratio"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.cold_ms_p50", "ms"},
	{"serve.cold_overhead_ms_p50", "ms"},
	{"serve.key_us", "us"},
	{"serve.queue_depth_mean", "count"},
	{"serve.cache_entries", "count"},
	{"serve.cache_mb", "MB"},
	{"serve.req_p50_ms", "ms"},
	{"serve.req_p95_ms", "ms"},
	{"http.roundtrip_us", "us"},
	{"trace.overhead_pct", "%"},
}

// env is what a workload receives: its seed, its time budget, and the
// span recorder (nil in the untraced run).
type env struct {
	seed   int64
	budget time.Duration
	tr     *tracer
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	info              []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// op counts one operation; a non-nil err marks it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// note adds a human-readable line to the report.
func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"paper-grid":   paperGrid,
	"to-tolerance": toTolerance,
	"service-mix":  serviceMix,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-grid, to-tolerance or service-mix")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		e.tr = newTracer()
	}
	baseMB := vmKB("VmRSS:") / 1024
	steal0 := stealTicks()
	o, err := w(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	peakMB := vmKB("VmHWM:") / 1024
	o.e2e["mem_peak_mb"] = peakMB
	host := hostContext()
	host["workload"] = *name
	host["seed"] = *seed
	host["working_set_mb"] = peakMB - baseMB
	host["steal_ticks"] = stealTicks() - steal0

	defs, vals := endToEnd, o.e2e
	if e.tr != nil {
		defs, vals = perLayer, o.layers
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.op(fmt.Errorf("metric %s was not measured", d.name))
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, l := range o.info {
		fmt.Println("#", l)
	}
	if e.tr != nil {
		for _, s := range e.tr.summarize() {
			fmt.Printf("# span %-34s n=%-6d total=%10.3f ms self=%10.3f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.spans.json", *name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	// Neither marshal can fail: every metric value is finite (checked
	// above) and the host fields are strings and /proc readings.
	hb, _ := json.Marshal(host)
	fmt.Println("# host", string(hb))
	res, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(res))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// vmKB reads one "Vm..." line of /proc/self/status in KiB.
func vmKB(key string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// stealTicks is the host's cumulative CPU steal time in clock ticks.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostContext describes the machine a result was measured on.
func hostContext() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, _ := os.ReadFile(filepath.Join(d, "level"))
		size, _ := os.ReadFile(filepath.Join(d, "size"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		h["l"+strings.TrimSpace(string(level))+"_size"] = strings.TrimSpace(string(size))
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile returns the q-quantile (0..1) of v by linear interpolation.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
