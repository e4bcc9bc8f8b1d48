// Command perfbench is the GreenFPGA service benchmark. It builds the
// service in-process with server.New (a store in a fresh temporary
// directory, default options otherwise) and drives
// Handler().ServeHTTP from one process in a closed loop of at most
// nproc clients, over seeded request streams generated before timing
// starts. With -trace 1 it instead replays the same inputs through each
// layer's public entry points, in the order the server calls them,
// with a span around each call, and reports per-layer figures.
//
//	perfbench -workload hit-replay -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int
	// checkRounds is how many leading rounds keep their response
	// bytes for the output checks (at least 2: the MC seed check pairs
	// rounds 0 and 1).
	checkRounds int
	// setups is how many times set-up is measured (the median is
	// reported as setup_s).
	setups int
	// workDir holds the stores and the trace output.
	workDir string
	// transport is "inproc" (Handler().ServeHTTP) or "loopback" (real
	// HTTP over a loopback listener, a diagnostic for comparing the
	// two).
	transport string
}

func main() {
	var cfg config
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hit-replay, cold-mix, mc-study, durable-jobs")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the timed loop")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for stores and trace output")
	flag.StringVar(&cfg.transport, "transport", "inproc", "inproc drives Handler().ServeHTTP; loopback sends real HTTP to a loopback listener")
	flag.IntVar(&cfg.clients, "clients", 0, "closed-loop clients (0: the workload's default; at most nproc)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1
	cfg.setups, cfg.checkRounds = 9, 2
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) ||
		(cfg.transport != "inproc" && cfg.transport != "loopback") || (cfg.trace && cfg.transport != "inproc") {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive, -trace 0 or 1, -transport inproc or loopback (inproc when tracing)")
		os.Exit(2)
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.clients <= 0 {
		cfg.clients = w.clients
	}
	cfg.clients = min(cfg.clients, runtime.NumCPU())
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.workDir, _ = filepath.Abs(tmp)
	var rep *report
	if cfg.trace {
		rep, err = runTraced(&cfg, w)
	} else {
		rep, err = runTimed(&cfg, w)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}

// runTimed is the end-to-end run: set up, drive the closed loop for
// the run length in whole rounds, check the outputs, and measure the
// remaining set-ups.
func runTimed(cfg *config, w *workload) (*report, error) {
	start := time.Now()
	e, err := w.setup(cfg, "setup-0")
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	res := drive(cfg, w, e)
	failed := res.failed
	var checkFailures int
	checkFailures, err = w.check(cfg, e, res)
	if err != nil {
		e.close()
		return nil, err
	}
	e.close()
	for i := 1; i < cfg.setups; i++ {
		runtime.GC()
		start := time.Now()
		e, err := w.setup(cfg, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		e.close()
	}
	n := float64(res.ops)
	opsPerS, p50, p90, cpuPerOp := res.windowMetrics()
	latencies := int64(0)
	for _, win := range res.windows {
		latencies += win.lat.n.Load()
	}
	fmt.Printf("%s: %d ops in %.2fs with %d clients (latency quantiles over %d ops), %d failed, %d check failures\n",
		w.name, res.ops, res.elapsed.Seconds(), cfg.clients, latencies, failed, checkFailures)
	fmt.Printf("setup_s samples: %v\n", setups)
	fmt.Printf("ops/s per window: %v\n", res.windowRates())
	return &report{
		Correct:   checkFailures == 0,
		Attempted: res.ops,
		Failed:    failed + checkFailures,
		Metrics: map[string]metric{
			"ops_per_s":       {opsPerS, "1/s"},
			"p50_ms":          {p50 * 1e3, "ms"},
			"p90_ms":          {p90 * 1e3, "ms"},
			"cpu_ms_per_op":   {cpuPerOp * 1e3, "ms"},
			"alloc_kb_per_op": {float64(res.allocBytes) / 1024 / n, "KB"},
			"allocs_per_op":   {float64(res.allocs) / n, "count"},
			"peak_rss_mb":     {res.rssMB, "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}, nil
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
