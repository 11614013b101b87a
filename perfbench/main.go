// Command perfbench is the repository benchmark: it runs one named
// workload against the cardopc Go API, checks every operation's output
// against the recorded oracle, and prints one JSON result line.
//
//	perfbench --workload clip512 --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	clip512    in-process CardOPC clip correction at 512 px / 4 nm plus the
//	           three-corner EPE/PVB/L2 measurement (closed loop, 1 client)
//	hybrid256  in-process ILT → spline fit → MRC resolve at 256 px / 8 nm
//	           (closed loop, 1 client)
//	serve256   a server.New daemon behind a loopback listener: an
//	           open-loop phase at a fixed Poisson rate, then a closed-loop
//	           capacity phase with nproc clients
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, timed from outside by
// wrapping the calls into each layer, and the spans are written to
// .bench_build/trace-<workload>-<seed>.json. layers.json maps every
// per-layer metric to the workload and end-to-end metric it moves.
//
// --record <file> recomputes the correctness oracle (oracle.json) from the
// current program instead of running a workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start for the set-up clock: package
// initialisation runs before main, so this is the earliest timestamp a
// Go program can take.
var processStart = time.Now()

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	// wrong counts operations whose output fell outside the oracle's
	// tolerance (a subset of failed).
	wrong int
	// e2e and layers are the --trace 0 and --trace 1 metric sets.
	e2e, layers map[string]metric
	// info holds diagnostic figures printed before the result line but
	// kept out of the result (see layers.json "info").
	info []string
	// spans is the traced run's span log, written at exit.
	spans []span
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"clip512":   runClip512,
	"hybrid256": runHybrid256,
	"serve256":  runServe256,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: clip512, hybrid256 or serve256")
		seed    = flag.Int64("seed", 1, "workload seed (case sequence and arrival schedule)")
		seconds = flag.Float64("seconds", 25, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced pass")
		record  = flag.String("record", "", "recompute the oracle into this file and exit")
	)
	flag.Parse()

	if *record != "" {
		if err := recordOracle(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	for _, line := range out.info {
		fmt.Println(line)
	}
	fmt.Println(infoLine("fail_ratio", float64(out.failed)/float64(max(out.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations failed", out.failed, out.attempted)))
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if cfg.trace {
		res.Metrics = out.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapInuseMB forces a collection and reports live heap spans in MiB,
// the baseline for the kernel_mb growth figure.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// setupInfo lists the individual set-up times behind setup_s.
func setupInfo(setups []float64) string {
	return fmt.Sprintf("setup_s samples %.4f s (median reported)", setups)
}

// infoLine formats one diagnostic figure for the human-readable lines
// printed ahead of the result.
func infoLine(name string, value float64, unit, note string) string {
	return fmt.Sprintf("%s %g %s (%s)", name, value, unit, note)
}
