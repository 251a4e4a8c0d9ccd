// Command bench is the repository's one benchmark: it launches real anufsd
// and anufsgw processes on real journal directories, drives four named
// workloads from this generator process in closed loops, checks that every
// output is correct, and prints every metric by name with its unit.
//
//	go run -C cmd/bench anufs/cmd/bench -workload all -seed 1 -out FILE
//	go run -C cmd/bench anufs/cmd/bench -workload all -seed 1 -trace 1 -spans FILE
//	go run -C cmd/bench anufs/cmd/bench -compare A.json B.json
//
// It touches no product code: layers are measured from outside, by spans
// recorded here around calls into each module's public functions and by
// growth of the counters and histograms the daemons already export. See
// README.md for the workloads, the metrics and how to read the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() { os.Exit(run()) }

// contractMetric is one entry of the result line's metrics object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output for one workload run:
// the end-to-end metrics BENCHMARK.json lists when untraced, every
// per-layer metric when traced.
func contractLine(r *runResult) ([]byte, error) {
	metrics := map[string]contractMetric{}
	if r.Traced {
		for _, spec := range perLayer {
			metrics[spec.Name] = contractMetric{r.PerLayer[spec.Name], spec.Unit}
		}
	} else {
		for _, spec := range endToEnd {
			if spec.Contract {
				metrics[spec.Name] = contractMetric{r.EndToEnd[spec.Name], spec.Unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func run() (code int) {
	var (
		workload = flag.String("workload", "all", "workload to run: small-write, read-mostly, mixed-tenants, hetero-balance, or all")
		seed     = flag.Uint64("seed", 1, "seed of the op streams; the same seed gives the same requests")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 adds the traced window and the per-layer ladder, and reports the per-layer metrics")
		outPath  = flag.String("out", "", "append the runs to this JSON result file")
		spanPath = flag.String("spans", "", "with -trace 1, write every recorded span to this JSON file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		return runCompare(flag.Args())
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and there are no positional arguments")
		return 2
	}
	var todo []workloadSpec
	if *workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workload); ok {
		todo = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	bins, buildDir, err := buildBinaries(root)
	if err != nil {
		return fail(err)
	}
	// Every temporary file lives under the checkout's build directory: a
	// real filesystem, never /dev/shm, removed at exit.
	base, err := os.MkdirTemp(buildDir, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return fail(err)
	}
	// Children die with us: on return, on a signal, and (guard) on a panic
	// in any goroutine.
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(base)
	}
	defer cleanup()
	defer guard()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	e := &env{bins: bins, base: base, clients: min(runtime.NumCPU(), 4), out: os.Stdout}
	host := hostInfo{OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(), GoVers: runtime.Version()}
	var runs []*runResult
	var spans []span
	for _, w := range todo {
		res, sp, err := runWorkload(e, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		printResult(os.Stdout, res)
		runs = append(runs, res)
		spans = append(spans, sp...)
		if !res.Correct {
			code = 1
		}
		line, err := contractLine(res)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line) // the last line of a single-workload run
	}
	if *outPath != "" {
		if err := appendResults(*outPath, host, runs); err != nil {
			return fail(err)
		}
	}
	if *spanPath != "" {
		b, err := json.Marshal(spans)
		if err == nil {
			err = os.WriteFile(*spanPath, b, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	return code
}

// runCompare is -compare A.json B.json.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		var err error
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if n := compareResults(os.Stdout, files[0], files[1]); n > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", n)
		return 1
	}
	return 0
}
