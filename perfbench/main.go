// Command perfbench is the repository benchmark: it drives the real HTTP
// optimizer service (server.New on a loopback listener over
// server.DefaultRegistry, DSL world included) with one of four seeded
// workloads, checks every answer against references computed through
// the library, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced replay (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first. A wrong answer exits non-zero without that line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// dslPath is the Prairie specification served as the "dsl" world,
// relative to the repository root.
const dslPath = "examples/dslrules/rules.prairie"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the last line of standard output.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts are recorded with every result.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// senders is the number of load-generator goroutines and connections:
// never more than the CPUs the service itself runs on.
func senders() int { return max(1, min(2, runtime.NumCPU())) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: hit-stream, cold-search, churn-auto or execute")
	seed := flag.Int64("seed", 1, "seed of the request draws, their order and their arrivals")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced replay with per-layer metrics")
	genOracleFlag := flag.Bool("gen-oracle", false, "recompute "+oracleFile+" with exec.Naive and exit")
	flag.Parse()

	dslSrc, err := os.ReadFile(dslPath)
	if err != nil {
		return fmt.Errorf("read the DSL world (run from the repository root): %w", err)
	}
	benchDir := "perfbench"
	if *genOracleFlag {
		return genOracle(benchDir, string(dslSrc))
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	resDir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	oracle, err := loadOracle(benchDir)
	if err != nil {
		return err
	}
	facts := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	info(map[string]any{"workload": wl, "host": facts})

	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	prefix := filepath.Join(resDir, fmt.Sprintf("%s-seed%d", wl.Name, *seed))
	var out *final
	var details any
	kind := "result"
	if *trace == 1 {
		kind = "layers"
		out, details, err = tracedRun(ctx, wl, string(dslSrc), oracle, *seed, budget, prefix)
	} else {
		out, details, err = measuredRun(ctx, wl, string(dslSrc), oracle, *seed, budget)
	}
	if err != nil {
		return err
	}
	info(map[string]any{"details": details})
	if err := writeJSON(prefix+"."+kind+".json", map[string]any{
		"host": facts, "workload": wl, "details": details, "result": out}); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// info prints one human-readable JSON record before the result line.
func info(v map[string]any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: info:", err)
		return
	}
	fmt.Println("# " + string(raw))
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
