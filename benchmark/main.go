// Command benchmark is the repository's end-to-end benchmark. It runs
// one of three ingest workloads against the paper's plant, checks the
// engine's outputs, and prints every metric by name with its unit,
// ending with one JSON result line:
//
//	go run . --workload replay --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing attached to
// the process. --trace 1 is a separate run that adds a CPU profile,
// spans around the benchmark's calls into the program, runtime/metrics
// deltas and fixed-input state-codec timings, and reports the
// per-layer metrics. README.md lists the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(env *env) (*report, error){
	"replay":      runReplay,
	"ingest-http": runIngest,
	"longrun":     runLongRun,
}

var workloadOrder = []string{"replay", "ingest-http", "longrun"}

func main() {
	name := flag.String("workload", "", "workload to run: replay, ingest-http, longrun, or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "seconds of timed passes to measure")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 is the traced run reporting per-layer metrics")
	pin := flag.String("pin", "", "recompute the pinned references for seeds LO-HI into reference.json and exit")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, traced int, pin string) error {
	if pin != "" {
		return pinReferences(pin)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1 (got %d)", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", traced)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	}
	// Scratch files (checkpoints, profiles, span dumps) stay inside the
	// working directory: the benchmark runs from the root of a checkout
	// and writes nowhere else.
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err != nil {
		return err
	}
	var results []*report
	for _, n := range names {
		fn, ok := workloads[n]
		if !ok {
			return fmt.Errorf("unknown --workload %q (have %s, all)", n, strings.Join(workloadOrder, ", "))
		}
		dir := filepath.Join(scratch, fmt.Sprintf("%s-seed%d-trace%d-pid%d", n, seed, traced, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("creating scratch directory: %w", err)
		}
		e := &env{workload: n, seed: seed, seconds: float64(seconds), traced: traced == 1, dir: dir, refs: refs}
		rep, err := fn(e)
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		rep.print(os.Stdout, e)
		results = append(results, rep)
	}
	return printResult(results, names)
}

// printResult writes the final JSON line. With one workload its
// metrics keep their own names; "all" prefixes each with the workload.
func printResult(reps []*report, names []string) error {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range reps {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.ops.attempted()
		out.Failed += r.ops.failed()
		for k, m := range r.metrics {
			if len(reps) > 1 {
				k = names[i] + "/" + k
			}
			out.Metrics[k] = m
		}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sortedKeys returns m's keys in order, for stable tables.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
