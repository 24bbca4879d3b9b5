// Command bench is the repository benchmark. It builds cmd/bundled and
// cmd/bundleworker from the working tree, boots them on loopback ports with
// a fresh -data-dir and their shipped defaults otherwise, and drives one of
// five closed-loop workloads through bundling/client from this process over
// at most two connections. After each phase it checks a deterministic
// sample of the results against in-process oracle sessions.
//
// Run it from the repository root through bench/run.sh, which builds this
// program first:
//
//	bash bench/run.sh                                   # all five workloads
//	bash bench/run.sh --workload solve-pure --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh --workload evaluate-fresh --trace 1
//	bash bench/run.sh -compare A1.json A2.json -- B1.json B2.json
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics — the end-to-end metrics untraced, the per-layer
// metrics traced. A full result record goes to -out. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty = all five in turn)")
	seed := fs.Int64("seed", 1, "seed of lineups, patches and algorithm order")
	seconds := fs.Int("seconds", 20, "measured seconds per workload; a traced run splits them between the daemon phase and the traced phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from the daemons' scrapes and an in-process traced phase")
	out := fs.String("out", "", "result record path (default <build-dir>/results/<workload>-seed<seed>-trace<t>.json)")
	buildDir := fs.String("build-dir", ".bench_build", "directory for binaries, run logs, traces and results")
	compare := fs.Bool("compare", false, "compare result records: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	var selected []workload
	if *name == "" {
		selected = workloads
	} else {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{wl}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, need := range []string{"go.mod", "cmd/bundled", "cmd/bundleworker"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: run from the repository root: %v\n", err)
			return 2
		}
	}
	dir, err := filepath.Abs(*buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// A signal stops every daemon before the bench exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(130)
	}()
	defer stopAll()

	bins, err := buildDaemons(root, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b := &bench{root: root, dir: dir, bins: bins, seed: *seed, phase: time.Duration(*seconds) * time.Second, scales: map[string]*scaleData{}}
	ctx := context.Background()
	final := lastLine{Correct: true, Metrics: map[string]value{}}
	for _, wl := range selected {
		res, err := b.runWorkload(ctx, wl, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		for _, n := range res.set.order {
			v := res.set.vals[n]
			fmt.Printf("%s %s %.6g %s\n", wl.name, n, v.Value, v.Unit)
		}
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAIL %s\n", wl.name, f)
		}
		path := *out
		if path == "" || len(selected) > 1 {
			path = filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace))
		}
		if err := writeJSON(path, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		contract, err := res.set.contract(*trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for n, v := range contract {
			if len(selected) > 1 {
				n = wl.name + "/" + n
			}
			final.Metrics[n] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// lastLine is the final line of standard output.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
