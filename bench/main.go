// Command bench is the repository's reference benchmark: the one instrument
// performance claims are judged by. It boots the system through its public
// constructors only, drives it with seeded generated load, checks that what
// came back is correct, and reports end-to-end metrics (tracing off) or
// per-layer metrics (a separate traced pass) by name with their units.
//
// Five workloads stress different layers — see README.md in this directory
// for why each exists, the metric catalogue, and which layer metric should
// move which end-to-end metric:
//
//	go run ./bench -workload l7_steady -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload all -seed 1 -o bench/out/result.json
//	go run ./bench -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error. A correctness violation makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds per pass")
		trace   = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		out     = flag.String("o", "", "also write the full report(s) as JSON to this file")
		outDir  = flag.String("out", "bench/out", "directory for trace files and persist stores")
		repeat  = flag.Int("repeat", 1, "with -workload all: untraced runs per workload, seeds seed..seed+repeat-1")
		compare = flag.Bool("compare", false, "compare two -workload all result files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare old.json new.json")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal("-trace wants 0 or 1, got %q", *trace)
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *repeat, *outDir, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal("unknown workload %q", *name)
	}
	rep, err := run(w, runOptions{seed: *seed, seconds: *seconds, trace: traced, outDir: *outDir})
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	printReport(rep)
	if *out != "" {
		writeJSON(*out, rep)
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// suite is what -workload all writes: both passes of every workload.
type suite struct {
	Claim      *string    `json:"claim"`
	Provenance provenance `json:"provenance"`
	Seed       uint64     `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Runs       []*report  `json:"runs"`
}

func runAll(seed uint64, seconds float64, repeat int, outDir, out string) int {
	s := suite{Provenance: gatherProvenance("."), Seed: seed, Seconds: seconds}
	code := 0
	for _, w := range workloads {
		// repeat untraced runs on consecutive seeds, then one traced pass.
		for i := 0; i <= repeat; i++ {
			traced := i == repeat
			runSeed := seed + uint64(i)
			if traced {
				runSeed = seed
			}
			rep, err := run(w, runOptions{seed: runSeed, seconds: seconds, trace: traced, outDir: outDir})
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			printReport(rep)
			if !rep.Result.Correct {
				code = 1
			}
			s.Runs = append(s.Runs, rep)
		}
	}
	if out != "" {
		writeJSON(out, s)
	}
	return code
}

// printReport writes the human-readable report to standard error: every
// metric by name with its unit, sample counts beside percentiles, and a
// percentile with too few samples beyond it withheld.
func printReport(rep *report) {
	w := os.Stderr
	pass := "end-to-end (tracing off)"
	if rep.Params.Trace {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s seed %d, %.0f s, %s; commit %.12s dirty=%v, %s %s/%s, GOMAXPROCS %d of %d, %s, fs %s, %s\n",
		rep.Params.Workload, rep.Params.Seed, rep.Params.Seconds, pass,
		rep.Provenance.Commit, rep.Provenance.Dirty, rep.Provenance.GoVersion, rep.Provenance.GOOS, rep.Provenance.GOARCH,
		rep.Provenance.GOMAXPROCS, rep.Provenance.NumCPU, rep.Provenance.CPUModel, rep.Provenance.PersistFS, rep.Provenance.Network)
	refused := map[string]bool{}
	for _, name := range rep.Refused {
		refused[name] = true
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		n := ""
		if c, ok := rep.Samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		if refused[name] {
			fmt.Fprintf(w, "  %-36s refused: fewer than %d samples beyond it%s\n", name, minBeyond, n)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", name, m.Value, m.Unit, n)
	}
	names = names[:0]
	for name := range rep.Ungated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s  (ungated: per-layer catalogue)\n", name, rep.Ungated[name].Value, rep.Ungated[name].Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, v := range rep.KnownFailures {
		fmt.Fprintf(w, "  KNOWN FAILURE (does not fail the run, see README.md): %s\n", v)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", rep.TraceFile)
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
