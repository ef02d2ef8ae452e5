// Command benchmark is this repository's benchmark: four closed-loop
// workloads, seven end-to-end metrics, and a traced run that costs each
// layer from outside its interface. BENCHMARK.json at the repository root
// is generated from this package's tables (`-spec`); README.md defines
// every name.
//
//	bash benchmark/run.sh --workload bsync_mem_n128 --seed 1 --seconds 24 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name       = flag.String("workload", "all", "workload to run, or all")
		seed       = flag.Int64("seed", 1, "input seed B: the run plays the B-th disjoint block of game seeds")
		seconds    = flag.Float64("seconds", runSeconds, "seconds of measured games")
		trace      = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		spans      = flag.String("spans", "", "with -trace 1, write every span as JSON to this file at exit")
		selfcheck  = flag.Int("selfcheck", 0, "run the suite 2R times in two interleaved sets and compare them")
		printSpec  = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *seed < 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	// One core: the ROADMAP's single-core floor, and what makes 128
	// goroutine players on a shared 2-vCPU box repeat.
	runtime.GOMAXPROCS(1)

	switch {
	case *printSpec:
		out, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(out))
		return 0
	case *selfcheck > 0:
		return runSelfcheck(*name, *selfcheck, *seed, *seconds)
	case *name == "all":
		return runAll(*seed, *seconds, *trace)
	}

	w, err := findWorkload(*name)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: env workload=%s gomaxprocs=%d nproc=%d go=%s seed=%d game_seeds=%d..%d seconds=%g trace=%d\n",
		w.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		*seed, *seed*int64(w.seeds), (*seed+1)*int64(w.seeds)-1, *seconds, *trace)
	// The driver gives a run 180 s; a run that would overstay says so and
	// fails instead of hanging.
	overstay := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(2)
	})
	defer overstay.Stop()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(w, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans,
	})
	if err != nil {
		return fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(out))
	coolDown()
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// runChild runs one workload in a fresh process, so that peak RSS, the
// heap and the connection budget start clean for every run.
func runChild(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return result{}, errors.Join(err, fmt.Errorf("%s: no result: %w", workload, jerr))
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, err
}

// runAll prints every workload's result as one ledger object.
func runAll(seed int64, seconds float64, trace int) int {
	ledger := struct {
		Env     map[string]any    `json:"env"`
		Results map[string]result `json:"results"`
		Claim   any               `json:"claim"`
	}{
		Env: map[string]any{
			"gomaxprocs": 1, "nproc": runtime.NumCPU(), "go": runtime.Version(),
			"seed": seed, "seconds": seconds, "trace": trace,
		},
		Results: make(map[string]result),
	}
	code := 0
	for _, w := range workloads(0) {
		res, err := runChild(w.name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
		ledger.Results[w.name] = res
	}
	out, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(out))
	return code
}
