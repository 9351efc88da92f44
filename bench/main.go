// Command bench is the repository's end-to-end benchmark: one process
// boots nine real storage nodes (diskstore → nodeengine → transport/tcp
// on loopback), drives them closed-loop through the public ObjectStore
// or through the gateway serving tier, checks every byte it reads, and
// prints each metric by name with its unit. See README.md.
//
//	bench -workload update-mix -seed 7 -seconds 15 -trace 0   one run, result as the last line
//	bench -all                                                every workload, untraced then traced
//	bench -selfcheck                                          two interleaved sets of runs compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is the measured window of BENCHMARK.json's
// run_seconds.
const defaultSeconds = 15

// runDeadline bounds one run, set-up to verification; a run that gets
// here is hung, and is abandoned with a non-zero exit.
const runDeadline = 170 * time.Second

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: churn-small, bulk-stream, update-mix or wan-update-mix")
		seed      = flag.Int64("seed", 1, "seed of the payload bytes and key choices")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
		all       = flag.Bool("all", false, "run every workload untraced and traced, and print every metric")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of runs and compare their medians with the bounds")
		runs      = flag.Int("runs", 3, "runs per set and workload for -selfcheck")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *runs))
	}
	sp, ok := specByName(*workload)
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, runConfig{
		sp: sp, seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmupDuration,
		traced: *trace != 0, setups: setupReps, dataBase: dataBase(), outDir: outDir(),
	})
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	if err := saveResult(res); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(2)
}

// outDir is bench/out under the checkout root, or out when run from
// inside bench/.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// saveResult keeps the whole result, host stanza included, beside the
// trace: <workload>.json, or <workload>.traced.json.
func saveResult(res *runResult) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Workload + ".json"
	if res.Traced {
		name = res.Workload + ".traced.json"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// memoryBacked is where node directories go when it is writable.
const memoryBacked = "/dev/shm"

// dataBase picks the directory node directories are created under:
// memory-backed storage when the host has it, else the checkout's
// build directory. On the sandbox's shared ext4 device the same code
// spread 6–14 % between runs, with or without fsync, and drifted
// between sets of runs; on tmpfs it spreads 1–3 %. The flush policy is
// the same on both: every fsync is issued. Only the shared device's
// time is excluded (README "Media and flush policy"). The run removes
// its directory when it ends; directories a killed run left behind are
// swept here once they are stale.
func dataBase() string {
	base := filepath.Join(memoryBacked, "trapquorum-bench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return filepath.Join(".bench_build", "data")
	}
	entries, _ := os.ReadDir(base)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > 15*time.Minute {
			os.RemoveAll(filepath.Join(base, e.Name()))
		}
	}
	return base
}
