package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// childResult is the last line a single run prints.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild performs one run in a fresh process, as the CI driver does,
// so no run inherits another's heap or connection state.
func runChild(workload string, seed int64, seconds, trace int) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return childResult{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return childResult{}, fmt.Errorf("%s: unreadable result: %w", workload, err)
	}
	return res, nil // an incorrect run exits 1 but still reports; the caller checks Correct
}

// runAll runs every workload untraced and then traced and prints every
// metric by name, with its unit, as one JSON document.
func runAll(seed int64, seconds int) int {
	type entry struct {
		Why               string            `json:"why"`
		Correct           bool              `json:"correct"`
		Attempted         int               `json:"ops_attempted"`
		Failed            int               `json:"ops_failed"`
		EndToEnd          map[string]metric `json:"end_to_end"`
		PerLayer          map[string]metric `json:"per_layer"`
		TraceOverheadFrac float64           `json:"trace_overhead_frac"`
	}
	doc := struct {
		Seed      int64            `json:"seed"`
		Seconds   int              `json:"seconds"`
		Workloads map[string]entry `json:"workloads"`
	}{seed, seconds, make(map[string]entry)}
	status := 0
	for _, sp := range specs {
		plain, err := runChild(sp.name, seed, seconds, 0)
		if err != nil {
			logf("%v", err)
			return 2
		}
		traced, err := runChild(sp.name, seed, seconds, 1)
		if err != nil {
			logf("%v", err)
			return 2
		}
		e := entry{
			Why: sp.why, Correct: plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
		}
		if base := plain.Metrics["ops_per_s"].Value; base > 0 {
			e.TraceOverheadFrac = 1 - traced.Metrics["trace.ops_per_s"].Value/base
		}
		if !e.Correct {
			status = 1
		}
		doc.Workloads[sp.name] = e
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		logf("%v", err)
		return 2
	}
	return status
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles as a share of the
// median, the steadiness figure the CI driver checks.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// runSelfcheck runs the workloads as two interleaved sets (A B A B …)
// of identical code, each run on its own seed, and fails if any
// end-to-end metric's medians differ by more than its bound.
func runSelfcheck(seed int64, seconds, runs int) int {
	if runs < 3 {
		logf("-selfcheck needs at least 3 runs per set")
		return 2
	}
	values := make(map[string][2][]float64) // "workload/metric" → set → values
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, sp := range specs {
				res, err := runChild(sp.name, seed+int64(2*i+set), seconds, 0)
				if err != nil {
					logf("%v", err)
					return 2
				}
				if !res.Correct {
					logf("%s: incorrect run (%d of %d ops failed)", sp.name, res.Failed, res.Attempted)
					return 1
				}
				for _, d := range endToEnd {
					key := sp.name + "/" + d.name
					v := values[key]
					v[set] = append(v[set], res.Metrics[d.name].Value)
					values[key] = v
				}
			}
		}
	}
	status := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tB worse by\tspread A\tspread B\tbound\t")
	for _, sp := range specs {
		for _, d := range endToEnd {
			v := values[sp.name+"/"+d.name]
			a, b := median(v[0]), median(v[1])
			diff := worsening(d, a, b)
			if diff < 0 {
				diff = worsening(d, b, a)
			}
			verdict := "ok"
			if diff > d.bound {
				verdict, status = "FAIL", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", sp.name, d.name, d.unit,
				fmtMetric(a), fmtMetric(b), 100*worsening(d, a, b), 100*spread(v[0]), 100*spread(v[1]), 100*d.bound, verdict)
		}
	}
	tw.Flush()
	return status
}
