package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of p90/p95/p99 that has at least ten
// samples beyond it, and which one it is (0 when even p90 has not).
func tail(xs []float64) (value, q float64) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q), q
		}
	}
	return 0, 0
}

// slice is one cut of the measured window.
type slice struct {
	rate  float64             // completed ops per second, summed over clients
	lat   [nOpKinds][]float64 // latencies in ms, pooled over clients
	steal float64             // host CPU steal share during the slice
}

// Steal above this share marks a slice as disturbed by the host.
const (
	stealLimit     = 0.05
	minQuietSlices = 3
)

// quietSlices returns the slices the estimators use and how many were
// quiet: those whose steal is within the limit, unless fewer than
// minQuietSlices are — then all of them, and the run is flagged. Only
// the exogenous signal decides; the measured values never do.
func quietSlices(slices []slice) (use []slice, quiet int) {
	for _, s := range slices {
		if s.steal <= stealLimit {
			use = append(use, s)
		}
	}
	if quiet = len(use); quiet < minQuietSlices {
		use = slices
	}
	return use, quiet
}

// estimates are the robust end-to-end numbers of one window.
type estimates struct {
	opsPerS float64           // median slice rate
	p50     [nOpKinds]float64 // median of slice medians, ms
	quiet   int
	flagged bool
}

func estimate(slices []slice) estimates {
	use, quiet := quietSlices(slices)
	e := estimates{quiet: quiet, flagged: quiet < minQuietSlices}
	var rates []float64
	var meds [nOpKinds][]float64
	for _, s := range use {
		rates = append(rates, s.rate)
		for k := range meds {
			if len(s.lat[k]) > 0 {
				meds[k] = append(meds[k], median(s.lat[k]))
			}
		}
	}
	e.opsPerS = median(rates)
	for k := range meds {
		e.p50[k] = median(meds[k])
	}
	return e
}

// cutWindow assigns each client's samples to slices. A client's slice
// ends at the completion of its first op that reaches the nominal
// boundary, and its rate is counted over that actual duration, so a
// slow op straddling a boundary does not quantise the rate.
func cutWindow(perClient [][]sample, starts []time.Time, sliceLen time.Duration, n int) []slice {
	slices := make([]slice, n)
	for c, samples := range perClient {
		k := 0
		begin := starts[c]
		count := 0
		for _, s := range samples {
			if k == n {
				break
			}
			count++
			if s.ok {
				slices[k].lat[s.kind] = append(slices[k].lat[s.kind], float64(s.end.Sub(s.start))/1e6)
			}
			if !s.end.Before(starts[c].Add(time.Duration(k+1) * sliceLen)) {
				slices[k].rate += float64(count) / s.end.Sub(begin).Seconds()
				begin, count = s.end, 0
				k++
			}
		}
	}
	return slices
}

// cpuTimes is one reading of the host's aggregate CPU counters.
type cpuTimes struct{ total, steal uint64 }

// readCPU reads the first line of /proc/stat; ok is false where the
// file or the steal column does not exist.
func readCPU() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sampleSteal reads the CPU counters at every nominal slice boundary
// of the window starting at t0 and returns one steal share per slice.
// It returns when the last boundary has passed.
func sampleSteal(t0 time.Time, sliceLen time.Duration, n int) []float64 {
	out := make([]float64, n)
	prev, ok := readCPU()
	for k := 0; k < n; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k+1) * sliceLen)))
		cur, ok2 := readCPU()
		if ok && ok2 {
			out[k] = stealShare(prev, cur)
		}
		prev, ok = cur, ok2
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fmtMetric(v float64) string { return fmt.Sprintf("%.6g", v) }
