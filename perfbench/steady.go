package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs every workload n times by re-running this binary,
// interleaved so that host drift spreads over all workloads alike:
// round r uses seed r and starts one workload later than round r-1.
// It prints, per workload and end-to-end metric, the median, the
// quartiles (as Python's statistics.quantiles gives them) and the
// spread (q3-q1)/median, next to the metric's bound in BENCHMARK.json
// when that file is in the working directory.
func steadiness(ctx context.Context, n int, seconds float64, capedBin, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	vals := map[string]map[string][]float64{}
	for r := 0; r < n; r++ {
		for k := range mixes {
			m := mixes[(r+k)%len(mixes)]
			cmd := exec.CommandContext(ctx, self, "-workload", m.name, "-seed", strconv.Itoa(r+1),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-caped", capedBin, "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", m.name, r+1, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: bad result %s\n", m.name, r+1, lines[len(lines)-1])
				return 1
			}
			if vals[m.name] == nil {
				vals[m.name] = map[string][]float64{}
			}
			fmt.Printf("round %d %-13s", r+1, m.name)
			for _, k := range sortedKeys(res.Metrics) {
				vals[m.name][k] = append(vals[m.name][k], res.Metrics[k].Value)
				fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Println()
		}
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Printf("\n%-14s %-16s %10s %10s %10s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range mixes {
		for _, k := range sortedKeys(vals[m.name]) {
			q1, q2, q3 := quartiles(vals[m.name][k])
			b := "-"
			if v, ok := bounds[k]; ok {
				b = strconv.FormatFloat(v, 'f', -1, 64)
			}
			fmt.Printf("%-14s %-16s %10.4f %10.4f %10.4f %8.4f %6s\n", m.name, k, q1, q2, q3, safeDiv(q3-q1, q2), b)
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json, or nil.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, e := range spec.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out
}
