// Command perfbench is the repository benchmark: it drives the shipped
// caped request path (HTTP decode, program cache, queue, machine pool,
// simulator run, output check, encode, machine reset) with a seeded,
// closed-loop job sequence and prints end-to-end metrics, or, traced,
// the per-layer metrics of an in-process replay of the same sequence.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "small-jobs, kernels-fast, kernels-bit or cluster-small")
		seed     = flag.Int64("seed", 1, "seed of the generated job sequence")
		seconds  = flag.Float64("seconds", 20, "nominal measured duration; sizes the job sequence")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics against caped; 1: per-layer metrics from the traced in-process replay")
		capedBin = flag.String("caped", ".bench_build/caped", "caped binary to drive")
		outDir   = flag.String("out", ".bench_build", "directory for server logs and span files")
		steady   = flag.Int("steady", 0, "steadiness report: run every workload this many times, interleaved, with seeds 1..N")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *steady > 0 {
		return steadiness(ctx, *steady, *seconds, *capedBin, *outDir)
	}
	m, ok := mixByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	jobs, err := Generate(m, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d jobs %d clients %d\n", m.name, *seed, len(jobs), m.clients)

	var (
		metrics   map[string]metric
		attempted int
		failed    int
		sims      []sim
	)
	if *traceOn == 1 {
		path := filepath.Join(*outDir, "trace", fmt.Sprintf("%s-seed%d.json", m.name, *seed))
		metrics, attempted, failed, sims, err = traced(ctx, m, jobs, path)
		if err == nil {
			fmt.Println("spans written to", path)
		}
	} else {
		logDir := filepath.Join(*outDir, "logs")
		if err = os.MkdirAll(logDir, 0o755); err == nil {
			var res runResult
			metrics, res, err = measure(ctx, *capedBin, logDir, m, jobs, *seconds)
			attempted, failed, sims = res.attempted, res.failed, res.sims
			if err == nil {
				err = res.firstErr
				if res.truncated {
					fmt.Fprintf(os.Stderr, "perfbench: run overran its limit; %d of %d jobs sent\n", res.attempted, len(jobs))
				}
				fmt.Printf("samples %d, beyond p90 %d\n", len(res.latMS), len(res.latMS)-int(math.Ceil(0.9*float64(len(res.latMS)))))
			}
		}
	}
	if err != nil && metrics == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := err == nil && failed == 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", err)
	}
	fmt.Printf("jobs attempted %d succeeded %d failed %d\n", attempted, attempted-failed, failed)
	if correct {
		fmt.Println(digestOf(sims))
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-28s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	b, _ := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}) // plain structs cannot fail to marshal
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

// percentile interpolates linearly between the closest ranks of sorted
// values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func fmtFloats(v []float64, f string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
