// Command perfbench is the repository's end-to-end benchmark. It builds one
// named workload from the layers' public constructors, drives it from its own
// loop, checks the simulated outputs, and prints every metric named in
// BENCHMARK.json with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload rpc-smartconf --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced repetitions.
// With --trace 1 it alternates untraced and traced repetitions and reports
// the per-layer metrics of the traced ones, plus the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is the part of one BENCHMARK.json metric the benchmark prints.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the names and
// units of the metrics it must print, and the workload names.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specPath is BENCHMARK.json, read from the repository root the benchmark
// runs in.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("parse benchmark spec %s: %w", path, err)
	}
	return spec, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the request workloads derive their inputs from")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on measured repetitions")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be non-negative")
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; known: %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	traced := *traceFlag == 1

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Fprintln(stdout, hostStamp())
	m := measure(w, *seed, *seconds, traced)
	if m.err != nil {
		fmt.Fprintln(stdout, "check failed:", m.err)
	}
	fmt.Fprintf(stdout, "reps untraced=%d traced=%d ops/rep=%d digest=%s\n", len(m.wall), len(m.tracedWall), m.opsPerRep, m.digest)
	fmt.Fprintln(stdout, "outcome", formatValues(m.outcome))
	fmt.Fprintf(stdout, "wall_s per repetition: untraced %.4f traced %.4f\n", m.wall, m.tracedWall)

	values := m.endToEnd()
	list := spec.EndToEnd
	if traced {
		values = m.perLayer()
		list = spec.PerLayer
		fmt.Fprint(stdout, m.spanTable())
	}
	res := result{Correct: m.err == nil, Attempted: m.attempted, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if m.err != nil {
		res.Failed = res.Attempted
	}
	for _, ms := range list {
		v, ok := values[ms.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: workload %s does not compute metric %q\n", *name, ms.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %q is not finite (%v)\n", ms.Name, v)
			return 1
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func formatValues(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", k, m[k])
	}
	return b.String()
}
