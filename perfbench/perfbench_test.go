package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// shrinkWorkloads cuts the request workloads to 1 % of their ops per
// repetition for the rest of the test.
func shrinkWorkloads(t *testing.T) {
	t.Helper()
	for _, n := range []*int64{&fleetLLMOps, &rscOps} {
		full := *n
		*n = full / 100
		t.Cleanup(func() { *n = full })
	}
}

func oneDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	b, err := workloads[name](seed, nil)
	if err != nil {
		t.Fatalf("%s: set-up: %v", name, err)
	}
	b.run()
	r, err := b.finish()
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return r.digest
}

func TestSeedFixesDigest(t *testing.T) {
	shrinkWorkloads(t)
	for _, name := range []string{"fleet-llm-session", "rpc-smartconf"} {
		a, b, c := oneDigest(t, name, 7), oneDigest(t, name, 7), oneDigest(t, name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark registers %s", got, want)
	}
}

// TestSmokeEveryMetric runs every workload briefly in both modes and checks
// the last line reports every metric BENCHMARK.json names, with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every artifact several times")
	}
	shrinkWorkloads(t)
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0", "--trace", trace}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, ms := range want {
				got, ok := res.Metrics[ms.Name]
				if !ok || got.Unit != ms.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, ms.Name, got, ms.Unit)
				}
			}
			if trace == "0" {
				for _, ms := range spec.EndToEnd {
					if res.Metrics[ms.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, ms.Name, res.Metrics[ms.Name].Value)
					}
				}
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*10000
		if math.Abs(got-want)/want > 1.0/subBuckets {
			t.Errorf("q%.2f = %.1f, want %.1f within one sub-bucket", q, got, want)
		}
	}
	for _, ns := range []int64{0, 15, 16, 17, 1 << 20, 1<<40 + 12345} {
		lo, hi := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d falls outside its bucket [%v, %v)", ns, lo, hi)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	parent, child := tr.probe("a.parent"), tr.probe("b.child")
	tr.begin(parent)
	tr.begin(child)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	if child.selfNs != child.totalNs {
		t.Errorf("leaf self %d != total %d", child.selfNs, child.totalNs)
	}
	if parent.selfNs != parent.totalNs-child.totalNs {
		t.Errorf("parent self %d != total %d - child %d", parent.selfNs, parent.totalNs, child.totalNs)
	}
	if got := tr.layerSelfNs("b"); got != child.selfNs {
		t.Errorf("layer b self %d, want %d", got, child.selfNs)
	}
}
