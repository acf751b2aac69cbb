package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench is one repetition's system, built (and timed as set-up) by its
// workload's constructor.
type bench interface {
	// run drives the measured phase.
	run()
	// finish checks the outputs and summarizes the repetition.
	finish() (rep, error)
}

// buildFunc constructs a workload from the layers' public constructors: the
// seed fixes every input, and a non-nil tracer receives spans around every
// call the measured phase makes.
type buildFunc func(seed int64, tr *tracer) (bench, error)

var workloads = map[string]buildFunc{
	"fleet-llm-session": newFleetLLM,
	"rpc-smartconf":     newRPCSmartConf,
	"artifacts":         newArtifacts,
}

// rep summarizes one repetition. Everything in it is a function of the seed
// alone, so it repeats exactly across repetitions and runs.
type rep struct {
	// ops is the repetition's work: simulated requests offered, or
	// artifacts rendered.
	ops int64
	// refused counts ops the modelled system refused, rejected or dropped
	// (artifacts: failed to render).
	refused int64
	// digest hashes every simulated statistic (or the rendered output).
	digest string
	// outcome holds the plant.* metrics: what the simulated system did.
	outcome map[string]float64
	// counts holds the exact per-layer counts.
	counts map[string]float64
}

// countNames lists every per-layer metric that a workload reports as an exact
// count; a workload leaves out the ones its layers do not have, and they
// report 0.
var countNames = []string{
	"cluster.refused_share",
	"sim.events_per_op", "sim.peak_pending",
	"llmserve.rejected_share", "llmserve.evictions_per_op",
	"rpcserver.rejected_share",
	"smartconf.decisions_per_op",
	"declog.records_per_decision",
	"metrics.queries",
	"memsim.peak_used_mb",
	"experiments.sims", "experiments.cache_hits",
}

// outcomeNames lists the plant.* metrics: what the simulated system did,
// read from the plants' own counters and sensors. The artifacts workload
// has no single plant and reports 0.
var outcomeNames = []string{"plant.fail_share", "plant.sim_p99_ms", "plant.sim_goodput", "plant.goal_violations"}

// minReps is the fewest measured repetitions of each kind a run makes, even
// past its time budget.
const minReps = 3

type measurement struct {
	setup, wall, cpu, allocBytes, mallocs, gcs []float64 // per untraced repetition
	tracedWall                                 []float64
	tr                                         *tracer
	tracedOps                                  int64
	opsPerRep                                  int64
	attempted, refused                         int64
	digest                                     string
	outcome, counts                            map[string]float64
	err                                        error
}

// measure runs one warm-up repetition, then measured repetitions until the
// time budget is spent: all untraced, or alternating untraced and traced.
// Every repetition must reproduce the warm-up's digest exactly.
func measure(build buildFunc, seed int64, seconds float64, traced bool) *measurement {
	m := &measurement{}
	warm, err := oneRep(build, seed, nil, &measurement{})
	if err != nil {
		m.err = fmt.Errorf("warm-up: %w", err)
		return m
	}
	m.digest, m.opsPerRep = warm.digest, warm.ops
	m.outcome, m.counts = warm.outcome, warm.counts
	if traced {
		m.tr = newTracer()
	}
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; ; i++ {
		tracedRep := traced && i%2 == 1
		enough := len(m.wall) >= minReps && (!traced || len(m.tracedWall) >= minReps)
		if enough && time.Since(start) >= budget {
			break
		}
		var tr *tracer
		if tracedRep {
			tr = m.tr
		}
		r, err := oneRep(build, seed, tr, m)
		if err == nil && r.digest != warm.digest {
			err = fmt.Errorf("repetition %d digest %s differs from warm-up %s", i+1, r.digest, warm.digest)
		}
		if err != nil {
			m.err = err
			return m
		}
		m.attempted += r.ops
		m.refused += r.refused
		if tracedRep {
			m.tracedOps += r.ops
		}
	}
	return m
}

// oneRep builds, runs and checks one repetition, appending its host
// measurements to m (to tracedWall alone when tr is set).
func oneRep(build buildFunc, seed int64, tr *tracer, m *measurement) (rep, error) {
	runtime.GC() // every repetition starts from the same collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := m0.NumGC

	t0 := time.Now()
	b, err := build(seed, tr)
	setup := time.Since(t0)
	if err != nil {
		return rep{}, fmt.Errorf("set-up: %w", err)
	}
	cpu0 := cpuTime()
	t1 := time.Now()
	b.run()
	wall := time.Since(t1)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	r, err := b.finish()
	if err != nil {
		return r, err
	}
	if r.ops < 1 {
		return r, fmt.Errorf("repetition ran no ops")
	}
	if tr != nil {
		m.tracedWall = append(m.tracedWall, wall.Seconds())
		return r, nil
	}
	m.setup = append(m.setup, setup.Seconds())
	m.wall = append(m.wall, wall.Seconds())
	m.cpu = append(m.cpu, cpu.Seconds())
	m.allocBytes = append(m.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	m.mallocs = append(m.mallocs, float64(m1.Mallocs-m0.Mallocs))
	m.gcs = append(m.gcs, float64(m1.NumGC-gc0))
	return r, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// endToEnd reports the untraced repetitions as medians. Allocation counts
// cover whole repetitions (set-up and measured phase), so they stay nonzero
// on the zero-allocation fleets and still move with any per-op allocation.
func (m *measurement) endToEnd() map[string]float64 {
	ops := float64(m.opsPerRep)
	wall := median(m.wall)
	return map[string]float64{
		"ops_per_s":     ratio(ops, wall),
		"wall_s":        wall,
		"cpu_s":         median(m.cpu),
		"setup_s":       median(m.setup),
		"max_rss_mb":    maxRSSMB(),
		"alloc_mb":      median(m.allocBytes) / mib,
		"allocs_per_op": ratio(median(m.mallocs), ops),
		"ok_share":      ratio(float64(m.attempted-m.refused), float64(m.attempted)),
	}
}

// Probe names: "<layer>.<call>", one per public call the workloads make.
const (
	spanDraw       = "workload.draw"
	spanRunUntil   = "sim.RunUntil"
	spanDispatch   = "cluster.Dispatch"
	spanRPCOffer   = "rpcserver.Offer"
	spanLLMOffer   = "llmserve.Offer"
	spanSetPerf    = "smartconf.SetPerf"
	spanConf       = "smartconf.Conf"
	spanPercentile = "metrics.Percentile"
	spanArtifact   = "experiments." // + artifact id
)

// perLayer reports the traced repetitions: span statistics per call and
// self time per layer as a share of traced measured wall time. The exact
// counts and outcomes are the same in every repetition (each reproduces the
// warm-up digest), so they come from the warm-up.
func (m *measurement) perLayer() map[string]float64 {
	v := map[string]float64{}
	for _, name := range countNames {
		v[name] = m.counts[name]
	}
	for _, name := range outcomeNames {
		v[name] = m.outcome[name]
	}
	tr := m.tr
	if tr == nil {
		tr = newTracer()
	}
	ops := float64(m.tracedOps)
	var tracedNs float64
	for _, w := range m.tracedWall {
		tracedNs += w * 1e9
	}
	pr := func(name string) *probe {
		if p, ok := tr.probes[name]; ok {
			return p
		}
		return &probe{}
	}
	share := func(layer string) float64 { return ratio(float64(tr.layerSelfNs(layer)), tracedNs) }

	dispatch := pr(spanDispatch)
	v["cluster.dispatch_ns_p50"] = dispatch.hist.quantile(0.50)
	v["cluster.dispatch_ns_p99"] = dispatch.hist.quantile(0.99)
	v["cluster.route_self_ns_per_op"] = ratio(float64(dispatch.selfNs), ops)
	memberOffers := float64(pr(spanRPCOffer).hist.n + pr(spanLLMOffer).hist.n)
	v["cluster.offers_per_op"] = ratio(memberOffers, float64(dispatch.hist.n))
	v["cluster.share"] = share("cluster")

	v["sim.ns_per_op"] = ratio(float64(pr(spanRunUntil).selfNs), ops)
	v["sim.share"] = share("sim")

	v["llmserve.offer_ns_per_op"] = ratio(float64(pr(spanLLMOffer).totalNs), ops)
	v["rpcserver.offer_self_ns_per_op"] = ratio(float64(pr(spanRPCOffer).selfNs), ops)

	setPerf, conf := pr(spanSetPerf), pr(spanConf)
	v["smartconf.setperf_ns_p50"] = setPerf.hist.quantile(0.50)
	v["smartconf.setperf_ns_p99"] = setPerf.hist.quantile(0.99)
	v["smartconf.conf_ns_p50"] = conf.hist.quantile(0.50)
	v["smartconf.conf_ns_p99"] = conf.hist.quantile(0.99)
	v["smartconf.share"] = share("smartconf")

	v["metrics.percentile_ns_p50"] = pr(spanPercentile).hist.quantile(0.50)

	v["workload.ns_per_op"] = ratio(float64(pr(spanDraw).selfNs), ops)
	v["workload.share"] = share("workload")

	for _, id := range artifactOrder {
		p := pr(spanArtifact + id)
		v["experiments."+id+"_s"] = ratio(float64(p.totalNs), float64(p.hist.n)) / 1e9
	}
	v["runtime.gc_cycles"] = median(m.gcs)
	untraced := median(m.wall)
	v["trace.overhead_share"] = ratio(median(m.tracedWall)-untraced, untraced)
	return v
}

// spanTable prints count, p50, p99, total and self time per call site.
func (m *measurement) spanTable() string {
	if m.tr == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s %12s %12s %12s\n", "span", "count", "p50_ns", "p99_ns", "total_ms", "self_ms")
	for _, name := range m.tr.names() {
		p := m.tr.probes[name]
		fmt.Fprintf(&b, "%-28s %12d %12.0f %12.0f %12.1f %12.1f\n", name, p.hist.n,
			p.hist.quantile(0.50), p.hist.quantile(0.99), float64(p.totalNs)/1e6, float64(p.selfNs)/1e6)
	}
	return b.String()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the peak resident set size of this program image, read
// as VmHWM. getrusage's ru_maxrss is not used: it keeps the peak of the
// image the process replaced at exec, so it reports the launcher's size
// whenever that is larger.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%g kB", &kib); err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// hostStamp names the machine the numbers come from.
func hostStamp() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
