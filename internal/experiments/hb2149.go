package experiments

import (
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/kvstore"
	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// HB2149: global.memstore.lowerLimit decides how much memstore data each
// blocking flush drains (expressed here as the flushed fraction of the upper
// watermark). Flushing a lot blocks writers for a long time — the user's
// worst-case block-time constraint; flushing a little pays the per-flush
// fixed cost constantly, hurting write throughput.
//
// This is the paper's goal-change scenario: mid-run the user tightens the
// block-time goal from 10 s to 5 s (Table 6's "1.0W, 1MB, 10s" → "…, 5s").
//
// Paper flags: Y-Y-N (conditional, direct, soft).

const (
	hb2149RunTime    = 700 * time.Second
	hb2149PhaseShift = 350 * time.Second
	hb2149Goal1      = 10.0 // seconds of worst-case write block
	hb2149Goal2      = 5.0
	hb2149Grace      = 60 * time.Second // one flush cycle to converge after setGoal
	hb2149WriteEvery = 100 * time.Millisecond
)

func hb2149Config() kvstore.MemstoreConfig {
	return kvstore.MemstoreConfig{
		UpperLimitBytes:    256 * mb,
		FlushBytesPerSec:   64 * mb,
		FlushFixedOverhead: 4 * time.Second,
		WriteBaseLatency:   2 * time.Millisecond,
		BaseHeapBytes:      64 * mb,
	}
}

// ProfileHB2149 profiles block duration against the pinned flush fraction
// under the profiling workload (YCSB 1.0W, 1 MB).
func ProfileHB2149() core.Profile {
	return profileSweep("HB2149", []float64{0.2, 0.4, 0.6, 0.8}, func(setting float64, record func(setting, measurement float64)) {
		r := newMemstoreRig(time.Hour) // the sampler stops the run far earlier
		r.actuate(setting)
		r.load(2149, nil)
		taken := 0
		r.s.Every(0, hb2149WriteEvery, func() bool {
			// One measurement per completed flush, up to 10.
			if n := r.st.BlockTimes().Count(); int(n) > taken && taken < 10 {
				record(setting, r.st.BlockTimes().Last().Seconds())
				taken = int(n)
			}
			if taken >= 10 {
				r.s.Stop()
			}
			return taken < 10
		})
		r.s.RunUntil(time.Hour)
	})
}

// hb2149Spec is the flush-fraction controller every HB2149 harness
// synthesizes.
func hb2149Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "global.memstore.lowerLimit",
		Metric:  "write_block_time",
		Goal:    hb2149Goal1,
		Hard:    false, // soft constraint: SLA-style, occasional excursions tolerated
		Initial: 0.5,
		Min:     0.01, Max: 1,
	}
}

// memstoreRig is the HB2149 memstore substrate wired once for the figure
// and chaos harnesses.
type memstoreRig struct {
	s     *sim.Simulation
	st    *kvstore.Memstore
	until time.Duration
}

func newMemstoreRig(until time.Duration) *memstoreRig {
	s := newScenarioSim()
	return &memstoreRig{s: s, st: kvstore.NewMemstore(s, memsim.NewHeap(2<<30), hb2149Config(), 0.5), until: until}
}

// sense reads the last completed flush's block time.
func (r *memstoreRig) sense() (perf, deputy float64) {
	return r.st.BlockTimes().Last().Seconds(), 0 //sc:HB2149:sensor
}

func (r *memstoreRig) actuate(v float64) { r.st.SetFlushFraction(v) } //sc:HB2149:invoke

// attach runs tick when a flush triggers: conditional configuration, the
// natural call site IS the condition (§4.2). The first flush has no
// completed measurement yet (Count() == 0), so tick waits for one instead
// of acting on a phantom 0 s sample that would read "goal comfortably met"
// and push the knob off fabricated data.
func (r *memstoreRig) attach(tick func()) {
	r.st.BeforeFlush = func() {
		if r.st.BlockTimes().Count() > 0 {
			tick()
		}
	}
}

// load writes 1 MB every hb2149WriteEvery, surge times over.
func (r *memstoreRig) load(seed int64, env *chaos.Env) {
	gen := workload.NewYCSB(seed, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb})
	r.s.Every(0, hb2149WriteEvery, func() bool {
		for i := 0; i < int(env.SurgeFactor()+0.5); i++ {
			r.st.Write(gen.NextOp().Bytes)
		}
		return r.s.Now() < r.until && !r.st.Crashed()
	})
}

// probe samples each new block time and the flush fraction.
func (r *memstoreRig) probe() *probe {
	p := &probe{}
	p.trackNew("block_time", "s", fresh(r.st.BlockTimes().Count), func() float64 { return r.st.BlockTimes().Last().Seconds() })
	p.track("flush_fraction", "fraction", r.st.FlushFraction)
	p.start(r.s, func() bool { return r.s.Now() < r.until && !r.st.Crashed() })
	return p
}

// RunHB2149 executes the two-phase evaluation under the given policy.
func RunHB2149(p Policy) Result {
	r := newMemstoreRig(hb2149RunTime)

	setGoal := func(float64) {} // static policies have no goal to move
	switch p.Kind {
	case StaticPolicy:
		r.st.SetFlushFraction(p.Static)
	case SmartConfPolicy:
		sc := mustConf(hb2149Spec(), ProfileHB2149())
		control(r, directStep(sc))
		setGoal = sc.SetGoal //sc:HB2149:invoke
	case SinglePolePolicy, NoVirtualGoalPolicy:
		// The Figure 7 ablations target hard memory goals; for this soft
		// scenario they behave like SmartConf and are not studied.
		return runCached(HB2149Scenario(), SmartConf())
	}

	probe := r.probe()
	probe.track("write_throughput", "ops/s", r.st.Throughput)
	r.s.At(hb2149PhaseShift, func() { setGoal(hb2149Goal2) })
	r.load(2150, nil)
	r.s.RunUntil(hb2149RunTime)

	res := HB2149Scenario().result(p, float64(r.st.Writes())/hb2149RunTime.Seconds(), probe)
	judgeSoft(&res, probe.metric(), goalChange(hb2149Goal1, hb2149Goal2, hb2149PhaseShift+hb2149Grace), "block")
	return res
}

// HB2149Scenario returns the scenario descriptor.
func HB2149Scenario() Scenario {
	return Scenario{
		ID:                "HB2149",
		Conf:              "global.memstore.lowerLimit",
		Description:       "decides how much memstore data is flushed; too big, write blocked too long; too small, write blocked too often",
		Flags:             "Y-Y-N",
		ConstraintName:    "worst write block ≤ 10s → 5s (soft)",
		TradeoffName:      "write throughput (ops/s)",
		HigherIsBetter:    true,
		ProfilingWorkload: "YCSB 1.0W, 1MB @ fraction 0.2/0.4/0.6/0.8",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB, block ≤ 10s", "YCSB 1.0W, 1MB, block ≤ 5s"},
		BuggyDefault:      0.95, // drain almost everything: ~7.8s blocks — breaks the 5s goal
		PatchDefault:      0.2,  // conservative patched default: safe but flush-happy
		StaticGrid:        []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.65, 0.8, 0.95},
		NonOptimal:        0.05,
		Run:               RunHB2149,
	}
}
