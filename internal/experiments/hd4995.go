package experiments

import (
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/dfs"
	"smartconf/internal/sim"
)

// HD4995: content-summary.limit decides how many files a du traversal
// processes per namesystem-lock acquisition. Long lock holds block every
// concurrent writer (the user's worst-case block constraint); short holds
// pay the lock re-acquisition overhead over and over, inflating du latency
// (the trade-off metric).
//
// This is a goal-change scenario in Table 6: multi-client phase 1 tolerates
// 20 s writer blocks, phase 2 tightens the goal to 10 s.
//
// Paper flags: Y-N-N (conditional, indirect, soft).

const (
	hd4995RunTime    = 700 * time.Second
	hd4995PhaseShift = 350 * time.Second
	hd4995Goal1      = 20.0 // seconds of worst-case writer block (lock hold)
	hd4995Goal2      = 10.0
	hd4995Grace      = 120 * time.Second // one du to converge after setGoal
	hd4995DuEvery    = 120 * time.Second
)

func hd4995Config() dfs.Config {
	return dfs.Config{
		PerFileCost:       500 * time.Microsecond,
		ReacquireOverhead: 8 * time.Second,
		InitialFiles:      100_000, // a 50 s full traversal
	}
}

// ProfileHD4995 profiles lock-hold duration against the pinned chunk limit
// under the profiling workload (TestDFSIO, single client: light writer load).
func ProfileHD4995() core.Profile {
	return profileSweep("HD4995", []float64{5_000, 15_000, 30_000, 60_000}, func(setting float64, record func(setting, measurement float64)) {
		s := newScenarioSim()
		nn := dfs.New(s, hd4995Config(), int(setting))
		// Single writer client at 2 writes/s (the profiling workload).
		s.Every(0, 500*time.Millisecond, func() bool {
			nn.Write()
			return s.Now() < 10*time.Minute
		})
		// Samples pair the deputy (files actually traversed in the hold)
		// with the measured hold time; partial final chunks are thereby
		// attributed to their true size instead of biasing the slope.
		isNew := fresh(nn.HoldTimes().Count)
		sampleTen(s, time.Second, time.Second, record, func() (float64, float64, bool) {
			return float64(nn.LastChunkFiles()), nn.HoldTimes().Last().Seconds(), isNew()
		})
		// Back-to-back du requests supply enough lock holds.
		var loop func(time.Duration)
		loop = func(time.Duration) { nn.Du(loop) }
		s.At(0, func() { nn.Du(loop) })
		s.RunUntil(10 * time.Minute)
	})
}

// hd4995Spec is the chunk-limit controller every HD4995 harness
// synthesizes: a uselessly small starting value SmartConf recovers from.
func hd4995Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "content-summary.limit",
		Metric:  "writer_block_time",
		Goal:    hd4995Goal1,
		Hard:    false, // soft latency constraint
		Initial: 1,
		Min:     1, Max: 1e7,
	}
}

// dfsRig is the HD4995 namenode substrate wired once for the figure and
// chaos harnesses.
type dfsRig struct {
	s     *sim.Simulation
	rng   *rand.Rand // writer jitter
	nn    *dfs.NameNode
	until time.Duration
}

func newDFSRig(seed int64, until time.Duration) *dfsRig {
	s := newScenarioSim()
	return &dfsRig{s: s, rng: rand.New(rand.NewSource(seed)), nn: dfs.New(s, hd4995Config(), 1), until: until}
}

// sense reads the last completed lock hold and its deputy, the files
// actually traversed in that hold.
func (r *dfsRig) sense() (perf, deputy float64) {
	return r.nn.HoldTimes().Last().Seconds(), float64(r.nn.LastChunkFiles()) //sc:HD4995:sensor
}

func (r *dfsRig) actuate(v float64) { r.nn.SetLimit(int(v)) } //sc:HD4995:invoke

// attach runs tick per lock acquisition during a du. On the first chunk of
// the first du no hold has completed (Count() == 0), so tick waits rather
// than feeding a phantom 0 s hold paired with a stale deputy reading.
func (r *dfsRig) attach(tick func()) {
	r.nn.BeforeChunk = func() {
		if r.nn.HoldTimes().Count() > 0 {
			tick()
		}
	}
}

// load starts the multi-client writer load (20 writes/s with jitter, surge
// times over) and a du every duEvery (the content-summary consumer).
func (r *dfsRig) load(duEvery time.Duration, env *chaos.Env) {
	r.s.Every(0, 50*time.Millisecond, func() bool {
		if r.rng.Float64() < 0.95 {
			for i := 0; i < int(env.SurgeFactor()+0.5); i++ {
				r.nn.Write()
			}
		}
		return r.s.Now() < r.until
	})
	r.s.Every(10*time.Second, duEvery, func() bool {
		r.nn.Du(nil)
		return r.s.Now() < r.until
	})
}

// probe samples each new lock hold and the limit.
func (r *dfsRig) probe() *probe {
	p := &probe{}
	p.trackNew("lock_hold", "s", fresh(r.nn.HoldTimes().Count), func() float64 { return r.nn.HoldTimes().Last().Seconds() })
	p.track("content-summary.limit", "files", func() float64 { return float64(r.nn.Limit()) })
	p.start(r.s, func() bool { return r.s.Now() < r.until })
	return p
}

// RunHD4995 executes the two-phase evaluation under the given policy.
func RunHD4995(p Policy) Result {
	r := newDFSRig(4995, hd4995RunTime)

	setGoal := func(float64) {} // static policies have no goal to move
	switch p.Kind {
	case StaticPolicy:
		r.nn.SetLimit(int(p.Static))
	case SmartConfPolicy:
		// Conditional + indirect: invoked per lock acquisition during a du;
		// the deputy is the actual files-per-hold of the last chunk.
		ic := mustIndirect(hd4995Spec(), ProfileHD4995(), nil)
		control(r, roundedStep(ic))
		setGoal = ic.SetGoal //sc:HD4995:invoke
	case SinglePolePolicy, NoVirtualGoalPolicy:
		return runCached(HD4995Scenario(), SmartConf()) // ablations target hard memory goals
	}

	probe := r.probe()
	r.s.At(hd4995PhaseShift, func() { setGoal(hd4995Goal2) })
	r.load(hd4995DuEvery, nil)
	r.s.RunUntil(hd4995RunTime)

	res := HD4995Scenario().result(p, r.nn.DuLatency().OverallMean().Seconds(), probe)
	goalAt := goalChange(hd4995Goal1, hd4995Goal2, hd4995PhaseShift+hd4995Grace)
	judgeSoft(&res, probe.metric(), func(t time.Duration) float64 {
		if t < hd4995Grace {
			// Initial convergence window: every policy gets the same slack
			// while a controller climbs from its deliberately poor initial
			// value (statics are unaffected unless they only violate here).
			return 1e12
		}
		return goalAt(t)
	}, "lock hold")
	if r.nn.DusDone() == 0 {
		res.ConstraintMet = false
		res.Violation = "no du completed"
	}
	return res
}

// HD4995Scenario returns the scenario descriptor.
func HD4995Scenario() Scenario {
	return Scenario{
		ID:                "HD4995",
		Conf:              "content-summary.limit",
		Description:       "limits #files traversed before du releases the big lock; too big, writes blocked long; too small, du latency hurts",
		Flags:             "Y-N-N",
		ConstraintName:    "worst writer block ≤ 20s → 10s (soft)",
		TradeoffName:      "mean du latency (s)",
		HigherIsBetter:    false,
		ProfilingWorkload: "TestDFSIO single-client @ limit 5k/15k/30k/60k",
		PhaseWorkloads:    [2]string{"TestDFSIO multi-client, block ≤ 20s", "TestDFSIO multi-client, block ≤ 10s"},
		BuggyDefault:      1e7, // the hard-coded behaviour: traverse everything in one hold
		PatchDefault:      1e7, // the patch exposed the knob but kept the old default (§6.2)
		StaticGrid:        []float64{2_000, 5_000, 10_000, 20_000, 30_000, 40_000, 60_000, 100_000},
		NonOptimal:        2_000,
		Run:               RunHD4995,
	}
}
