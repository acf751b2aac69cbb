package experiments

import (
	"time"

	"smartconf"
	"smartconf/internal/core"
	"smartconf/internal/workload"
)

// HB3813: ipc.server.max.queue.size bounds the RPC call queue. Queued and
// in-flight payloads live on the heap, so the bound indirectly caps memory
// (hard OOM constraint); but the deeper the queue, the bigger the dispatch
// batches and the higher the throughput (the trade-off metric).
//
// Paper flags: N-N-Y (always-on, indirect, hard).

const (
	hb3813RunTime     = 700 * time.Second
	hb3813PhaseShift  = 350 * time.Second // workload shifts mid-run
	hb3813BurstSize   = 300
	hb3813BurstEvery  = 7500 * time.Millisecond // 40 ops/s offered
	hb3813Spacing     = 2 * time.Millisecond
	hb3813ProfileStep = 60 * time.Second
)

func hb3813Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		{Name: "phase-1", Duration: hb3813PhaseShift, WriteRatio: 1.0, RequestBytes: 1 * mb},
		{Name: "phase-2", WriteRatio: 1.0, RequestBytes: 2 * mb},
	}
}

// hb3813Spec is the queue-bound controller every HB3813 harness
// synthesizes: the 495 MB hard memory goal, starting from the paper's
// deliberately poor value 0 (Fig. 6c).
func hb3813Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "ipc.server.max.queue.size",
		Metric:  "memory_consumption",
		Goal:    float64(rpcMemoryGoal),
		Hard:    true,
		Initial: 0,
		Min:     0, Max: 5000,
	}
}

// ProfileHB3813 runs the paper's profiling campaign: the PROFILING workload
// (YCSB 1.0W, 1 MB — distinct from the evaluation's two-phase workload) with
// ipc.server.max.queue.size pinned at 40, 80, 120 and 160 (the paper's
// values), collecting 10 heap measurements per setting, taken at enqueue
// time as §6.1 describes.
func ProfileHB3813() core.Profile {
	return profileSweep("HB3813", []float64{40, 80, 120, 160}, func(setting float64, record func(setting, measurement float64)) {
		r := newRPCRig(newScenarioSim(), 3813, rpcHeapCapacity, rpcConfig(), hb3813ProfileStep)
		r.sv.SetMaxQueue(int(setting))
		r.noise()
		enqueues, taken := 0, 0
		r.attach(func() {
			enqueues++
			// Spread 10 samples across the window: one every ~200 enqueues.
			if enqueues%200 == 0 && taken < 10 {
				record(setting, float64(r.heap.Used()))
				taken++
			}
		})
		r.load(ycsbBursts(3813, hb3813BurstSize, hb3813BurstEvery, hb3813Spacing,
			workload.YCSBPhase{Name: "profiling", WriteRatio: 1, RequestBytes: 1 * mb}))
		r.s.RunUntil(hb3813ProfileStep)
	})
}

// hb3813Load is one HB3813 workload: phases, horizon, seed and burst shape.
type hb3813Load struct {
	phases              []workload.YCSBPhase
	runTime             time.Duration
	seed                int64
	burstSize           int
	burstEvery, spacing time.Duration
}

// hb3813Standard is the two-phase evaluation workload.
func hb3813Standard() hb3813Load {
	return hb3813Load{hb3813Phases(), hb3813RunTime, 3813, hb3813BurstSize, hb3813BurstEvery, hb3813Spacing}
}

// RunHB3813 executes the two-phase evaluation under the given policy.
func RunHB3813(p Policy) Result {
	return runHB3813(p, hb3813Standard(), hb3813Policy(p))
}

// runHB3813 runs one HB3813 workload; attach wires the knob's policy onto
// the rig before any load is registered. The Figure 7 ablation and the
// beyond-the-paper ablations share it with their own policies.
func runHB3813(p Policy, l hb3813Load, attach func(r *rpcRig)) Result {
	r := newRPCRig(newScenarioSim(), l.seed, rpcHeapCapacity, rpcConfig(), l.runTime)
	attach(r)
	r.noise()
	probe := r.probe(r.maxQueue, "max.queue.size")
	r.load(ycsbBursts(l.seed+1, l.burstSize, l.burstEvery, l.spacing, l.phases...))
	return r.result(HB3813Scenario(), p, probe, constGoal(float64(rpcMemoryGoal)))
}

// hb3813Policy wires a Policy onto the HB3813 rig.
func hb3813Policy(p Policy) func(r *rpcRig) {
	switch {
	case p.Kind == StaticPolicy:
		return func(r *rpcRig) { r.sv.SetMaxQueue(int(p.Static)) }
	case p.Kind == SmartConfPolicy && p.FixedPole == 0:
		return func(r *rpcRig) { r.decide(roundedStep(mustIndirect(hb3813Spec(), ProfileHB3813(), nil))) }
	}
	// The Figure 7 study: pinned-pole SmartConf and the two ablations. All
	// three controllers sample at the same 1 Hz cadence so the only
	// differences under test are the §5.2 mechanisms themselves (virtual
	// goal, danger-region pole). SmartConf additionally applies the §5.3
	// indirect-configuration treatment (update from the deputy's current
	// value); the baselines are classic incremental controllers.
	return func(r *rpcRig) {
		ctrl := ablationController(p.Kind, ProfileHB3813(), float64(rpcMemoryGoal), p.FixedPole)
		r.sv.SetMaxQueue(0) // the same poor initial value every policy starts from
		r.s.Every(time.Second, time.Second, func() bool {
			if r.sv.Crashed() {
				return false
			}
			perf, deputy := r.sense()
			if p.Kind == SmartConfPolicy {
				ctrl.SetConf(deputy)
			}
			r.actuate(ctrl.Update(perf))
			return r.s.Now() < r.until
		})
	}
}

// HB3813Scenario returns the scenario descriptor.
func HB3813Scenario() Scenario {
	return Scenario{
		ID:                "HB3813",
		Conf:              "ipc.server.max.queue.size",
		Description:       "limits RPC-call queue size; too big, OOM; too small, read/write throughput hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "memory ≤ 495MB (hard, no OOM)",
		TradeoffName:      "completed ops/s",
		HigherIsBetter:    true,
		ProfilingWorkload: "YCSB 1.0W, 1MB @ queue 40/80/120/160",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB", "YCSB 1.0W, 2MB"},
		BuggyDefault:      1000, // the pre-patch default
		PatchDefault:      100,  // the patched default — still fails phase 2
		StaticGrid:        []float64{10, 25, 50, 75, 90, 110, 130, 150, 200, 300},
		NonOptimal:        25,
		Run:               RunHB3813,
	}
}
