package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Shared machinery for the RPC-server scenarios (HB3813, HB6728, and the
// Figure 6–8 case studies) and the scoring helpers every scenario uses.

const (
	mb = int64(1) << 20

	// rpcHeapCapacity is the simulated region server's JVM heap; the user's
	// memory goal (495 MB, as in Figure 6) sits just under it.
	rpcHeapCapacity = 512 * mb
	rpcMemoryGoal   = 495 * mb
	// rpcBaseHeap models code/metadata/block-cache residency.
	rpcBaseHeap = 280 * mb
	// rpcNoiseMax bounds the random-walk footprint of "other objects".
	rpcNoiseMax = 20 * mb
)

func rpcConfig() rpcserver.Config {
	cfg := rpcserver.DefaultConfig()
	cfg.BaseHeapBytes = rpcBaseHeap
	cfg.MaxBatch = 4
	return cfg
}

// rpcWorkload drives bursty YCSB traffic into the server: every burstEvery,
// a burst of ~burstSize operations arrives back-to-back. Bursts are what
// fill the call queue to its bound (and what OOM unbounded queues).
type rpcWorkload struct {
	gen        *workload.YCSB
	burstSize  int
	burstEvery time.Duration
	// spacing is the gap between operations inside a burst (default 10 ms):
	// bursts are fast relative to the drain rate but not instantaneous, so
	// the controller can react while one is arriving.
	spacing time.Duration
	phases  []workload.YCSBPhase
	// env, when set, scales every burst by the chaos plan's surge factor.
	env *chaos.Env
}

// ycsbBursts builds a burst workload whose generator starts in phases[0].
func ycsbBursts(seed int64, size int, every, spacing time.Duration, phases ...workload.YCSBPhase) *rpcWorkload {
	return &rpcWorkload{gen: workload.NewYCSB(seed, 1000, phases[0]), burstSize: size,
		burstEvery: every, spacing: spacing, phases: phases}
}

// run starts the burst loop and the phase switcher; onOp receives each
// operation.
func (w *rpcWorkload) run(s *sim.Simulation, until time.Duration, rng *rand.Rand, onOp func(workload.Op)) {
	spacing := w.spacing
	if spacing <= 0 {
		spacing = 10 * time.Millisecond
	}
	s.Every(0, w.burstEvery, func() bool {
		if phase, _ := workload.PhaseAt(w.phases, s.Now()); phase.Name != w.gen.Phase().Name {
			w.gen.SetPhase(phase)
		}
		size := int(float64(w.burstSize) * w.env.SurgeFactor())
		n := size + rng.Intn(size/5+1) - size/10 // ±10%
		for i := 0; i < n; i++ {
			op := w.gen.NextOp()
			s.After(time.Duration(i)*spacing, func() { onOp(op) })
		}
		return s.Now() < until
	})
}

// heapNoise injects the fluctuating "other objects" footprint: a bounded
// random walk re-sampled every 500 ms. A failed noise allocation is an OOM
// like any other.
func heapNoise(s *sim.Simulation, heap *memsim.Heap, rng *rand.Rand, max int64, until time.Duration) {
	var current int64
	s.Every(250*time.Millisecond, 500*time.Millisecond, func() bool {
		if heap.OOM() {
			return false
		}
		delta := int64(rng.Intn(int(10*mb+1))) - 5*mb
		next := current + delta
		if next < 0 {
			next = 0
		}
		if next > max {
			next = max
		}
		if next > current {
			if err := heap.Alloc(next - current); err != nil {
				return false
			}
		} else {
			heap.Free(current - next)
		}
		current = next
		return s.Now() < until
	})
}

// rpcRig is the RPC server substrate wired once for every harness that runs
// it (HB3813, HB6728, SLA, distributed, robustness, Figures 6-8, AIMD, the
// chaos matrix): the simulation, heap and server; the HB3813 queue bound's
// sensor and actuator; the admission hook a controller attaches to; the
// heap noise and burst load; and the probe.
type rpcRig struct {
	s     *sim.Simulation
	rng   *rand.Rand // shared by the heap noise and the burst jitter
	heap  *memsim.Heap
	sv    *rpcserver.Server
	until time.Duration
	oomAt time.Duration
}

// newRPCRig builds a rig on s; cluster nodes share one simulation.
func newRPCRig(s *sim.Simulation, seed, heapBytes int64, cfg rpcserver.Config, until time.Duration) *rpcRig {
	r := &rpcRig{s: s, rng: rand.New(rand.NewSource(seed)), heap: memsim.NewHeap(heapBytes), until: until}
	r.sv = rpcserver.New(s, r.heap, cfg)
	r.heap.OnOOM(func() { r.oomAt = s.Now() })
	return r
}

// sense reads the hard memory metric and its deputy, the queue length.
func (r *rpcRig) sense() (perf, deputy float64) {
	return float64(r.heap.Used()), float64(r.sv.QueueLen()) //sc:HB3813:sensor
}

func (r *rpcRig) actuate(v float64) { r.sv.SetMaxQueue(int(v)) } //sc:HB3813:invoke

// attach runs tick at every admission, before the queue bound is checked.
func (r *rpcRig) attach(tick func()) { r.sv.BeforeAdmit = tick }

// decide attaches a controller that maps each (memory, queue length)
// sample to the next queue bound, starting from the paper's deliberately
// poor bound 0 (Fig. 6c).
func (r *rpcRig) decide(next stepFunc) {
	r.sv.SetMaxQueue(0)
	control(r, next)
}

func (r *rpcRig) noise() { heapNoise(r.s, r.heap, r.rng, rpcNoiseMax, r.until) }

// load starts a burst workload against the server.
func (r *rpcRig) load(w *rpcWorkload) {
	w.run(r.s, r.until, r.rng, func(op workload.Op) { r.sv.Offer(op) })
}

func (r *rpcRig) maxQueue() float64 { return float64(r.sv.MaxQueue()) }

func (r *rpcRig) probe(knob func() float64, knobName string) *probe {
	p := &probe{}
	p.track("used_memory", "bytes", func() float64 { return float64(r.heap.Used()) })
	p.track(knobName, "items", knob)
	p.start(r.s, func() bool { return r.s.Now() < r.until && !r.heap.OOM() })
	return p
}

// result runs to the horizon and scores the run: completed ops/s against
// the memory goal. The figures' throughput series join the probe before
// its first tick.
func (r *rpcRig) result(sc Scenario, p Policy, probe *probe, goalAt func(time.Duration) float64) Result {
	probe.track("throughput", "ops/s", r.sv.Throughput)
	probe.track("completed_ops", "ops", func() float64 { return float64(r.sv.Completed()) })
	r.s.RunUntil(r.until)
	res := sc.result(p, float64(r.sv.Completed())/r.until.Seconds(), probe)
	judgeMemory(&res, r.heap.OOM(), r.oomAt, probe.metric(), goalAt)
	return res
}

// judgeMemory sets res's verdict against a hard memory goal: an OOM first,
// else the first sample above goalAt.
func judgeMemory(res *Result, oom bool, oomAt time.Duration, mem Series, goalAt func(time.Duration) float64) {
	met, at, worst := evalUpperBound(mem, goalAt)
	switch {
	case oom:
		res.ViolatedAt = oomAt
		res.Violation = "OOM"
	case !met:
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("memory %.0fMB > goal %.0fMB", worst/float64(mb), goalAt(at)/float64(mb))
	default:
		res.ConstraintMet = true
	}
}

// judgeSoft sets res's verdict against a soft goal on series, with the 5%
// measurement slack soft goals are judged with (the paper's soft goals are
// not overshoot-free).
func judgeSoft(res *Result, series Series, goalAt func(time.Duration) float64, label string) {
	met, at, worst := evalUpperBound(series, func(t time.Duration) float64 { return goalAt(t) * 1.05 })
	res.ConstraintMet = met
	if !met {
		res.ViolatedAt = at
		res.Violation = fmt.Sprintf("%s %.1fs > goal %.1fs", label, worst, goalAt(at))
	}
}

func constGoal(g float64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return g }
}

// goalChange is a goal that steps from before to after at t = at: a
// mid-run setGoal, judged after the controller's settling window.
func goalChange(before, after float64, at time.Duration) func(time.Duration) float64 {
	return func(t time.Duration) float64 {
		if t < at {
			return before
		}
		return after
	}
}

// ablationController builds the Figure 7 controllers from the same
// profiling data SmartConf synthesizes from. fixedPole > 0 pins the regular
// pole (the paper uses 0.9 so two-pole switching is the only difference
// between SmartConf and the single-pole baseline).
func ablationController(kind PolicyKind, profile core.Profile, goal, fixedPole float64) *core.Controller {
	model, err := profile.Fit()
	if err != nil {
		panic(fmt.Sprintf("ablation synthesis: %v", err))
	}
	pole := core.PoleFromDelta(profile.Delta())
	if fixedPole > 0 {
		pole = fixedPole
	}
	target, hard, lambda := goal, true, profile.Lambda()
	switch kind {
	case SmartConfPolicy:
		// Full SmartConf with a pinned regular pole: hard goal ⇒ virtual
		// goal + danger-region pole 0.
	case SinglePolePolicy:
		// Same virtual goal as SmartConf, but the regular pole everywhere:
		// model it as a SOFT goal whose target is the virtual goal (no
		// danger-region switch ever happens).
		target, hard = core.VirtualGoal(goal, lambda, core.UpperBound), false
	case NoVirtualGoalPolicy:
		// Two-pole logic but targeting the REAL constraint: λ = 0 places the
		// virtual goal exactly on the goal.
		lambda = 0
	default:
		return nil
	}
	ctrl, err := core.NewController(model, pole, lambda,
		core.Goal{Metric: "memory", Target: target, Hard: hard}, core.Options{Min: 0, Max: 1e9})
	if err != nil {
		panic(fmt.Sprintf("ablation synthesis: %v", err))
	}
	return ctrl
}

// publicProfile converts an internal profile to the public API type.
func publicProfile(p core.Profile) *smartconf.Profile {
	out := smartconf.NewProfile()
	for _, s := range p.Settings {
		out.Add(s.Setting, s.Samples...)
	}
	return out
}

// evalUpperBound scans a metric series against a per-time goal and reports
// the first violation.
func evalUpperBound(series Series, goalAt func(t time.Duration) float64) (met bool, at time.Duration, worst float64) {
	met = true
	for _, p := range series.Points {
		if p.V > goalAt(p.T) {
			if met {
				met = false
				at = p.T
			}
			if p.V > worst {
				worst = p.V
			}
		}
	}
	return met, at, worst
}
