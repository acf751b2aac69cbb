package experiments

import (
	"math/rand"
	"testing"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Failure injection: the environment changes out from under the controller.
// Every fault here is expressed through the chaos injector catalog, so the
// scheduled disturbance and the replay seed fully determine each run.

// runHB3813Chaos drives the HB3813 plant under a chaos plan. faults sees the
// constructed plant so injectors can reference the heap, the controller, and
// the loop; observe (optional) schedules extra probes before the run starts.
func runHB3813Chaos(t *testing.T,
	faults func(heap *memsim.Heap, ic *smartconf.IndirectConf, loop *chaos.Loop) []chaos.Fault,
	observe func(s *sim.Simulation, sv *rpcserver.Server),
) (oom bool, oomAt time.Duration, completed int64) {
	t.Helper()
	const runTime = 500 * time.Second
	s := sim.New()
	rng := rand.New(rand.NewSource(4242))
	heap := memsim.NewHeap(rpcHeapCapacity)
	sv := rpcserver.New(s, heap, rpcConfig())
	sv.SetMaxQueue(0)

	ic, err := smartconf.NewIndirect(smartconf.Spec{
		Name:   "ipc.server.max.queue.size",
		Metric: "memory_consumption",
		Goal:   float64(rpcMemoryGoal),
		Hard:   true,
		Min:    0, Max: 5000,
	}, publicProfile(ProfileHB3813()), nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := chaos.NewLoop(s, chaos.LoopConfig{
		Sense: func() (float64, float64) { return float64(heap.Used()), float64(sv.QueueLen()) },
		Step: func(perf, deputy float64) float64 {
			ic.SetPerf(perf, deputy)
			return ic.Value()
		},
		Actuate: func(v float64) { sv.SetMaxQueue(int(v)) },
	})
	sv.BeforeAdmit = loop.Tick

	plan := &chaos.Plan{Name: "failure", Seed: 4242, Faults: faults(heap, ic, loop)}
	env := plan.Arm(s, loop)

	heapNoise(s, heap, rng, rpcNoiseMax, runTime)
	heap.OnOOM(func() { oom, oomAt = true, s.Now() })
	if observe != nil {
		observe(s, sv)
	}

	gen := workload.NewYCSB(4242, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 << 20})
	s.Every(0, hb3813BurstEvery, func() bool {
		n := int(float64(hb3813BurstSize) * env.SurgeFactor())
		for i := 0; i < n; i++ {
			op := gen.NextOp()
			s.After(time.Duration(i)*hb3813Spacing, func() { sv.Offer(op) })
		}
		return s.Now() < runTime
	})
	s.RunUntil(runTime)
	return oom, oomAt, sv.Completed()
}

// TestFailureInjectionCapacityDropWithGoalUpdate: the heap budget shrinks
// mid-run (a co-tenant claims 130 MB) and the administrator lowers the goal
// accordingly through the shrink's Then hook — SmartConf re-converges with no
// OOM.
func TestFailureInjectionCapacityDropWithGoalUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	oom, at, completed := runHB3813Chaos(t,
		func(heap *memsim.Heap, ic *smartconf.IndirectConf, _ *chaos.Loop) []chaos.Fault {
			return []chaos.Fault{chaos.HeapShrink{
				At: 250 * time.Second, Heap: heap, NewCapacity: 382 * mb,
				Then: func() { ic.SetGoal(float64(365 * mb)) },
			}}
		}, nil)
	if oom {
		t.Fatalf("OOM at %v despite the goal update", at)
	}
	if completed == 0 {
		t.Fatal("no work completed")
	}
}

// TestFailureInjectionCapacityDropWithoutGoalUpdate documents the contract:
// if the physical budget shrinks below the declared goal and nobody updates
// the goal, the controller keeps targeting a now-impossible constraint and
// the system dies. (SmartConf controls toward what users DECLARE; it cannot
// know the heap itself shrank.)
func TestFailureInjectionCapacityDropWithoutGoalUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	oom, at, _ := runHB3813Chaos(t,
		func(heap *memsim.Heap, _ *smartconf.IndirectConf, _ *chaos.Loop) []chaos.Fault {
			return []chaos.Fault{chaos.HeapShrink{
				At: 250 * time.Second, Heap: heap, NewCapacity: 382 * mb,
			}} // far below the still-declared 495 MB goal
		}, nil)
	if !oom {
		t.Fatal("expected OOM when the goal is left stale")
	}
	if at < 250*time.Second {
		t.Errorf("OOM at %v predates the injected fault", at)
	}
}

// TestFailureInjectionSensorOutage: a full sensor dropout from 200 s to the
// end of the run. The knob must freeze at its last actuated value rather than
// drift, and the system keeps serving.
func TestFailureInjectionSensorOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	var frozenAt, finalV float64
	oom, _, completed := runHB3813Chaos(t,
		func(_ *memsim.Heap, _ *smartconf.IndirectConf, _ *chaos.Loop) []chaos.Fault {
			return []chaos.Fault{chaos.SensorDropout{Start: 200 * time.Second, Prob: 1}}
		},
		func(s *sim.Simulation, sv *rpcserver.Server) {
			// Sample after the outage begins: no measurement can reach the
			// controller past 200 s, so any later change is drift.
			s.At(205*time.Second, func() { frozenAt = float64(sv.MaxQueue()) })
			s.At(499*time.Second, func() { finalV = float64(sv.MaxQueue()) })
		})
	if oom {
		t.Fatal("OOM during sensor outage (steady workload)")
	}
	if finalV != frozenAt {
		t.Errorf("knob drifted during outage: %v → %v", frozenAt, finalV)
	}
	if completed == 0 {
		t.Error("no work completed")
	}
}

// TestFailureInjectionWorkloadSpike: a 4× burst surge arrives for 50 s
// without any profiling evidence for it; the hard-goal machinery must still
// prevent OOM.
func TestFailureInjectionWorkloadSpike(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	oom, at, _ := runHB3813Chaos(t,
		func(_ *memsim.Heap, _ *smartconf.IndirectConf, _ *chaos.Loop) []chaos.Fault {
			return []chaos.Fault{chaos.WorkloadSurge{
				Start: 200 * time.Second, Duration: 50 * time.Second, Factor: 4,
			}}
		}, nil)
	if oom {
		t.Fatalf("OOM at %v under the unprofiled workload spike", at)
	}
}

// runLLMKVChaos drives the LLM serving plant under a chaos plan: the hard
// GPU-memory goal with the knob in token space (§5.3 indirect configuration).
func runLLMKVChaos(t *testing.T, phase workload.LLMPhase,
	faults func(heap *memsim.Heap, phases []workload.LLMPhase) []chaos.Fault,
) (oom bool, oomAt time.Duration, completed int64) {
	t.Helper()
	const runTime = 300 * time.Second
	r := newLLMRig(9001, llmHeapCapacity, runTime)

	ic, err := smartconf.NewIndirect(smartconf.Spec{
		Name:   "max.num.batched.tokens",
		Metric: "gpu_memory_consumption",
		Goal:   float64(llmMemoryGoal),
		Hard:   true,
		Min:    0, Max: float64(llmHeapCapacity),
	}, publicProfile(ProfileLLMKV()), smartconf.Scale(1/r.kvb))
	if err != nil {
		t.Fatal(err)
	}
	loop := chaos.NewLoop(r.s, chaos.LoopConfig{Sense: r.sense, Step: indirectStep(ic), Actuate: r.actuate})
	r.attach(loop.Tick)

	phases := []workload.LLMPhase{phase}
	plan := &chaos.Plan{Name: "failure", Seed: 9001, Faults: faults(r.heap, phases)}
	env := plan.Arm(r.s, loop)

	r.noise()
	r.heap.OnOOM(func() { oom, oomAt = true, r.s.Now() })
	r.load(phases, 9002, env)
	r.s.RunUntil(runTime)
	return oom, oomAt, r.sv.Completed()
}

// TestFailureInjectionLLMKVPressureSpike: an uncounted 1 GiB allocation
// lands on the GPU for 30 s (a co-located job's KV spill). The controller
// senses the occupancy jump and closes the token budget; the spike must not
// OOM the server.
func TestFailureInjectionLLMKVPressureSpike(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	chat := workload.LLMPhase{Name: "chat", RequestsPerSec: 40, PromptMean: 150, OutputMean: 300,
		BurstSize: 40, BurstSpacing: 50 * time.Millisecond}
	oom, at, completed := runLLMKVChaos(t, chat,
		func(heap *memsim.Heap, _ []workload.LLMPhase) []chaos.Fault {
			return []chaos.Fault{chaos.HeapPressure{
				Start: 100 * time.Second, Duration: 30 * time.Second,
				Heap: heap, Bytes: 1 << 30,
			}}
		})
	if oom {
		t.Fatalf("OOM at %v under the KV-pressure spike", at)
	}
	if completed == 0 {
		t.Fatal("no requests completed")
	}
}

// TestFailureInjectionLLMDecodeAmplification: the workload shifts from long
// prompts with short answers (summarize) to short prompts with 2× longer
// decodes (chat) — per-admitted-token memory amplification the profile never
// saw at the operating point the knob had opened up to. The deputy-based
// update must pull the token budget back without an OOM.
func TestFailureInjectionLLMDecodeAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("failure injection")
	}
	chat := workload.LLMPhase{Name: "chat", RequestsPerSec: 40, PromptMean: 150, OutputMean: 300,
		BurstSize: 40, BurstSpacing: 50 * time.Millisecond}
	summarize := workload.LLMPhase{Name: "summarize", RequestsPerSec: 12, PromptMean: 1800, OutputMean: 220}
	oom, at, completed := runLLMKVChaos(t, summarize,
		func(_ *memsim.Heap, phases []workload.LLMPhase) []chaos.Fault {
			return []chaos.Fault{chaos.PlantShift{
				Label: "decode-amplification", At: 150 * time.Second,
				Apply: func() { phases[0] = chat },
			}}
		})
	if oom {
		t.Fatalf("OOM at %v after the decode-amplification shift", at)
	}
	if completed == 0 {
		t.Fatal("no requests completed")
	}
}

// TestSoakTwoHours runs the HB3813 controller for two hours of virtual time
// under the steady workload: the constraint must hold throughout and the
// knob must not drift (integrator windup, slow leaks in the model state, or
// accounting bugs in the substrate would all surface over this horizon).
func TestSoakTwoHours(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	s := sim.New()
	rng := rand.New(rand.NewSource(314))
	heap := memsim.NewHeap(rpcHeapCapacity)
	sv := rpcserver.New(s, heap, rpcConfig())
	sv.SetMaxQueue(0)
	ic, err := smartconf.NewIndirect(smartconf.Spec{
		Name: "q", Metric: "memory_consumption",
		Goal: float64(rpcMemoryGoal), Hard: true, Min: 0, Max: 5000,
	}, publicProfile(ProfileHB3813()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sv.BeforeAdmit = func() {
		ic.SetPerf(float64(heap.Used()), float64(sv.QueueLen()))
		sv.SetMaxQueue(ic.Conf())
	}

	const runTime = 2 * time.Hour
	heapNoise(s, heap, rng, rpcNoiseMax, runTime)
	var knobAtHour float64
	s.At(time.Hour, func() { knobAtHour = float64(sv.MaxQueue()) })
	w := &rpcWorkload{
		gen:        workload.NewYCSB(315, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 << 20}),
		burstSize:  hb3813BurstSize,
		burstEvery: hb3813BurstEvery,
		spacing:    hb3813Spacing,
		phases:     []workload.YCSBPhase{{Name: "steady", WriteRatio: 1, RequestBytes: 1 << 20}},
	}
	w.run(s, runTime, rng, func(op workload.Op) { sv.Offer(op) })
	s.RunUntil(runTime)

	if heap.OOM() {
		t.Fatal("OOM during the soak")
	}
	if sv.Crashed() {
		t.Fatal("server crashed")
	}
	final := float64(sv.MaxQueue())
	if knobAtHour == 0 || final == 0 {
		t.Fatalf("knob collapsed: 1h=%v end=%v", knobAtHour, final)
	}
	drift := final/knobAtHour - 1
	if drift > 0.5 || drift < -0.5 {
		t.Errorf("knob drifted %.0f%% over the second hour (%v → %v)", 100*drift, knobAtHour, final)
	}
	if got := sv.Completed(); got < 100_000 {
		t.Errorf("only %d ops in two hours — throughput collapsed", got)
	}
}
