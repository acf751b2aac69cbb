package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// The chaos matrix runs every substrate's SmartConf control loop through the
// injector catalog and judges each run with the proptest oracle set. Every
// cell is a pure function of (substrate, fault, seed) — the same determinism
// contract as the figure artifacts — so cells are served from the engine run
// cache and any verdict reproduces from its coordinates alone.

// ChaosGenerated is the pseudo-fault name selecting a seed-generated plan
// (proptest.GenPlan) instead of a named catalog entry. The property tests
// use it; the bench matrix sticks to the named catalog.
const ChaosGenerated = "gen"

// ChaosSeed is the seed of the bench's chaos artifact.
const ChaosSeed = 1

// ChaosSubstrates lists the matrix rows (all five substrates, fixed order).
func ChaosSubstrates() []string {
	return []string{"HB2149", "HB3813", "HD4995", "LLMKV", "MR2820"}
}

// ChaosFaults lists the matrix columns: the named injector catalog. Loop
// faults mean the same thing everywhere; plant-shift and surge are bound to
// a substrate-specific disturbance in each harness (worker loss, flush-rate
// drop, lock-cost increase, decode-amplification shift, co-tenant surge).
func ChaosFaults() []string {
	return []string{
		"sensor-noise", "sensor-dropout", "act-delay",
		"ctrl-stall", "crash-restart", "plant-shift", "surge",
	}
}

// ChaosCell names one matrix cell.
type ChaosCell struct {
	Substrate string
	Fault     string
	Seed      int64
}

// RunChaosCell executes one cell through the run cache: repeated matrix
// builds (and overlapping cells across worker counts) are served without
// re-simulation, which is sound because cells are deterministic in the key.
func RunChaosCell(cell ChaosCell) proptest.Report {
	return memoKeyed("CHAOS-"+cell.Substrate, cell.Fault, "chaos", cell.Seed, func() proptest.Report {
		return runChaosCell(cell.Substrate, cell.Fault, cell.Seed, ChaosHooks{})
	})
}

// RunChaosProperty runs a substrate under the seed-generated fault plan,
// bypassing the run cache: the replay oracle needs two genuine executions.
func RunChaosProperty(substrate string, seed int64) proptest.Report {
	return runChaosCell(substrate, ChaosGenerated, seed, ChaosHooks{})
}

// runChaosCell dispatches one cell; hooks (zero for production cells) carry
// the decision-log capture ring and/or a counterfactual perturbation.
func runChaosCell(substrate, fault string, seed int64, hooks ChaosHooks) proptest.Report {
	switch substrate {
	case "HB2149":
		return runChaosHB2149(fault, seed, hooks)
	case "HB3813":
		return runChaosHB3813(fault, seed, hooks)
	case "HD4995":
		return runChaosHD4995(fault, seed, hooks)
	case "LLMKV":
		return runChaosLLMKV(fault, seed, hooks)
	case "MR2820":
		return runChaosMR2820(fault, seed, hooks)
	}
	panic(fmt.Sprintf("chaos: unknown substrate %q", substrate))
}

// ChaosMatrix runs the full fault × substrate matrix, fanned out across the
// experiment engine's worker pool.
func ChaosMatrix(seed int64) []proptest.Report {
	var cells []ChaosCell
	for _, f := range ChaosFaults() {
		for _, s := range ChaosSubstrates() {
			cells = append(cells, ChaosCell{Substrate: s, Fault: f, Seed: seed})
		}
	}
	return engine.MapSlice(cells, RunChaosCell)
}

// ChaosOracleParams bundles the per-substrate oracle tolerances: Settle
// bounds the post-fault settling transient (a few control periods — flush
// cycles for HB2149, du lock holds for HD4995, the 15 s sense cadence for
// LLMKV), Recover bounds re-convergence after the last fault clears, and
// MinProgress is the work floor below which "survived" would be vacuous.
type ChaosOracleParams struct {
	Settle      time.Duration
	Recover     time.Duration
	MinProgress int64
}

// chaosParams holds the oracle tolerances per substrate.
var chaosParams = map[string]ChaosOracleParams{
	"HB2149": {Settle: 90 * time.Second, Recover: 90 * time.Second, MinProgress: 1000},
	"HB3813": {Settle: 45 * time.Second, Recover: 60 * time.Second, MinProgress: 1000},
	"HD4995": {Settle: 120 * time.Second, Recover: 120 * time.Second, MinProgress: 2},
	"LLMKV":  {Settle: 60 * time.Second, Recover: 90 * time.Second, MinProgress: 500},
	"MR2820": {Settle: 60 * time.Second, Recover: 120 * time.Second, MinProgress: 6},
}

// ChaosParams returns the oracle tolerances for a substrate.
func ChaosParams(substrate string) ChaosOracleParams {
	p, ok := chaosParams[substrate]
	if !ok {
		panic(fmt.Sprintf("chaos: unknown substrate %q", substrate))
	}
	return p
}

// ChaosVerdict applies the oracle set to a report and returns "ok" or
// "FAIL:<first-broken-invariant>".
func ChaosVerdict(r *proptest.Report) string {
	p := ChaosParams(r.Substrate)
	checks := []struct {
		label string
		err   error
	}{
		{"deadlock", proptest.Drains(r)},
		{"no-progress", proptest.MakesProgress(r, p.MinProgress)},
		{"conf-bounds", proptest.ConfInBounds(r)},
		{"goal", proptest.HardGoalBounded(r, p.Settle)},
		{"no-recovery", proptest.RecoversAfterClearance(r, p.Recover)},
	}
	for _, c := range checks {
		if c.err != nil {
			return "FAIL:" + c.label
		}
	}
	return "ok"
}

// RenderChaos formats the matrix. The trailing fingerprint hashes every
// cell's trajectory fingerprint in fixed order: byte-identical across worker
// counts and across repeated builds of the same seed.
func RenderChaos(reports []proptest.Report) string {
	subs := ChaosSubstrates()
	faults := ChaosFaults()
	idx := map[string]proptest.Report{}
	var seed int64
	for _, r := range reports {
		idx[r.Substrate+"/"+r.Plan] = r
		seed = r.Seed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos matrix: invariant verdicts per injected fault (seed %d)\n", seed)
	fmt.Fprintln(&b, "oracles: drains, makes-progress, conf-in-bounds, goal-bounded(+settle), recovers-after-clearance")
	fmt.Fprintf(&b, "\n%-16s", "fault")
	for _, s := range subs {
		fmt.Fprintf(&b, " %-12s", s)
	}
	fmt.Fprintln(&b)
	for _, f := range faults {
		fmt.Fprintf(&b, "%-16s", f)
		for _, sub := range subs {
			cell := "-"
			if r, ok := idx[sub+"/"+f]; ok {
				cell = ChaosVerdict(&r)
			}
			fmt.Fprintf(&b, " %-12s", cell)
		}
		fmt.Fprintln(&b)
	}
	h := fnv.New64a()
	for _, f := range faults {
		for _, sub := range subs {
			if r, ok := idx[sub+"/"+f]; ok {
				fmt.Fprintf(h, "%s/%s=%s;", sub, f, r.Fingerprint)
			}
		}
	}
	fmt.Fprintf(&b, "\nreplay: each cell is a pure function of (substrate, fault, seed); matrix fingerprint %016x\n", h.Sum64())
	return b.String()
}

// chaosRun is the part of a chaos harness every substrate shares: the
// cell's coordinates, its fault window and amplitudes, and the plan armed
// for it. The amplitudes stress each scenario at the edge of, not beyond,
// its engineered margin (a sensor-noise sigma that routinely OOMs a
// hard-goal substrate would test the margin's size, not the controller).
type chaosRun struct {
	substrate, fault string
	seed             int64
	horizon          time.Duration // run horizon and fault-placement basis
	start, dur       time.Duration // the fault window
	noise            float64       // sensor-noise sigma
	drop             float64       // sensor-dropout probability
	delay            time.Duration // actuation delay
	stall            time.Duration // controller stall / crash outage
	surge            float64       // the surge fault's load factor
	knobLo, knobHi   float64
	plan             *chaos.Plan
}

// chaosLoop wraps the rig's sense and actuate in a chaos loop around the
// controller synth builds, ticked at the rig's hook site. A crash restart
// calls synth again: the recovering process re-synthesizes from its
// persisted profile, and the §5.3 deputy-based update re-anchors on the
// first post-restart sample, so no controller state needs to survive.
func chaosLoop(s *sim.Simulation, r rig, hooks ChaosHooks, synth func(opts ...smartconf.Option) stepFunc) *chaos.Loop {
	rebuild := func() stepFunc { return synth(hooks.confOpts()...) }
	loop := chaos.NewLoop(s, chaos.LoopConfig{
		Sense: r.sense, Step: rebuild(), Actuate: r.actuate, Rebuild: rebuild, Log: hooks.Log,
	})
	r.attach(loop.Tick)
	return loop
}

// arm resolves the cell's fault to a plan and arms it: "gen" draws from the
// property-test generator, loop faults come from the shared catalog with the
// run's amplitudes, plant-shift is the substrate's shift, and surge scales
// the rig's load driver.
func (c *chaosRun) arm(s *sim.Simulation, loop *chaos.Loop, shift chaos.Fault) *chaos.Env {
	var f chaos.Fault
	switch c.fault {
	case ChaosGenerated:
		c.plan = proptest.GenPlan(c.fault, c.seed, c.horizon, c.knobLo, c.knobHi)
		return c.plan.Arm(s, loop)
	case "sensor-noise":
		f = chaos.SensorNoise{Start: c.start, Duration: c.dur, Sigma: c.noise}
	case "sensor-dropout":
		f = chaos.SensorDropout{Start: c.start, Duration: c.dur, Prob: c.drop}
	case "act-delay":
		f = chaos.ActuationDelay{Start: c.start, Duration: c.dur, Delay: c.delay}
	case "ctrl-stall":
		f = chaos.ControllerStall{Start: c.start, Duration: c.stall}
	case "crash-restart":
		f = chaos.ControllerCrash{At: c.start, RestartAfter: c.stall}
	case "plant-shift":
		f = shift
	case "surge":
		f = chaos.WorkloadSurge{Start: c.start, Duration: c.dur, Factor: c.surge}
	default:
		panic(fmt.Sprintf("chaos: unknown fault %q", c.fault))
	}
	c.plan = &chaos.Plan{Name: c.fault, Seed: c.seed, Faults: []chaos.Fault{f}}
	return c.plan.Arm(s, loop)
}

// report assembles the cell's report from the probed metric and knob
// traces: drained when the simulation reached the horizon. The harness adds
// any crash and seals the report.
func (c *chaosRun) report(s *sim.Simulation, progress int64, p *probe, goal ...proptest.Sample) proptest.Report {
	return proptest.Report{
		Substrate: c.substrate, Plan: c.plan.Name, Seed: c.seed, Horizon: c.horizon,
		Drained: s.Now() >= c.horizon, Progress: progress,
		Goal: goal, Upper: true, KnobMin: c.knobLo, KnobMax: c.knobHi,
		Faults: c.plan.Windows(c.horizon), Metric: samples(p.metric()), Knob: samples(p.knob()),
	}
}

// seal fingerprints the finished report.
func seal(rep proptest.Report) proptest.Report {
	rep.ComputeFingerprint()
	return rep
}

func samples(s Series) []proptest.Sample {
	out := make([]proptest.Sample, len(s.Points))
	for i, p := range s.Points {
		out[i] = proptest.Sample{T: p.T, V: p.V}
	}
	return out
}

// windowedShift is a plant disturbance with a clearance: apply at Start,
// revert at Start+Duration. Defined here rather than in internal/chaos to
// exercise the Fault extension point — substrates can grow their own fault
// types without touching the injector package. A PERMANENT gain shift is
// deliberately not in the catalog: a controller synthesized from a stale
// profile keeps a residual oscillation forever (the paper's remedy is
// re-profiling, §6), so "inject and never clear" would test the profile's
// staleness, not the controller.
type windowedShift struct {
	label    string
	start    time.Duration
	duration time.Duration
	apply    func()
	revert   func()
}

func (f windowedShift) Name() string { return "plant-shift:" + f.label }

func (f windowedShift) Span(time.Duration) chaos.Window {
	return chaos.Window{Start: f.start, End: f.start + f.duration}
}

func (f windowedShift) Arm(env *chaos.Env) {
	env.Sim.At(f.start, f.apply)
	env.Sim.At(f.start+f.duration, f.revert)
}

// runChaosHB3813: the RPC server's hard memory goal under fault injection.
// Plant shift: half the worker pool disappears (drain rate drops).
func runChaosHB3813(fault string, seed int64, hooks ChaosHooks) proptest.Report {
	c := chaosRun{substrate: "HB3813", fault: fault, seed: seed,
		horizon: 300 * time.Second, start: 100 * time.Second, dur: 60 * time.Second,
		noise: 0.05, drop: 0.8, delay: 2 * time.Second, stall: 45 * time.Second, surge: 2, knobHi: 5000}
	r := newRPCRig(newScenarioSim(), seed+38130, rpcHeapCapacity, rpcConfig(), c.horizon)
	r.sv.SetMaxQueue(0)
	loop := chaosLoop(r.s, r, hooks, func(opts ...smartconf.Option) stepFunc {
		return indirectStep(mustIndirect(hb3813Spec(), ProfileHB3813(), nil, opts...))
	})
	env := c.arm(r.s, loop, chaos.PlantShift{Label: "worker-loss", At: c.start,
		Apply: func() { r.sv.SetWorkers(r.sv.Workers() / 2) }})
	r.noise()
	w := ycsbBursts(seed+38131, hb3813BurstSize, hb3813BurstEvery, hb3813Spacing,
		workload.YCSBPhase{Name: "write-heavy", WriteRatio: 1, RequestBytes: 1 * mb})
	w.env = env
	r.load(w)
	probe := r.probe(r.maxQueue, "max.queue.size")
	r.s.RunUntil(c.horizon)

	rep := c.report(r.s, r.sv.Completed(), probe, proptest.Sample{T: 0, V: float64(rpcMemoryGoal)})
	rep.Crashed = r.heap.OOM()
	rep.CrashedAt = r.oomAt
	return seal(rep)
}

// runChaosHB2149: the memstore's soft block-time goal under fault injection.
// Plant shift: the flush drain rate halves (disk contention).
func runChaosHB2149(fault string, seed int64, hooks ChaosHooks) proptest.Report {
	c := chaosRun{substrate: "HB2149", fault: fault, seed: seed,
		horizon: 300 * time.Second, start: 100 * time.Second, dur: 60 * time.Second,
		noise: 0.08, drop: 0.7, delay: 3 * time.Second, stall: 60 * time.Second, surge: 2, knobLo: 0.01, knobHi: 1}
	r := newMemstoreRig(c.horizon)
	loop := chaosLoop(r.s, r, hooks, func(opts ...smartconf.Option) stepFunc {
		return directStep(mustConf(hb2149Spec(), ProfileHB2149(), opts...))
	})
	// 64→36 MB/s: a 1.78× gain error — inside the §5.2 stability margin (2×
	// is the boundary), so the loop converges while the episode lasts
	// instead of ringing.
	env := c.arm(r.s, loop, windowedShift{label: "flush-rate-drop", start: c.start, duration: c.dur,
		apply:  func() { r.st.SetFlushBytesPerSec(36 * mb) },
		revert: func() { r.st.SetFlushBytesPerSec(hb2149Config().FlushBytesPerSec) }})
	r.load(seed+21490, env)
	probe := r.probe()
	r.s.RunUntil(c.horizon)

	// Soft goal: SLA-like, judged with the scenario's 5% slack.
	rep := c.report(r.s, r.st.Writes(), probe, proptest.Sample{T: 0, V: hb2149Goal1 * 1.05})
	rep.Crashed = r.st.Crashed()
	return seal(rep)
}

// runChaosHD4995: the namenode's soft lock-hold goal under fault injection.
// Plant shift: the per-file traversal cost doubles (cold dentry cache).
func runChaosHD4995(fault string, seed int64, hooks ChaosHooks) proptest.Report {
	c := chaosRun{substrate: "HD4995", fault: fault, seed: seed,
		horizon: 360 * time.Second, start: 120 * time.Second, dur: 60 * time.Second,
		noise: 0.06, drop: 0.7, delay: 2 * time.Second, stall: 60 * time.Second, surge: 2, knobLo: 1, knobHi: 1e7}
	r := newDFSRig(seed+49950, c.horizon)
	loop := chaosLoop(r.s, r, hooks, func(opts ...smartconf.Option) stepFunc {
		return indirectStep(mustIndirect(hd4995Spec(), ProfileHD4995(), nil, opts...))
	})
	// ×1.5 per-file cost: a gain error inside the §5.2 stability margin (a
	// full doubling sits exactly on the oscillation boundary and never
	// settles).
	env := c.arm(r.s, loop, windowedShift{label: "lock-cost-up", start: c.start, duration: c.dur,
		apply:  func() { r.nn.SetPerFileCost(3 * hd4995Config().PerFileCost / 2) },
		revert: func() { r.nn.SetPerFileCost(hd4995Config().PerFileCost) }})
	r.load(90*time.Second, env)
	probe := r.probe()
	r.s.RunUntil(c.horizon)

	// Initial-convergence grace (the controller climbs from limit=1), then
	// the soft goal with the scenario's 5% slack.
	return seal(c.report(r.s, r.nn.DusDone(), probe, proptest.Sample{T: 0, V: 1e12},
		proptest.Sample{T: 60 * time.Second, V: hd4995Goal1 * 1.05}))
}

// runChaosLLMKV: the LLM server's hard GPU-memory goal under fault
// injection. Plant shift: the workload swings from long-document
// summarization (low decode amplification) into bursty chat (every admitted
// prompt token drags ~3× its size in uncounted decode KV).
func runChaosLLMKV(fault string, seed int64, hooks ChaosHooks) proptest.Report {
	c := chaosRun{substrate: "LLMKV", fault: fault, seed: seed,
		horizon: 300 * time.Second, start: 100 * time.Second, dur: 60 * time.Second,
		noise: 0.03, drop: 0.7, delay: 5 * time.Second, stall: 45 * time.Second, surge: 2}
	r := newLLMRig(seed+90010, llmHeapCapacity, c.horizon)
	c.knobHi = float64(llmHeapCapacity) / r.kvb
	loop := chaosLoop(r.s, r, hooks, func(opts ...smartconf.Option) stepFunc {
		return indirectStep(llmkvConf(opts...))
	})

	// Chat at 40 req/s (the figure scenario's 60 req/s overload runs the
	// heap at ~99% of capacity — no margin left for injected faults; chaos
	// stresses the controller, not the margin's exact size).
	chat := workload.LLMPhase{Name: "chat", RequestsPerSec: 40, PromptMean: 150, OutputMean: 300,
		BurstSize: 40, BurstSpacing: 50 * time.Millisecond}
	summarize := workload.LLMPhase{Name: "summarize", RequestsPerSec: 12, PromptMean: 1800, OutputMean: 220}
	phases := []workload.LLMPhase{chat}
	if fault == "plant-shift" {
		// Start in the benign regime; the shift drops chat on a knob that
		// has opened up for documents.
		phases[0] = summarize
	}
	env := c.arm(r.s, loop, chaos.PlantShift{Label: "decode-amplification", At: c.start,
		Apply: func() { phases[0] = chat }})
	r.noise()
	r.load(phases, seed+90011, env)
	probe := r.probe()
	r.s.RunUntil(c.horizon)

	// Initial-convergence grace (the knob opens from 0 and the first
	// correction overshoots into the engineered margin), then the goal.
	rep := c.report(r.s, r.sv.Completed(), probe, proptest.Sample{T: 0, V: 1e12},
		proptest.Sample{T: 60 * time.Second, V: float64(llmMemoryGoal)})
	rep.Crashed = r.heap.OOM()
	rep.CrashedAt = r.oomAt
	return seal(rep)
}

// runChaosMR2820: the MapReduce cluster's hard out-of-disk goal under fault
// injection. Plant shift: the task write rate halves (I/O contention).
// Surge: the co-tenant band jumps up — the scenario's own disturbance,
// intensified.
func runChaosMR2820(fault string, seed int64, hooks ChaosHooks) proptest.Report {
	const bound = 3600 * time.Second // safety bound; jobs end far earlier
	c := chaosRun{substrate: "MR2820", fault: fault, seed: seed,
		horizon: 360 * time.Second, start: 120 * time.Second, dur: 60 * time.Second,
		noise: 0.02, drop: 0.6, delay: 2 * time.Second, stall: 30 * time.Second, surge: 1.5, knobHi: 1 << 30}
	r := newMapredRig(seed+28200, 0)
	loop := chaosLoop(r.s, r, hooks, func(opts ...smartconf.Option) stepFunc {
		return directStep(mustConf(mr2820Spec(), ProfileMR2820(), opts...))
	})
	env := c.arm(r.s, loop, chaos.PlantShift{Label: "task-rate-halved", At: c.start,
		Apply: func() { r.c.SetTaskBytesPerSec(8 * mb) }})
	// The scenario's co-tenant walk, calibrated slightly below the figure
	// run (step 25 MB, band top 720 MB): a single co-tenant step larger
	// than the goal's 10 MB headroom can OOD an already-admitted task no
	// matter what the controller does, so the property "no crash for ANY
	// seed" requires the disturbance to stay within the margin the goal
	// engineered — the figure scenario acknowledges the same race by
	// judging over a 5-seed repetition instead. A surge lifts the band by
	// 100 MB × (factor−1), reached through the same bounded steps.
	r.coTenant(550*mb, 720*mb, 25*mb, bound, env, true)
	probe := r.probe()
	results := r.runJobs()
	r.s.RunUntil(bound)

	rep := c.report(r.s, int64(len(*results)), probe, proptest.Sample{T: 0, V: float64(mr2820DiskGoal)})
	rep.Horizon = bound
	// Drained here means the job sequence ran to completion (the sim stops
	// early on success — the inverse of the fixed-horizon substrates).
	rep.Drained = len(*results) == len(mr2820Jobs())
	rep.Crashed = r.c.OOD()
	if rep.Crashed {
		rep.CrashedAt = firstViolation(probe.metric(), float64(mr2820DiskGoal))
	}
	return seal(rep)
}
