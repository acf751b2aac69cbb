package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// LLM-KV: the paper's thesis carried into LLM inference serving.
// max.num.batched.tokens bounds the continuous batch; every resident token
// pins KV-cache bytes on the GPU heap, so the bound indirectly caps memory
// (hard no-OOM constraint) — but admission counts PROMPT tokens only
// (output lengths are unknowable in advance), so the memory a setting
// implies depends on the workload's output/prompt ratio. Chat traffic
// (short prompts, long answers) triples a batch's footprint as it decodes;
// long-document summarization (huge prompts, short summaries) barely grows
// it. No static setting fits both: one sized for chat bursts idles most of
// the KV budget once documents arrive, one sized for documents OOMs under
// chat. SmartConf controls the deputy (KV resident bytes) directly and
// re-converges across the shift.
//
// A second knob rides along: admission.queue.limit bounds the waiting
// queue, trading rejected requests against time-to-first-token — a DIRECT
// soft-goal configuration, like the SLA extension.

const (
	llmRunTime    = 600 * time.Second
	llmPhaseShift = 300 * time.Second // chat → long-document summarization

	// A 16 GiB-class accelerator; the operator's memory goal sits just under
	// capacity, as in the RPC scenarios.
	llmHeapCapacity = int64(16) << 30
	llmMemoryGoal   = int64(15) << 30
	// llmNoiseMax bounds the random-walk footprint of "other allocations"
	// (graph captures, sampling buffers, fragmentation).
	llmNoiseMax = 128 * mb

	llmBurstEvery  = 25 * time.Second
	llmTTFTGoalSec = 20.0 // soft TTFT-p95 goal for admission.queue.limit

	llmProfileTime     = 70 * time.Second
	llmTTFTProfileTime = 100 * time.Second

	// Profiling runs offline on a machine without the production memory
	// budget (§6.1 profiles settings that would be unsafe in production), so
	// the heap→setting relation is measured unclipped.
	llmProfileHeap int64 = 64 << 30
)

func llmConfig() llmserve.Config { return llmserve.DefaultConfig() }

// llmKVPerToken is the deputy unit conversion: the knob is in tokens, the
// deputy (and the profile) in KV bytes.
func llmKVPerToken() int64 { return llmConfig().KVBytesPerToken }

func llmPhases() []workload.LLMPhase {
	return []workload.LLMPhase{
		{
			// Sustained chat overload: short questions, long answers. Every
			// admitted prompt token triples as its answer decodes, so a batch
			// bound sized for documents fills the heap 2-3× over here.
			Name: "chat", Duration: llmPhaseShift,
			RequestsPerSec: 60, PromptMean: 150, OutputMean: 300,
			BurstSize: 60, BurstSpacing: 50 * time.Millisecond,
		},
		{
			Name:           "summarize",
			RequestsPerSec: 12, PromptMean: 1800, OutputMean: 220,
		},
	}
}

// llmkvConf synthesizes the token-bound controller every LLMKV harness
// uses, in deputy space (prompt-resident KV bytes): it starts closed and
// opens the batch to fit, and the transducer converts the desired deputy
// bytes into the token bound.
func llmkvConf(opts ...smartconf.Option) *smartconf.IndirectConf {
	return mustIndirect(smartconf.Spec{
		Name:    "max.num.batched.tokens",
		Metric:  "gpu_memory_consumption",
		Goal:    float64(llmMemoryGoal),
		Hard:    true,
		Initial: 0,
		Min:     0, Max: float64(llmHeapCapacity),
	}, ProfileLLMKV(), smartconf.Scale(1/float64(llmKVPerToken())), opts...)
}

// llmRig is the LLM serving substrate wired once for the profiling, figure
// and chaos harnesses.
type llmRig struct {
	s     *sim.Simulation
	rng   *rand.Rand // heap noise
	heap  *memsim.Heap
	sv    *llmserve.Server
	kvb   float64 // KV bytes per token
	until time.Duration
	oomAt time.Duration
}

func newLLMRig(seed, heapBytes int64, until time.Duration) *llmRig {
	s := newScenarioSim()
	r := &llmRig{s: s, rng: rand.New(rand.NewSource(seed)), heap: memsim.NewHeap(heapBytes),
		kvb: float64(llmKVPerToken()), until: until}
	r.sv = llmserve.New(s, r.heap, llmConfig())
	r.heap.OnOOM(func() { r.oomAt = s.Now() })
	return r
}

// sense reads the GPU heap and the deputy, prompt-resident KV bytes (the
// quantity the bound caps). The §5.3 update starts from the deputy's
// CURRENT value, so unit drift between the knob and the realized footprint
// self-corrects.
func (r *llmRig) sense() (perf, deputy float64) {
	return float64(r.heap.Used()), float64(r.sv.PromptTokens()) * r.kvb //sc:LLMKV:sensor
}

func (r *llmRig) actuate(v float64) { r.sv.SetMaxBatchedTokens(int(v)) } //sc:LLMKV:invoke

// attach runs tick every 15 s. The cadence is deliberately slow: an
// admitted prompt drags its decode KV in over the next several seconds, and
// updating faster than that plant delay would integrate against memory
// that is already committed but not yet visible.
func (r *llmRig) attach(tick func()) {
	r.s.Every(0, 15*time.Second, func() bool {
		tick()
		return r.s.Now() < r.until && !r.sv.Crashed()
	})
}

func (r *llmRig) noise() { heapNoise(r.s, r.heap, r.rng, llmNoiseMax, r.until) }

// load starts Poisson arrivals (with the phase switcher) and the burst loop
// against the server; env's surge factor scales each burst. phases is
// re-read at every arrival, so a PlantShift may swap its entries mid-run.
func (r *llmRig) load(phases []workload.LLMPhase, seed int64, env *chaos.Env) {
	s, sv, until := r.s, r.sv, r.until
	gen := workload.NewLLMGen(seed, phases[0])
	var arrive func()
	arrive = func() {
		if s.Now() >= until {
			return
		}
		if ph, _ := workload.LLMPhaseAt(phases, s.Now()); ph.Name != gen.Phase().Name {
			gen.SetPhase(ph)
		}
		sv.Offer(gen.NextRequest())
		s.After(gen.NextInterarrival(), arrive)
	}
	s.After(0, arrive)

	// Bursts fire on a fixed cadence but only in phases that declare them —
	// chat traffic arrives in waves; document batches trickle steadily.
	s.Every(llmBurstEvery, llmBurstEvery, func() bool {
		ph, _ := workload.LLMPhaseAt(phases, s.Now())
		if ph.Name != gen.Phase().Name {
			gen.SetPhase(ph)
		}
		n := int(float64(ph.BurstSize) * env.SurgeFactor())
		for i := 0; i < n; i++ {
			req := gen.NextRequest()
			s.After(time.Duration(i)*ph.BurstSpacing, func() { sv.Offer(req) })
		}
		return s.Now() < until
	})
}

// ProfileLLMKV profiles the GPU heap against max.num.batched.tokens pinned
// at four settings. Samples are recorded against the setting's KV-byte
// equivalent — the deputy is prompt-resident KV bytes, which the bound caps
// directly — so the fitted slope α is d(heap)/d(prompt bytes). The workload
// is chat-shaped (answers longer than questions) and saturating, so α bakes
// in the decode amplification: every admitted prompt token drags ≈2× its
// size in uncounted decode KV behind it, and the controller's model must
// know that or its corrections overshoot the real heap response.
func ProfileLLMKV() core.Profile {
	return profileSweep("LLMKV", []float64{16384, 32768, 49152, 65536}, func(setting float64, record func(setting, measurement float64)) {
		r := newLLMRig(7001, llmProfileHeap, llmProfileTime)
		r.sv.SetMaxBatchedTokens(int(setting))
		r.noise()

		sampleTen(r.s, 25*time.Second, 4*time.Second, record, func() (float64, float64, bool) {
			return setting * r.kvb, float64(r.heap.Used()), true
		})
		r.load([]workload.LLMPhase{
			// Saturating: offered load exceeds service capacity at every
			// pinned setting, so the admitted prompts actually fill the bound.
			{Name: "profiling", RequestsPerSec: 80, PromptMean: 150, OutputMean: 300},
		}, 7002, nil)
		r.s.RunUntil(llmProfileTime)
	})
}

// ProfileLLMKVTTFT profiles TTFT p95 against admission.queue.limit pinned
// at four settings, under a sustained document overload (the regime where
// the waiting queue, and therefore TTFT, actually builds).
func ProfileLLMKVTTFT() core.Profile {
	return profileSweep("LLMKV-TTFT", []float64{64, 128, 256, 384}, func(setting float64, record func(setting, measurement float64)) {
		r := newLLMRig(7003, llmHeapCapacity, llmTTFTProfileTime)
		// A modest pinned batch bound keeps service slow so the waiting
		// queue — not the batch — is the binding resource.
		r.sv.SetMaxBatchedTokens(16384)
		r.sv.SetWaitingLimit(int(setting))
		r.noise()

		sampleTen(r.s, 40*time.Second, 6*time.Second, record, func() (float64, float64, bool) {
			return setting, r.sv.TTFT().Percentile(95).Seconds(), true
		})
		r.load([]workload.LLMPhase{
			{Name: "profiling", RequestsPerSec: 30, PromptMean: 1500, OutputMean: 200},
		}, 7004, nil)
		r.s.RunUntil(llmTTFTProfileTime)
	})
}

func (r *llmRig) probe() *probe {
	p := &probe{}
	p.track("used_memory", "bytes", func() float64 { return float64(r.heap.Used()) })
	p.track("max.batched.tokens", "tokens", func() float64 { return float64(r.sv.MaxBatchedTokens()) })
	p.start(r.s, func() bool { return r.s.Now() < r.until && !r.heap.OOM() })
	return p
}

// RunLLMKV executes the two-phase evaluation under the given policy.
// Static policies pin max.num.batched.tokens and keep the default
// admission.queue.limit; SmartConf controls both knobs.
func RunLLMKV(p Policy) Result {
	r := newLLMRig(9001, llmHeapCapacity, llmRunTime)

	switch p.Kind {
	case StaticPolicy:
		r.sv.SetMaxBatchedTokens(int(p.Static))
	case SmartConfPolicy:
		control(r, roundedStep(llmkvConf()))

		qc := mustConf(smartconf.Spec{
			Name:    "admission.queue.limit",
			Metric:  "ttft_p95",
			Goal:    llmTTFTGoalSec,
			Hard:    false, // latency SLO: soft
			Initial: float64(llmConfig().WaitingLimit),
			Min:     16, Max: 2048,
		}, ProfileLLMKVTTFT())
		// A p95 estimate needs a window of first tokens and lags the knob, so
		// this loop runs on the sensor's timescale (cf. the SLA extension).
		r.s.Every(10*time.Second, 10*time.Second, func() bool {
			qc.SetPerf(r.sv.TTFT().Percentile(95).Seconds()) //sc:LLMKV:sensor
			r.sv.SetWaitingLimit(qc.Conf())                  //sc:LLMKV:invoke
			return r.s.Now() < llmRunTime && !r.sv.Crashed()
		})
	default:
		panic(fmt.Sprintf("LLMKV: unsupported policy %v", p))
	}

	r.noise()
	probe := r.probe()
	probe.track("goodput", "tok/s", r.sv.Goodput)
	probe.track("ttft_p95", "s", func() float64 { return r.sv.TTFT().Snapshot().P95.Seconds() })
	probe.track("completed_requests", "requests", func() float64 { return float64(r.sv.Completed()) })
	r.load(llmPhases(), 9002, nil)
	r.s.RunUntil(llmRunTime)
	for i, pt := range probe.series[1].Points {
		probe.series[1].Points[i].V = math.Min(pt.V, 1e9) // the unbounded default, kept plottable
	}

	// The hard constraint is survival: a KV or activation allocation that
	// does not fit kills the server (the production incident). The 15GiB
	// goal below the 16GiB device is the operator's engineered margin — the
	// controller aims at the goal so that transients land in the margin
	// instead of in an OOM.
	res := LLMKVScenario().result(p, float64(r.sv.OutputTokens())/llmRunTime.Seconds(), probe)
	res.ConstraintMet = !r.heap.OOM()
	if !res.ConstraintMet {
		res.ViolatedAt, res.Violation = r.oomAt, "OOM"
	}
	return res
}

// LLMKVScenario returns the scenario descriptor. It is an extension beyond
// the paper's six issues, so it is not part of Scenarios(); the bench
// registers it separately.
func LLMKVScenario() Scenario {
	return Scenario{
		ID:                "LLMKV",
		Conf:              "max.num.batched.tokens",
		Description:       "bounds the continuous batch by prompt tokens; too big, KV-cache OOM on long documents; too small, decode parallelism (goodput) hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "GPU memory ≤ 15GiB (hard, no OOM)",
		TradeoffName:      "goodput (output tok/s)",
		HigherIsBetter:    true,
		ProfilingWorkload: "steady 40 req/s, 400/200 tok @ batch 16k/32k/48k/64k",
		PhaseWorkloads: [2]string{
			"chat: 20 req/s, 150/300 tok, bursty",
			"summarize: 12 req/s, 1800/220 tok, sustained",
		},
		BuggyDefault: 1e7,   // effectively unbounded: admit whatever arrives
		PatchDefault: 65536, // a "tuned-for-chat" default — still unsafe here
		StaticGrid:   []float64{8192, 12288, 16384, 20480, 24576, 32768, 40960, 49152, 65536, 81920},
		NonOptimal:   8192,
		Run:          RunLLMKV,
	}
}

// BuildFigureLLMKV runs the LLM-KV trade-off comparison (the Figure 5
// methodology on the extension scenario).
func BuildFigureLLMKV() Figure5Row {
	return BuildFigure5Row(LLMKVScenario())
}

// RenderFigureLLMKV formats the comparison plus the SmartConf run's control
// time series (memory, token bound, TTFT p95 — the re-convergence across
// the chat → summarize shift).
func RenderFigureLLMKV(row Figure5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "LLM-KV: max.num.batched.tokens under a hard GPU-memory goal")
	fmt.Fprintf(&b, "(two-phase workload: %s → %s at t=%v)\n\n",
		llmPhases()[0], llmPhases()[1], llmPhaseShift)
	fmt.Fprintf(&b, "%-22s %14s %9s %12s %10s %5s\n",
		"Policy", "Setting", "Speedup", "tok/s", "TTFT p95", "OK?")
	for _, bar := range row.Bars {
		ttft := "-"
		if s, ok := bar.Result.SeriesByName("ttft_p95"); ok && len(s.Points) > 0 {
			ttft = fmt.Sprintf("%.1fs", s.Points[len(s.Points)-1].V)
		}
		fmt.Fprintf(&b, "%-22s %14s %8.2fx %12.0f %10s %5s\n",
			bar.Label, bar.settingLabel(), bar.Speedup, bar.Result.Tradeoff, ttft, okMark(bar.ConstraintMet))
	}
	fmt.Fprintln(&b)
	smart := row.Bars[0].Result
	if mem, ok := smart.SeriesByName("used_memory"); ok {
		fmt.Fprintf(&b, "SmartConf GPU memory (goal %dGiB): %s\n",
			llmMemoryGoal>>30, sparkline(mem, 60, llmRunTime))
	}
	if knob, ok := smart.SeriesByName("max.batched.tokens"); ok {
		fmt.Fprintf(&b, "SmartConf token bound:             %s\n", sparkline(knob, 60, llmRunTime))
	}
	if ttft, ok := smart.SeriesByName("ttft_p95"); ok {
		fmt.Fprintf(&b, "SmartConf TTFT p95 (goal %.0fs):     %s\n", llmTTFTGoalSec, sparkline(ttft, 60, llmRunTime))
	}
	fmt.Fprintf(&b, "(phase shift at %s: chat decode drags ~%.0f× uncounted KV per admitted prompt\n",
		llmPhaseShift, float64(llmPhases()[0].OutputMean+llmPhases()[0].PromptMean)/float64(llmPhases()[0].PromptMean))
	fmt.Fprintln(&b, " token, so the bound opens up once document traffic takes over)")
	return b.String()
}
