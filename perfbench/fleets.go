package main

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf/internal/cluster"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// fleet-llm-session pushes open-loop arrivals (virtual time) through a
// 256-member cluster.Fleet of inference servers with no controller, wired as
// the fleet raw-speed campaign wires them. Routing is key affinity on a fresh
// seeded session id per request (8/8-token chat, Poisson 2000/s): every key
// is new, so no route is ever computed twice. One goroutine offers every
// request at its arrival time: draw the gap and the request (the generators
// do not read the simulation, so both draws come first), run the event queue
// up to the arrival, dispatch the request.

const (
	fleetWidth     = 256
	fleetQueueHint = 2048
)

// fleetLLMOps is one repetition's request count (≈0.5 s of host time).
var fleetLLMOps int64 = 125_000

type fleetLLM struct {
	s        *sim.Simulation
	f        *cluster.Fleet[workload.LLMRequest]
	servers  []*llmserve.Server
	heaps    []*memsim.Heap
	sampler  *tailSampler
	gen      *workload.LLMGen
	sessions *rand.Rand
	n, ops   int64
	now      time.Duration

	tr                *tracer
	pDraw, pRun, pDsp *probe
}

func newFleetLLM(seed int64, tr *tracer) (bench, error) {
	w := &fleetLLM{
		s:     sim.NewWithCapacity(fleetQueueHint),
		n:     fleetLLMOps,
		tr:    tr,
		pDraw: tr.probe(spanDraw), pRun: tr.probe(spanRunUntil), pDsp: tr.probe(spanDispatch),
	}
	cfg := llmserve.Config{
		KVBytesPerToken:      128 << 10,
		ScratchBytesPerToken: 32 << 10,
		BaseHeapBytes:        6 << 30,
		StepBase:             2 * time.Millisecond,
		StepPerToken:         5 * time.Microsecond,
		PrefillChunk:         512,
		WaitingLimit:         4096,
	}
	w.f = cluster.NewFleet[workload.LLMRequest](cluster.KeyAffinity)
	pOffer := tr.probe(spanLLMOffer)
	sensors := make([]*metrics.Latency, fleetWidth)
	for i := 0; i < fleetWidth; i++ {
		heap := memsim.NewHeap(16 << 30)
		sv := llmserve.New(w.s, heap, cfg)
		sv.SetID(i)
		sv.SetMaxBatchedTokens(1 << 20)
		sv.Preallocate(512)
		offer := sv.Offer
		if tr != nil {
			offer = func(req workload.LLMRequest) bool {
				tr.begin(pOffer)
				ok := sv.Offer(req)
				tr.end()
				return ok
			}
		}
		w.f.Add(sv, 1, offer)
		w.heaps = append(w.heaps, heap)
		w.servers = append(w.servers, sv)
		sensors[i] = sv.E2E()
	}
	w.sampler = newTailSampler(10*time.Second, sensors, tr)
	w.gen = workload.NewLLMGen(seed, workload.LLMPhase{
		Name: "fleet-llm-session", RequestsPerSec: 2000, PromptMean: 8, OutputMean: 8,
	})
	w.sessions = rand.New(rand.NewSource(seed ^ 0x5e5510))
	return w, nil
}

func (w *fleetLLM) run() {
	tr := w.tr
	for w.ops < w.n {
		tr.begin(w.pDraw)
		w.now += w.gen.NextInterarrival()
		req := w.gen.NextRequest()
		session := w.sessions.Uint64()
		tr.end()
		tr.begin(w.pRun)
		w.s.RunUntil(w.now)
		tr.end()
		tr.begin(w.pDsp)
		w.f.Dispatch(cluster.Request{Key: session, Cost: float64(req.Tokens())}, req)
		tr.end()
		w.ops++
		w.sampler.observe(w.now)
	}
}

// finish checks conservation — every submitted request completed, was
// refused by the fleet, or is still in a member — and that no member
// crashed or dropped a request, then hashes every simulated statistic.
func (w *fleetLLM) finish() (rep, error) {
	d := newDigest()
	var evictions, output int64
	for _, sv := range w.servers {
		evictions += sv.Evictions()
		output += sv.OutputTokens()
	}
	d.add("llm", evictions, output)

	var completed, rejected, dropped, pending, offers int64
	var peak int64
	for i, sv := range w.servers {
		if sv.Crashed() {
			return rep{}, fmt.Errorf("member %d crashed", i)
		}
		load := int64(sv.Load())
		completed += sv.Completed()
		rejected += sv.Rejected()
		dropped += sv.Dropped()
		pending += load
		offers += sv.Completed() + sv.Rejected() + sv.Dropped() + load
		if p := w.heaps[i].Peak(); p > peak {
			peak = p
		}
		d.add("member", i, sv.Completed(), sv.Rejected(), sv.Dropped(), load, w.heaps[i].Peak())
	}
	submitted, refused := w.f.Submitted(), w.f.Refused()
	if submitted != w.ops {
		return rep{}, fmt.Errorf("fleet counted %d submitted, benchmark offered %d", submitted, w.ops)
	}
	if submitted != completed+refused+pending {
		return rep{}, fmt.Errorf("conservation: submitted %d != completed %d + refused %d + pending %d",
			submitted, completed, refused, pending)
	}
	if dropped != 0 {
		return rep{}, fmt.Errorf("%d requests dropped by an uncontrolled fleet", dropped)
	}
	d.add("fleet", submitted, refused, w.f.Redispatched())
	d.add("sim", w.s.Now(), w.s.Events(), w.s.MaxPending())
	d.add("p99_ms", w.sampler.samples)

	ops := float64(w.ops)
	return rep{
		ops:     w.ops,
		refused: refused,
		digest:  d.sum(),
		outcome: map[string]float64{
			"plant.fail_share":      ratio(float64(refused), ops),
			"plant.sim_p99_ms":      median(w.sampler.samples),
			"plant.sim_goodput":     ratio(float64(completed), w.s.Now().Seconds()),
			"plant.goal_violations": 0,
		},
		counts: map[string]float64{
			"cluster.refused_share":     ratio(float64(refused), ops),
			"sim.events_per_op":         ratio(float64(w.s.Events()), ops),
			"sim.peak_pending":          float64(w.s.MaxPending()),
			"llmserve.rejected_share":   ratio(float64(rejected), float64(offers)),
			"llmserve.evictions_per_op": ratio(float64(evictions), ops),
			"metrics.queries":           float64(w.sampler.queries()),
			"memsim.peak_used_mb":       float64(peak) / mib,
		},
	}, nil
}
