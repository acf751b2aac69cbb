// Package llmserve simulates an LLM inference server with continuous
// batching and a KV cache, the modern system where static performance
// configurations hurt most. It is the substrate for the LLM-KV scenario:
//
//   - max.num.batched.tokens — the continuous-batch admission bound, in
//     tokens. Every token resident in the batch pins KV-cache bytes on the
//     simulated GPU heap, so the bound indirectly caps memory: too large
//     risks OOM when the workload shifts to long documents, too small
//     leaves decode parallelism (and therefore goodput) on the table.
//     Exactly HB3813's queue-size trade-off, transplanted to inference.
//   - admission.queue.limit — the waiting-queue bound. Deeper queues accept
//     more work but stretch time-to-first-token; the knob trades rejected
//     requests against TTFT tail latency.
//
// The scheduler is a vLLM-style continuous batcher in virtual time: each
// step decodes one token for every running sequence that has finished its
// prompt, prefills up to PrefillChunk prompt tokens, and costs
// StepBase + StepPerToken × (tokens scheduled this step). Admission counts
// *prompt* tokens only — the server cannot know output lengths in advance,
// so decode growth is invisible to the bound. That under-accounting is what
// makes the knob performance-sensitive rather than a hard resource cap: the
// memory a setting implies is bound × (1 + output/prompt ratio × decode
// progress), and the ratio is a property of the workload. A chat mix
// (short prompts, long answers) roughly triples each admitted token's
// eventual footprint; a summarization mix barely grows it.
//
// Memory model: KV cache is KVBytesPerToken per resident token, allocated
// as tokens enter the batch and freed on completion or eviction. When a KV
// allocation would not fit, the scheduler preempts the newest running
// sequence (recompute-from-scratch, as vLLM does) — but per-step activation
// scratch (ScratchBytesPerToken × scheduled tokens) is allocated mid-kernel
// and cannot wait for preemption: if it does not fit, the process dies.
// That is the OOM the hard memory goal must prevent.
package llmserve

import (
	"math"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Config fixes the server's model/hardware parameters.
type Config struct {
	// KVBytesPerToken is the KV-cache footprint of one resident token
	// (2 × layers × kv-heads × head-dim × dtype bytes on real hardware).
	KVBytesPerToken int64
	// ScratchBytesPerToken is the transient activation scratch a step
	// allocates per scheduled token, freed when the step retires. Scratch
	// cannot be satisfied by preemption — a failed scratch allocation
	// crashes the server.
	ScratchBytesPerToken int64
	// BaseHeapBytes is allocated at startup (weights, CUDA context).
	BaseHeapBytes int64
	// StepBase is the fixed per-step launch overhead; StepPerToken is the
	// marginal cost per scheduled token. Step latency is affine:
	// d = StepBase + StepPerToken × scheduled.
	StepBase     time.Duration
	StepPerToken time.Duration
	// PrefillChunk bounds prompt tokens prefetched per step (chunked
	// prefill). Values < 1 mean unlimited.
	PrefillChunk int
	// WaitingLimit is the initial admission.queue.limit (waiting requests);
	// values < 1 mean unbounded.
	WaitingLimit int
}

// DefaultConfig returns the calibration used by the LLM-KV experiments:
// a 16 GiB-class accelerator serving a mid-size model.
func DefaultConfig() Config {
	return Config{
		KVBytesPerToken:      128 << 10, // 128 KiB per resident token
		ScratchBytesPerToken: 32 << 10,
		BaseHeapBytes:        6 << 30, // weights + runtime
		StepBase:             5 * time.Millisecond,
		StepPerToken:         20 * time.Microsecond,
		PrefillChunk:         512,
		WaitingLimit:         512,
	}
}

// seq is one request's life in the server.
type seq struct {
	req        workload.LLMRequest
	arrived    time.Duration
	promptDone int // prompt tokens prefilled so far
	outputDone int // output tokens decoded so far
	kvTokens   int // tokens holding KV cache (prompt + decoded)
	inRunning  bool
	ttftSeen   bool
}

// Server is the simulated inference server.
type Server struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  Config

	maxBatchedTokens int // max.num.batched.tokens knob
	waitingLimit     int // admission.queue.limit knob

	// waiting[waitingHead:] is the bounded admission queue (FIFO; evictees
	// rejoin at the head). Consuming advances waitingHead instead of
	// reslicing, so the array's capacity is reused and steady-state admission
	// allocates nothing; the dead prefix is reset when empty and compacted
	// when it dominates.
	waiting        []*seq
	waitingHead    int
	running        []*seq // the continuous batch, admission order
	residentTokens int    // tokens with allocated KV (the deputy, in tokens)
	promptTokens   int    // admitted prompt tokens (what the bound counts)

	stepping bool
	crashed  bool

	// Raw-speed free lists, keyed to this server (NOT sync.Pool: pool reuse
	// order is scheduler-dependent and would break deterministic replay).
	// seqPool recycles completed sequences so a steady-state request
	// allocates nothing; stepBatch is the reusable snapshot of running taken
	// each step (eviction inside ensureKV mutates running mid-loop).
	seqPool   []*seq
	stepBatch []*seq

	// stepScratch is the activation scratch of the single in-flight step;
	// endStepArg reads it back instead of closing over it. endStepFn is
	// endStepArg bound once — creating the method value per AfterArg call
	// would allocate.
	stepScratch int64
	endStepFn   func(uint64)

	// Fleet surface (internal/cluster): identity, liveness across injected
	// instance loss, and the scratch bytes held by in-flight steps that Kill
	// must release. epoch invalidates scheduled callbacks from a previous
	// incarnation.
	id          int
	down        bool
	epoch       uint64
	scratchHeld int64

	completed    metrics.Counter
	rejected     metrics.Counter
	dropped      metrics.Counter // client-visible losses after a crash
	evictions    metrics.Counter
	outputTokens metrics.Counter
	goodput      *metrics.Meter // completed output tokens per second
	ttft         *metrics.Latency
	e2e          *metrics.Latency

	// BeforeStep, when set, runs at the top of every scheduler step — the
	// integration point for the max.num.batched.tokens controller (sense
	// heap, move the knob, before this step's admissions).
	BeforeStep func()
	// BeforeAdmit, when set, runs at the top of every Offer — the
	// integration point for the admission.queue.limit controller.
	BeforeAdmit func()
	// OnEvacuate, when set, receives every waiting or running request
	// displaced by Kill — the fleet's client-retry path. Without it displaced
	// requests count as dropped.
	OnEvacuate func(req workload.LLMRequest)
}

// New returns a server with both knobs wide open (unbounded batch, the
// waiting limit from cfg) — max.num.batched.tokens at its unsafe
// effectively-unbounded default.
func New(s *sim.Simulation, heap *memsim.Heap, cfg Config) *Server {
	if cfg.KVBytesPerToken <= 0 {
		panic("llmserve: KVBytesPerToken must be positive")
	}
	if cfg.StepBase <= 0 {
		panic("llmserve: StepBase must be positive")
	}
	wl := cfg.WaitingLimit
	if wl < 1 {
		wl = math.MaxInt
	}
	sv := &Server{
		sim:              s,
		heap:             heap,
		cfg:              cfg,
		maxBatchedTokens: math.MaxInt,
		waitingLimit:     wl,
		goodput:          metrics.NewMeter(10 * time.Second),
		ttft:             metrics.NewLatency(1024),
		e2e:              metrics.NewLatency(1024),
	}
	sv.endStepFn = sv.endStepArg
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
	}
	return sv
}

// getSeq returns a recycled sequence or a fresh one, initialized for req.
func (sv *Server) getSeq(req workload.LLMRequest) *seq {
	if n := len(sv.seqPool); n > 0 {
		s := sv.seqPool[n-1]
		sv.seqPool[n-1] = nil
		sv.seqPool = sv.seqPool[:n-1]
		*s = seq{req: req, arrived: sv.sim.Now()}
		return s
	}
	//smartconf:allow hotalloc -- cold-start pool refill: fires only until the pool reaches steady-state depth, then every request recycles
	return &seq{req: req, arrived: sv.sim.Now()}
}

// putSeq recycles a retired sequence. Callers must hold no other reference.
func (sv *Server) putSeq(s *seq) { sv.seqPool = append(sv.seqPool, s) }

// Preallocate grows the sequence machinery to the given high-water mark:
// seqs recycled sequences in the pool, and matching capacity in the waiting
// queue, the continuous batch, and its reusable step snapshot. Wide fleets
// need this — a member seeing a sliver of the fleet's load would otherwise
// keep setting new concurrency watermarks (and allocating for them) for
// millions of requests, which the whole-run zero-allocation gate forbids.
func (sv *Server) Preallocate(seqs int) {
	for len(sv.seqPool) < seqs {
		sv.seqPool = append(sv.seqPool, &seq{})
	}
	if cap(sv.waiting) < seqs {
		w := make([]*seq, len(sv.waiting), seqs)
		copy(w, sv.waiting)
		sv.waiting = w
	}
	if cap(sv.running) < seqs {
		r := make([]*seq, len(sv.running), seqs)
		copy(r, sv.running)
		sv.running = r
	}
	if cap(sv.stepBatch) < seqs {
		sv.stepBatch = make([]*seq, 0, seqs)
	}
}

// popWaiting removes and returns the admission queue's head.
func (sv *Server) popWaiting() *seq {
	s := sv.waiting[sv.waitingHead]
	sv.waiting[sv.waitingHead] = nil
	sv.waitingHead++
	if sv.waitingHead == len(sv.waiting) {
		sv.waiting = sv.waiting[:0]
		sv.waitingHead = 0
	} else if sv.waitingHead > 64 && sv.waitingHead*2 >= len(sv.waiting) {
		m := copy(sv.waiting, sv.waiting[sv.waitingHead:])
		for i := m; i < len(sv.waiting); i++ {
			sv.waiting[i] = nil
		}
		sv.waiting = sv.waiting[:m]
		sv.waitingHead = 0
	}
	return s
}

// pushWaitingFront returns an evictee to the head of the admission queue.
func (sv *Server) pushWaitingFront(s *seq) {
	if sv.waitingHead > 0 {
		sv.waitingHead--
		sv.waiting[sv.waitingHead] = s
		return
	}
	sv.waiting = append(sv.waiting, nil)
	copy(sv.waiting[1:], sv.waiting)
	sv.waiting[0] = s
}

// SetMaxBatchedTokens sets the max.num.batched.tokens knob: admission stops
// while the batch's admitted PROMPT tokens would exceed n. Decode growth is
// not counted — output lengths are unknown at admission — so the resident
// footprint overshoots the bound by the workload's output/prompt ratio
// (§4.2: temporary inconsistency between C and its deputy is tolerated; the
// bound only gates new admissions). Values below zero clamp to zero.
func (sv *Server) SetMaxBatchedTokens(n int) {
	if n < 0 {
		n = 0
	}
	sv.maxBatchedTokens = n
	sv.kick() // a raised bound may unblock a stalled waiting queue
}

// SetWaitingLimit sets the admission.queue.limit knob. Values below zero
// clamp to zero; the bound gates new arrivals only — preempted sequences
// always rejoin the queue.
func (sv *Server) SetWaitingLimit(n int) {
	if n < 0 {
		n = 0
	}
	sv.waitingLimit = n
}

// MaxBatchedTokens returns the current batch-token bound.
func (sv *Server) MaxBatchedTokens() int { return sv.maxBatchedTokens }

// WaitingLimit returns the current admission-queue bound.
func (sv *Server) WaitingLimit() int { return sv.waitingLimit }

// ResidentTokens returns the tokens currently holding KV cache.
func (sv *Server) ResidentTokens() int { return sv.residentTokens }

// PromptTokens returns the batch's admitted prompt tokens — the quantity
// admission compares against the batch bound.
func (sv *Server) PromptTokens() int { return sv.promptTokens }

// WaitingLen returns the admission-queue depth (the admission.queue.limit
// deputy variable).
func (sv *Server) WaitingLen() int { return len(sv.waiting) - sv.waitingHead }

// RunningLen returns the number of sequences in the continuous batch.
func (sv *Server) RunningLen() int { return len(sv.running) }

// Crashed reports whether the server has died (OOM).
func (sv *Server) Crashed() bool { return sv.crashed }

// Completed returns the number of fully decoded requests.
func (sv *Server) Completed() int64 { return sv.completed.Value() }

// Rejected returns the number of requests refused at admission.
func (sv *Server) Rejected() int64 { return sv.rejected.Value() }

// Dropped returns the number of requests lost to a crashed server.
func (sv *Server) Dropped() int64 { return sv.dropped.Value() }

// Evictions returns the number of preemptions (recompute-from-scratch).
func (sv *Server) Evictions() int64 { return sv.evictions.Value() }

// OutputTokens returns the total output tokens of completed requests — the
// goodput numerator (tokens decoded for work that was later evicted and
// restarted, or lost to a crash, do not count).
func (sv *Server) OutputTokens() int64 { return sv.outputTokens.Value() }

// Goodput returns completed output tokens per second over the trailing
// window.
func (sv *Server) Goodput() float64 { return sv.goodput.Rate(sv.sim.Now()) }

// TTFT returns the time-to-first-token tracker (arrival → first output
// token).
func (sv *Server) TTFT() *metrics.Latency { return sv.ttft }

// E2E returns the end-to-end request latency tracker (arrival → last
// output token).
func (sv *Server) E2E() *metrics.Latency { return sv.e2e }

// Offer submits one request. It returns false when the request is refused
// (waiting queue full) or lost (server crashed).
//
//smartconf:hotpath
func (sv *Server) Offer(req workload.LLMRequest) bool {
	if sv.crashed || sv.down {
		sv.dropped.Inc()
		return false
	}
	if sv.BeforeAdmit != nil {
		sv.BeforeAdmit()
	}
	if sv.WaitingLen() >= sv.waitingLimit {
		sv.rejected.Inc()
		return false
	}
	sv.waiting = append(sv.waiting, sv.getSeq(req))
	sv.kick()
	return true
}

func (sv *Server) crash() {
	if sv.crashed {
		return
	}
	sv.crashed = true
	// A dead process serves nothing; all in-flight and queued work is lost
	// from the clients' perspective.
	sv.dropped.Add(int64(sv.WaitingLen() + len(sv.running)))
}

// kick starts the step loop if it is idle and there is work.
func (sv *Server) kick() {
	if sv.stepping || sv.crashed || sv.down {
		return
	}
	if len(sv.running) == 0 && sv.WaitingLen() == 0 {
		return
	}
	sv.stepping = true
	sv.step()
}

// admit moves waiting requests into the batch while their prompts fit under
// the token bound. Prompt tokens only: output lengths are unknown to a real
// server, so decode growth is deliberately not reserved for.
func (sv *Server) admit() {
	for sv.WaitingLen() > 0 {
		s := sv.waiting[sv.waitingHead]
		if sv.promptTokens > sv.maxBatchedTokens-s.req.Prompt {
			break // head-of-line blocking, like a real FIFO admission queue
		}
		sv.popWaiting()
		sv.promptTokens += s.req.Prompt
		s.inRunning = true
		sv.running = append(sv.running, s)
	}
}

// step runs one scheduler iteration: admit, decode one token per running
// sequence, chunk-prefill, then retire after the affine step latency.
func (sv *Server) step() {
	if sv.crashed {
		sv.stepping = false
		return
	}
	if sv.BeforeStep != nil {
		sv.BeforeStep()
		if sv.crashed { // a controller-driven probe may have observed a dead heap
			sv.stepping = false
			return
		}
	}
	sv.admit()

	// Snapshot: eviction inside ensureKV mutates sv.running mid-loop. The
	// snapshot buffer is reused across steps — a fresh slice per step would
	// dominate steady-state allocations.
	batch := append(sv.stepBatch[:0], sv.running...)
	sv.stepBatch = batch
	scheduled := 0

	// Decode: one token for every sequence past prefill.
	for _, s := range batch {
		if !s.inRunning || s.promptDone < s.req.Prompt || s.outputDone >= s.req.Output {
			continue
		}
		if !sv.ensureKV(1, s) {
			return // crashed
		}
		s.kvTokens++
		sv.residentTokens++
		s.outputDone++
		scheduled++
	}

	// Chunked prefill, admission order.
	budget := sv.cfg.PrefillChunk
	if budget < 1 {
		budget = math.MaxInt
	}
	for _, s := range batch {
		if budget == 0 {
			break
		}
		if !s.inRunning || s.promptDone >= s.req.Prompt {
			continue
		}
		k := s.req.Prompt - s.promptDone
		if k > budget {
			k = budget
		}
		if !sv.ensureKV(k, s) {
			return // crashed
		}
		s.kvTokens += k
		sv.residentTokens += k
		s.promptDone += k
		scheduled += k
		budget -= k
	}

	if scheduled == 0 {
		// Nothing runnable: the waiting queue is blocked by the token bound.
		// Park; SetMaxBatchedTokens or a new Offer will kick the loop again.
		sv.stepping = false
		return
	}

	// Activation scratch for this step: allocated mid-kernel, cannot be
	// satisfied by preemption. This is where an over-admitted batch dies.
	scratch := int64(scheduled) * sv.cfg.ScratchBytesPerToken
	if scratch > 0 {
		if err := sv.heap.Alloc(scratch); err != nil {
			sv.crash()
			return
		}
	}

	sv.scratchHeld += scratch
	d := sv.cfg.StepBase + time.Duration(scheduled)*sv.cfg.StepPerToken
	// Closure-free retirement: only one step is ever in flight, so its
	// scratch rides in a field and the epoch rides in the event argument.
	sv.stepScratch = scratch
	sv.sim.AfterArg(d, sv.endStepFn, sv.epoch)
}

// endStepArg is the scheduled form of endStep: the argument carries the
// scheduling incarnation's epoch, invalidating callbacks across Kill.
//
//smartconf:hotpath
func (sv *Server) endStepArg(arg uint64) {
	if sv.epoch != arg {
		return
	}
	sv.endStep(sv.stepScratch)
}

// endStep retires a step: frees scratch, records first tokens and
// completions, and chains the next step.
func (sv *Server) endStep(scratch int64) {
	if sv.crashed {
		return // a dead process releases nothing
	}
	if scratch > 0 {
		sv.heap.Free(scratch)
	}
	sv.scratchHeld -= scratch
	now := sv.sim.Now()
	keep := sv.running[:0]
	for _, s := range sv.running {
		if s.outputDone > 0 && !s.ttftSeen {
			s.ttftSeen = true
			sv.ttft.Observe(now - s.arrived)
		}
		if s.promptDone >= s.req.Prompt && s.outputDone >= s.req.Output {
			// Complete: release the KV cache, count the goodput.
			sv.heap.Free(int64(s.kvTokens) * sv.cfg.KVBytesPerToken)
			sv.residentTokens -= s.kvTokens
			sv.promptTokens -= s.req.Prompt
			s.kvTokens = 0
			s.inRunning = false
			sv.completed.Inc()
			sv.outputTokens.Add(int64(s.req.Output))
			sv.goodput.Mark(now, float64(s.req.Output))
			sv.e2e.Observe(now - s.arrived)
			sv.putSeq(s)
			continue
		}
		keep = append(keep, s)
	}
	for i := len(keep); i < len(sv.running); i++ {
		sv.running[i] = nil
	}
	sv.running = keep
	sv.stepping = false
	sv.kick()
}

// ensureKV makes room for tokens' KV bytes, preempting the newest running
// sequence (never the beneficiary) until the allocation fits. Returns false
// after crashing the server when no preemption can help.
func (sv *Server) ensureKV(tokens int, beneficiary *seq) bool {
	need := int64(tokens) * sv.cfg.KVBytesPerToken
	for sv.heap.Available() < need {
		victim := sv.evictionVictim(beneficiary)
		if victim == nil {
			sv.heap.Alloc(need) // records the OOM on the heap
			sv.crash()
			return false
		}
		sv.evict(victim)
	}
	if err := sv.heap.Alloc(need); err != nil {
		sv.crash()
		return false
	}
	return true
}

// evictionVictim picks the newest running sequence holding KV, skipping the
// sequence the eviction is for.
func (sv *Server) evictionVictim(beneficiary *seq) *seq {
	for i := len(sv.running) - 1; i >= 0; i-- {
		if s := sv.running[i]; s != beneficiary && s.kvTokens > 0 {
			return s
		}
	}
	return nil
}

// evict preempts a sequence: frees its KV, resets its progress
// (recompute-from-scratch, like vLLM's recompute preemption), and returns
// it to the head of the waiting queue.
func (sv *Server) evict(s *seq) {
	for i := len(sv.running) - 1; i >= 0; i-- {
		if sv.running[i] == s {
			sv.running = append(sv.running[:i], sv.running[i+1:]...)
			break
		}
	}
	sv.heap.Free(int64(s.kvTokens) * sv.cfg.KVBytesPerToken)
	sv.residentTokens -= s.kvTokens
	sv.promptTokens -= s.req.Prompt
	s.kvTokens = 0
	s.promptDone = 0
	s.outputDone = 0
	s.inRunning = false
	sv.evictions.Inc()
	sv.pushWaitingFront(s)
}
