package main

import (
	"fmt"
	"time"

	"smartconf"
	"smartconf/internal/declog"
	"smartconf/internal/memsim"
	"smartconf/internal/rpcserver"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// rpc-smartconf puts SmartConf on the request path, wired as the paper's
// HB3813 integration: one RPC server with a 512 MB heap whose
// max.queue.size is set by two controllers. A hard-goal IndirectConf keeps
// the heap under 495 MB, sensing and deciding at every admission; a soft
// p99-latency Conf decides on a virtual-time cadence. The applied bound is
// the smaller of the two, as cluster.Coordinator layers them per node. Both
// append to one decision log. Bursty arrivals alternate 1 MB and 2 MB write
// phases, so the memory controller keeps re-converging. No router and a
// shallow event queue: this is the workload that bypasses both.

// rscOps is one repetition's request count (≈1.2 s of host time).
var rscOps int64 = 2_000_000

const (
	rscHeap     = 512 << 20
	rscGoal     = 495 << 20
	rscBaseHeap = 280 << 20
	rscKeys     = 1000
	rscRate     = 50                // mean offered ops per virtual second
	rscBurstK   = 0.1               // Gamma interarrival shape: clumped arrivals
	rscPhase    = 120 * time.Second // each write-size phase lasts this long
	rscCadence  = 15 * time.Second  // latency controller period
	rscP99Goal  = 2.0               // seconds, soft
	rscLogSize  = 4096
	// Profiling: each pinned-bound run lasts rscProfileVT of virtual time
	// at rscProfileRate, and samples after rscProfileWarm.
	rscProfileVT   = 70 * time.Second
	rscProfileRate = 150
	rscProfileWarm = 20 * time.Second
	rscProfileSeed = 3813
)

var rscPhases = [2]workload.YCSBPhase{
	{Name: "1MB", WriteRatio: 1, RequestBytes: 1 << 20, OpsPerSec: rscRate, Arrival: workload.ArrivalGamma, ArrivalShape: rscBurstK},
	{Name: "2MB", WriteRatio: 1, RequestBytes: 2 << 20, OpsPerSec: rscRate, Arrival: workload.ArrivalGamma, ArrivalShape: rscBurstK},
}

func rscConfig() rpcserver.Config {
	cfg := rpcserver.DefaultConfig()
	cfg.BaseHeapBytes = rscBaseHeap
	cfg.MaxBatch = 4
	return cfg
}

type rpcSmartConf struct {
	s    *sim.Simulation
	heap *memsim.Heap
	sv   *rpcserver.Server
	gen  *workload.YCSB
	log  *declog.Log
	mem  *smartconf.IndirectConf
	lat  *smartconf.Conf

	memBound, latBound int
	decisions          int64
	violations         int64
	p99                []float64 // ms, one per latency-controller period

	n, ops   int64
	now      time.Duration
	phaseEnd time.Duration
	phase    int

	tr                                                *tracer
	pDraw, pRun, pOffer, pSetPerf, pConf, pPercentile *probe
}

// newRPCSmartConf profiles the plant (the paper's pinned-setting campaign),
// synthesizes both controllers and wires them in. Profiling is part of
// set-up. Like the paper's campaign it runs one fixed profiling workload,
// so every seed gets the same controllers and the seed drives the
// evaluation load alone.
func newRPCSmartConf(seed int64, tr *tracer) (bench, error) {
	memProfile := smartconf.NewProfile()
	for i, bound := range []int{40, 80, 120, 160} {
		var enqueues, taken int
		rscProfileRun(rscProfileSeed+int64(i), bound, func(s *sim.Simulation, sv *rpcserver.Server, heap *memsim.Heap) {
			sv.BeforeAdmit = func() {
				enqueues++
				if s.Now() >= rscProfileWarm && enqueues%25 == 0 && taken < 10 {
					memProfile.Add(float64(bound), float64(heap.Used()))
					taken++
				}
			}
		})
	}
	latProfile := smartconf.NewProfile()
	for i, bound := range []int{30, 90, 180, 300} {
		rscProfileRun(rscProfileSeed+100+int64(i), bound, func(s *sim.Simulation, sv *rpcserver.Server, heap *memsim.Heap) {
			taken := 0
			s.Every(rscProfileWarm, 5*time.Second, func() bool {
				latProfile.Add(float64(bound), sv.Latency().Percentile(99).Seconds())
				taken++
				return taken < 10
			})
		})
	}

	w := &rpcSmartConf{
		s:     sim.New(),
		heap:  memsim.NewHeap(rscHeap),
		log:   declog.New(rscLogSize),
		n:     rscOps,
		tr:    tr,
		pDraw: tr.probe(spanDraw), pRun: tr.probe(spanRunUntil), pOffer: tr.probe(spanRPCOffer),
		pSetPerf: tr.probe(spanSetPerf), pConf: tr.probe(spanConf), pPercentile: tr.probe(spanPercentile),
	}
	w.sv = rpcserver.New(w.s, w.heap, rscConfig())
	var err error
	w.mem, err = smartconf.NewIndirect(smartconf.Spec{
		Name: "ipc.server.max.queue.size", Metric: "memory_consumption",
		Goal: rscGoal, Hard: true, Initial: 0, Min: 0, Max: 5000,
	}, memProfile, nil, smartconf.WithDecisionLog(w.log))
	if err != nil {
		return nil, fmt.Errorf("memory controller: %w", err)
	}
	w.lat, err = smartconf.New(smartconf.Spec{
		Name: "ipc.server.max.queue.size.latency", Metric: "p99_latency",
		Goal: rscP99Goal, Initial: 1, Min: 1, Max: 5000,
	}, latProfile, smartconf.WithDecisionLog(w.log))
	if err != nil {
		return nil, fmt.Errorf("latency controller: %w", err)
	}
	w.memBound, w.latBound = 0, 5000
	w.sv.SetMaxQueue(0)
	w.sv.BeforeAdmit = w.admit
	w.s.Every(rscCadence, rscCadence, w.latencyPeriod)
	w.gen = workload.NewYCSB(seed, rscKeys, rscPhases[0])
	w.phaseEnd = rscPhase
	return w, nil
}

// rscProfileRun drives one pinned-bound profiling simulation; hook installs
// the sampler. The profiling workload differs from the evaluation's, as in
// the paper: steady Poisson 1 MB writes at twice the server's capacity, so
// the queue sits at the pinned bound and each sample reflects it.
func rscProfileRun(seed int64, bound int, hook func(*sim.Simulation, *rpcserver.Server, *memsim.Heap)) {
	s := sim.New()
	heap := memsim.NewHeap(rscHeap)
	sv := rpcserver.New(s, heap, rscConfig())
	sv.SetMaxQueue(bound)
	hook(s, sv, heap)
	gen := workload.NewYCSB(seed, rscKeys, workload.YCSBPhase{
		Name: "profiling", WriteRatio: 1, RequestBytes: 1 << 20, OpsPerSec: rscProfileRate,
	})
	var now time.Duration
	for now < rscProfileVT {
		now += gen.NextInterarrival()
		s.RunUntil(now)
		sv.Offer(gen.NextOp())
	}
}

// admit is the enqueue-site integration: sense heap and queue, decide, apply.
func (w *rpcSmartConf) admit() {
	used := w.heap.Used()
	if used > rscGoal {
		w.violations++
	}
	w.tr.begin(w.pSetPerf)
	w.mem.SetPerf(float64(used), float64(w.sv.QueueLen()))
	w.tr.end()
	w.tr.begin(w.pConf)
	w.memBound = w.mem.Conf()
	w.tr.end()
	w.decisions++
	w.apply()
}

// latencyPeriod is the soft controller's virtual-time cadence.
func (w *rpcSmartConf) latencyPeriod() bool {
	w.tr.begin(w.pPercentile)
	p99 := w.sv.Latency().Percentile(99)
	w.tr.end()
	w.p99 = append(w.p99, float64(p99)/float64(time.Millisecond))
	w.tr.begin(w.pSetPerf)
	w.lat.SetPerf(p99.Seconds())
	w.tr.end()
	w.tr.begin(w.pConf)
	w.latBound = w.lat.Conf()
	w.tr.end()
	w.decisions++
	w.apply()
	return true
}

func (w *rpcSmartConf) apply() {
	b := w.memBound
	if w.latBound < b {
		b = w.latBound
	}
	if b < 0 {
		b = 0
	}
	w.sv.SetMaxQueue(b)
}

func (w *rpcSmartConf) run() {
	tr := w.tr
	for w.ops < w.n {
		tr.begin(w.pDraw)
		w.now += w.gen.NextInterarrival()
		if w.now >= w.phaseEnd {
			w.phase ^= 1
			w.gen.SetPhase(rscPhases[w.phase])
			w.phaseEnd += rscPhase
		}
		op := w.gen.NextOp()
		tr.end()
		tr.begin(w.pRun)
		w.s.RunUntil(w.now)
		tr.end()
		tr.begin(w.pOffer)
		w.sv.Offer(op)
		tr.end()
		w.ops++
	}
}

// finish checks that the server never ran out of memory, served requests,
// and accounted for every offered one, then hashes the simulated statistics
// and the decision log's retained records.
func (w *rpcSmartConf) finish() (rep, error) {
	sv := w.sv
	if sv.Crashed() || w.heap.OOM() {
		return rep{}, fmt.Errorf("server ran out of memory under the hard goal")
	}
	if sv.Completed() == 0 {
		return rep{}, fmt.Errorf("the controlled server completed no request")
	}
	load := int64(sv.Load())
	if got := sv.Completed() + sv.Rejected() + sv.Dropped() + load; got != w.ops {
		return rep{}, fmt.Errorf("conservation: offered %d != completed %d + rejected %d + dropped %d + in flight %d",
			w.ops, sv.Completed(), sv.Rejected(), sv.Dropped(), load)
	}
	d := newDigest()
	d.add("server", sv.Completed(), sv.Rejected(), sv.Dropped(), load, sv.MaxQueue(), w.heap.Peak())
	d.add("sim", w.s.Now(), w.s.Events(), w.s.MaxPending())
	d.add("control", w.decisions, w.violations, w.memBound, w.latBound, w.log.Total())
	for _, r := range w.log.Snapshot() {
		d.add("record", r.Source, r.Period, r.Epoch, r.Clamp, r.Sensed, r.Err, r.Pole, r.Raw, r.Applied)
	}
	d.add("p99_ms", w.p99)

	ops := float64(w.ops)
	refused := sv.Rejected() + sv.Dropped()
	return rep{
		ops:     w.ops,
		refused: refused,
		digest:  d.sum(),
		outcome: map[string]float64{
			"plant.fail_share":      ratio(float64(refused), ops),
			"plant.sim_p99_ms":      median(w.p99),
			"plant.sim_goodput":     ratio(float64(sv.Completed()), w.s.Now().Seconds()),
			"plant.goal_violations": float64(w.violations),
		},
		counts: map[string]float64{
			"sim.events_per_op":           ratio(float64(w.s.Events()), ops),
			"sim.peak_pending":            float64(w.s.MaxPending()),
			"rpcserver.rejected_share":    ratio(float64(sv.Rejected()), ops),
			"smartconf.decisions_per_op":  ratio(float64(w.decisions), ops),
			"declog.records_per_decision": ratio(float64(w.log.Total()), float64(w.decisions)),
			"metrics.queries":             float64(len(w.p99)),
			"memsim.peak_used_mb":         float64(w.heap.Peak()) / mib,
		},
	}, nil
}
