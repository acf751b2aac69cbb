package experiments

import (
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/core"
	"smartconf/internal/kvstore"
	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// CA6059: memtable_total_space_in_mb thresholds the Cassandra write buffer.
// A large memtable absorbs writes cheaply (few flushes ⇒ low write latency)
// but OOMs the moment other heap consumers grow — in phase 2 the read-index
// cache expands to half the heap ("C0.5" in Table 6) and any generous static
// setting dies. A small memtable flushes constantly, and write latency pays
// the IO-contention penalty most of the time.
//
// Paper flags: N-N-Y (always-on, indirect, hard).

const (
	ca6059RunTime    = 700 * time.Second
	ca6059PhaseShift = 350 * time.Second
	ca6059HeapCap    = 512 * mb
	ca6059Goal       = 495 * mb
	ca6059WriteEvery = 50 * time.Millisecond
)

func ca6059Config() kvstore.MemtableConfig {
	return kvstore.MemtableConfig{
		FlushBytesPerSec:   256 * mb,
		FlushFixedOverhead: 500 * time.Millisecond,
		WriteBaseLatency:   2 * time.Millisecond,
		FlushPenalty:       20 * time.Millisecond,
		BaseHeapBytes:      64 * mb,
	}
}

func ca6059Phases() []workload.YCSBPhase {
	return []workload.YCSBPhase{
		// Table 6: phase-1 "1.0W, 1MB, C0"; phase-2 "0.9W, 1MB, C0.5".
		{Name: "phase-1", Duration: ca6059PhaseShift, WriteRatio: 1.0, RequestBytes: 1 * mb, CacheRatio: 0},
		{Name: "phase-2", WriteRatio: 0.9, RequestBytes: 1 * mb, CacheRatio: 0.5},
	}
}

// memtableRig is the CA6059 memtable substrate wired once for the
// profiling and figure harnesses.
type memtableRig struct {
	s     *sim.Simulation
	rng   *rand.Rand // heap noise
	heap  *memsim.Heap
	st    *kvstore.MemtableStore
	until time.Duration
	oomAt time.Duration
}

func newMemtableRig(seed, threshold int64, until time.Duration) *memtableRig {
	s := newScenarioSim()
	r := &memtableRig{s: s, rng: rand.New(rand.NewSource(seed)), heap: memsim.NewHeap(ca6059HeapCap), until: until}
	r.st = kvstore.NewMemtableStore(s, r.heap, ca6059Config(), threshold)
	r.heap.OnOOM(func() { r.oomAt = s.Now() })
	heapNoise(s, r.heap, r.rng, rpcNoiseMax, until)
	return r
}

// load issues one YCSB operation every ca6059WriteEvery, switching phases
// (and the read-index cache target with them) on schedule.
func (r *memtableRig) load(seed int64, phases ...workload.YCSBPhase) {
	gen := workload.NewYCSB(seed, 1000, phases[0])
	r.s.Every(0, ca6059WriteEvery, func() bool {
		if phase, _ := workload.PhaseAt(phases, r.s.Now()); phase.Name != gen.Phase().Name {
			gen.SetPhase(phase)
			r.st.SetCacheTarget(int64(phase.CacheRatio * float64(ca6059HeapCap)))
		}
		op := gen.NextOp()
		if op.Write {
			r.st.Write(op.Bytes)
		} else {
			r.st.Read(op.Bytes)
		}
		return r.s.Now() < r.until && !r.st.Crashed()
	})
}

// ProfileCA6059 runs the profiling campaign under the profiling workload
// (YCSB-A: 0.5W, 1 MB), pinning the memtable threshold at four settings and
// sampling heap consumption at write time.
func ProfileCA6059() core.Profile {
	settings := []float64{32 * float64(mb), 96 * float64(mb), 160 * float64(mb), 224 * float64(mb)}
	return profileSweep("CA6059", settings, func(setting float64, record func(setting, measurement float64)) {
		r := newMemtableRig(6059, int64(setting), hb3813ProfileStep)
		writes, taken := 0, 0
		r.st.BeforeWrite = func() {
			writes++
			if writes%200 == 0 && taken < 10 {
				record(setting, float64(r.heap.Used()))
				taken++
			}
		}
		r.load(6059, workload.YCSBPhase{WriteRatio: 0.5, RequestBytes: 1 * mb})
		r.s.RunUntil(hb3813ProfileStep)
	})
}

// RunCA6059 executes the two-phase evaluation under the given policy.
func RunCA6059(p Policy) Result {
	r := newMemtableRig(6059, 0, ca6059RunTime)

	switch p.Kind {
	case StaticPolicy:
		r.st.SetThreshold(int64(p.Static))
	case SmartConfPolicy:
		ic := mustIndirect(smartconf.Spec{
			Name:    "memtable_total_space_in_mb",
			Metric:  "memory_consumption",
			Goal:    float64(ca6059Goal),
			Hard:    true,
			Initial: 0,
			Min:     0, Max: float64(ca6059HeapCap),
		}, ProfileCA6059(), nil)
		r.st.BeforeWrite = func() {
			ic.SetPerf(float64(r.heap.Used()), float64(r.st.MemtableBytes())) //sc:CA6059:sensor
			r.st.SetThreshold(int64(ic.Value()))                              //sc:CA6059:invoke
		}
	case SinglePolePolicy, NoVirtualGoalPolicy:
		ctrl := ablationController(p.Kind, ProfileCA6059(), float64(ca6059Goal), p.FixedPole)
		r.st.BeforeWrite = func() {
			ctrl.SetConf(float64(r.st.MemtableBytes()))
			r.st.SetThreshold(int64(ctrl.Update(float64(r.heap.Used()))))
		}
	}

	probe := &probe{}
	probe.track("used_memory", "bytes", func() float64 { return float64(r.heap.Used()) })
	probe.track("memtable_total_space", "bytes", func() float64 { return float64(r.st.Threshold()) })
	probe.start(r.s, func() bool { return r.s.Now() < ca6059RunTime && !r.heap.OOM() })
	r.load(6060, ca6059Phases()...)
	r.s.RunUntil(ca6059RunTime)

	res := CA6059Scenario().result(p, float64(r.st.WriteLatency().OverallMean())/float64(time.Millisecond), probe)
	judgeMemory(&res, r.heap.OOM(), r.oomAt, probe.metric(), constGoal(float64(ca6059Goal)))
	return res
}

// CA6059Scenario returns the scenario descriptor.
func CA6059Scenario() Scenario {
	return Scenario{
		ID:                "CA6059",
		Conf:              "memtable_total_space_in_mb",
		Description:       "limits the memtable size; too big, OOM; too small, write latency hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "memory ≤ 495MB (hard, no OOM)",
		TradeoffName:      "mean write latency (ms)",
		HigherIsBetter:    false,
		ProfilingWorkload: "YCSB-A 0.5W, 1MB @ memtable 32/96/160/224MB",
		PhaseWorkloads:    [2]string{"YCSB 1.0W, 1MB, C0", "YCSB 0.9W, 1MB, C0.5"},
		BuggyDefault:      320 * float64(mb), // a generous default — dies when the cache grows
		PatchDefault:      64 * float64(mb),  // the conservative patched default
		StaticGrid:        []float64{8 * float64(mb), 16 * float64(mb), 24 * float64(mb), 32 * float64(mb), 40 * float64(mb), 48 * float64(mb), 64 * float64(mb), 96 * float64(mb), 128 * float64(mb), 192 * float64(mb)},
		NonOptimal:        8 * float64(mb),
		Run:               RunCA6059,
	}
}
