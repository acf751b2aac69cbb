package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/experiments/engine"
	"smartconf/internal/mapred"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// MR2820: mapreduce local.dir.minspacestart decides how much free local
// disk a worker must have before starting another task. The worker disks
// are shared with a fluctuating co-tenant: admit a task with too little
// headroom and it runs out of disk mid-write, failing the job (the hard
// out-of-disk constraint). Demand too much headroom and workers idle while
// space was actually sufficient, stretching job completion time (the
// trade-off metric).
//
// Paper flags: Y-Y-Y (conditional, direct, hard).

const (
	mr2820DiskGoal = 1014 * mb // keep ≥10 MB of the 1 GB disk free (hard)
)

func mr2820Config() mapred.Config {
	return mapred.Config{
		Workers:           2,
		DiskCapacityBytes: 1 << 30,
		TaskBytesPerSec:   16 * mb,
		WriteChunks:       8,
		ScheduleInterval:  time.Second,
	}
}

// The paper's WordCount phases (Table 6): WordCount(input, split,
// parallelism). Phase 1's 64 MB splits write 64 MB intermediates per task;
// phase 2's 128 MB splits double the per-task disk footprint.
func mr2820Jobs() []workload.WordCountJob {
	p1 := workload.WordCountJob{Name: "phase-1", InputBytes: 640 * mb, SplitBytes: 64 * mb, Parallelism: 2, SpillRatio: 1.25}
	p2 := workload.WordCountJob{Name: "phase-2", InputBytes: 640 * mb, SplitBytes: 128 * mb, Parallelism: 2, SpillRatio: 1.25}
	return []workload.WordCountJob{p1, p1, p1, p2, p2, p2}
}

// mr2820Spec is the minspacestart controller every MR2820 harness
// synthesizes, from a uselessly conservative start.
func mr2820Spec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "local.dir.minspacestart",
		Metric:  "disk_consumption",
		Goal:    float64(mr2820DiskGoal),
		Hard:    true,
		Initial: 512 * float64(mb),
		Min:     0, Max: 1 << 30,
	}
}

// mapredRig is the MR2820 MapReduce substrate wired once for the
// profiling, figure and chaos harnesses.
type mapredRig struct {
	s   *sim.Simulation
	rng *rand.Rand // co-tenant walk
	c   *mapred.Cluster
	// w and next are the admission decision the scheduler hook is about to
	// make: the candidate worker and the task's disk footprint.
	w    *mapred.Worker
	next int64
}

func newMapredRig(seed, minSpace int64) *mapredRig {
	s := newScenarioSim()
	return &mapredRig{s: s, rng: rand.New(rand.NewSource(seed)), c: mapred.New(s, mr2820Config(), minSpace)}
}

// sense anticipates: it reports the occupancy the candidate admission
// WOULD create (the Master knows the task's footprint), so the
// controller's bound already covers the task about to start.
func (r *mapredRig) sense() (perf, deputy float64) {
	return float64(r.w.Disk.Used() + r.w.Committed() + r.next), 0 //sc:MR2820:sensor
}

// actuate is the Master shipping the setting to the worker (§6.5's Others
// row).
func (r *mapredRig) actuate(v float64) { r.c.SetMinSpaceStart(int64(v)) } //sc:MR2820:other

// attach runs tick at each admission decision (conditional configuration).
func (r *mapredRig) attach(tick func()) {
	r.c.BeforeSchedule = func(w *mapred.Worker, next int64) {
		r.w, r.next = w, next
		tick()
	}
}

// coTenant drives the disturbance: every 5 s each worker's co-tenant
// footprint random-walks within [low, high], lifted by 100 MB × (surge−1).
// freezeOnOOD stops the walk at the first out-of-disk write.
func (r *mapredRig) coTenant(low, high, maxStep int64, until time.Duration, env *chaos.Env, freezeOnOOD bool) {
	current := make([]int64, len(r.c.Workers()))
	for i, w := range r.c.Workers() {
		current[i] = (low + high) / 2
		w.SetCoTenant(current[i])
	}
	r.s.Every(5*time.Second, 5*time.Second, func() bool {
		bump := int64((env.SurgeFactor() - 1) * float64(100*mb))
		for i, w := range r.c.Workers() {
			step := int64(r.rng.Intn(int(2*maxStep+1))) - maxStep
			next := current[i] + step
			if next < low+bump {
				next = low + bump
			}
			if next > high+bump {
				next = high + bump
			}
			current[i] = next
			w.SetCoTenant(next)
		}
		return r.s.Now() < until && !(freezeOnOOD && r.c.OOD())
	})
}

// probe samples the fullest disk and the knob while jobs run.
func (r *mapredRig) probe() *probe {
	p := &probe{}
	p.track("max_disk_used", "bytes", func() float64 { return float64(r.c.MaxDiskUsed()) })
	p.track("minspacestart", "bytes", func() float64 { return float64(r.c.MinSpaceStart()) })
	p.start(r.s, func() bool { return r.c.Busy() || r.s.Now() < 10*time.Second })
	return p
}

// runJobs runs the evaluation's job sequence back to back from t = 1 s and
// stops the simulation when the last job ends; the returned slice collects
// each finished job's result.
func (r *mapredRig) runJobs() *[]mapred.JobResult {
	jobs := mr2820Jobs()
	results := new([]mapred.JobResult)
	var runNext func(i int)
	runNext = func(i int) {
		if i >= len(jobs) {
			r.s.Stop()
			return
		}
		r.c.RunJob(jobs[i], func(res mapred.JobResult) {
			*results = append(*results, res)
			runNext(i + 1)
		})
	}
	r.s.At(time.Second, func() { runNext(0) })
	return results
}

// ProfileMR2820 profiles peak disk consumption against the pinned
// minspacestart under the profiling workload: WordCount(2 GB, 64 MB, ×1)
// with the co-tenant walking. The campaign runs once process-wide and its
// four pinned-setting runs fan out across the worker pool.
func ProfileMR2820() core.Profile {
	job := workload.WordCountJob{Name: "profiling", InputBytes: 2 << 30, SplitBytes: 64 * mb, Parallelism: 1, SpillRatio: 1.25}
	settings := []float64{50 * float64(mb), 150 * float64(mb), 250 * float64(mb), 350 * float64(mb)}
	return profileSweep("MR2820", settings, func(setting float64, record func(setting, measurement float64)) {
		r := newMapredRig(2820, int64(setting))
		// The profiling run stresses the disks (a heavier co-tenant than the
		// evaluation) so the knob↔occupancy relation is identifiable — the
		// paper's advice that wider profiling workloads make the controller
		// more robust.
		r.coTenant(550*mb, 950*mb, 120*mb, time.Hour, nil, false)
		// Time-driven sampling: the scheduler hook only fires when a slot is
		// idle, which would systematically miss the occupancy of running
		// tasks and flatten the model.
		sampleTen(r.s, 10*time.Second, 5*time.Second, record, func() (float64, float64, bool) {
			var max int64
			for _, w := range r.c.Workers() {
				if v := w.Disk.Used() + w.Committed(); v > max {
					max = v
				}
			}
			return setting, float64(max), true
		})
		r.s.At(time.Second, func() { r.c.RunJob(job, func(mapred.JobResult) { r.s.Stop() }) })
		r.s.RunUntil(time.Hour)
	})
}

// RunMR2820 executes the six-job evaluation (three phase-1 WordCounts, then
// three phase-2 WordCounts) under the given policy.
//
// Out-of-disk is a race between task admission and the co-tenant's walk, so
// a single trajectory is too noisy to judge a policy: the run repeats over
// five co-tenant seeds; the constraint must hold on every one and the
// trade-off is the mean makespan (the paper's testbed runs average the same
// kind of environmental variance).
func RunMR2820(p Policy) Result {
	results := engine.Map(5, func(i int) Result {
		seed := 2821 + int64(i)
		return memoKeyed("MR2820", policyKey(p), "seed-race", seed,
			func() Result { return runMR2820Seed(p, seed) })
	})
	agg := results[0] // the first seed's series and labels stand for the run
	var total float64
	for _, r := range results {
		total += r.Tradeoff
		if !r.ConstraintMet && agg.ConstraintMet {
			agg.ConstraintMet = false
			agg.Violation = r.Violation
			agg.ViolatedAt = r.ViolatedAt
		}
	}
	agg.Tradeoff = total / float64(len(results))
	return agg
}

func runMR2820Seed(p Policy, seed int64) Result {
	r := newMapredRig(seed, 0)

	switch p.Kind {
	case StaticPolicy:
		r.c.SetMinSpaceStart(int64(p.Static))
	case SmartConfPolicy:
		control(r, directStep(mustConf(mr2820Spec(), ProfileMR2820())))
	case SinglePolePolicy, NoVirtualGoalPolicy:
		ctrl := ablationController(p.Kind, ProfileMR2820(), float64(mr2820DiskGoal), p.FixedPole)
		control(r, func(perf, _ float64) float64 { return ctrl.Update(perf) })
	}

	r.coTenant(550*mb, 740*mb, 40*mb, time.Hour, nil, false)
	probe := r.probe()
	results := r.runJobs()
	r.s.RunUntil(4 * time.Hour) // safety bound; jobs normally end far earlier

	res := MR2820Scenario().result(p, r.s.Now().Seconds(), probe)
	failedTasks := 0
	for _, jr := range *results {
		failedTasks += jr.FailedTasks
	}
	switch {
	case r.c.OOD():
		res.Violation = fmt.Sprintf("OOD (%d failed tasks)", failedTasks)
		res.ViolatedAt = firstViolation(probe.metric(), float64(mr2820DiskGoal))
	case len(*results) < len(mr2820Jobs()):
		res.Violation = fmt.Sprintf("only %d/%d jobs finished", len(*results), len(mr2820Jobs()))
	default:
		res.ConstraintMet = true
	}
	return res
}

func firstViolation(s Series, goal float64) time.Duration {
	for _, p := range s.Points {
		if p.V > goal {
			return p.T
		}
	}
	if n := len(s.Points); n > 0 {
		return s.Points[n-1].T
	}
	return 0
}

// MR2820Scenario returns the scenario descriptor.
func MR2820Scenario() Scenario {
	return Scenario{
		ID:                "MR2820",
		Conf:              "local.dir.minspacestart",
		Description:       "decides if a worker has enough disk to run a task; too small, OOD; too big, low utilization (job latency hurts)",
		Flags:             "Y-Y-Y",
		ConstraintName:    "no out-of-disk failures (hard)",
		TradeoffName:      "job-sequence makespan (s)",
		HigherIsBetter:    false,
		ProfilingWorkload: "WordCount(2GB, 64MB, ×1) @ minspace 50/150/250/350MB",
		PhaseWorkloads:    [2]string{"WordCount(640MB, 64MB, ×2) ×3", "WordCount(640MB, 128MB, ×2) ×3"},
		BuggyDefault:      0,
		PatchDefault:      1 * float64(mb), // the patched default (1 MB) — still OODs
		StaticGrid:        []float64{50 * float64(mb), 100 * float64(mb), 150 * float64(mb), 200 * float64(mb), 230 * float64(mb), 260 * float64(mb), 300 * float64(mb), 350 * float64(mb), 420 * float64(mb), 460 * float64(mb)},
		NonOptimal:        300 * float64(mb), // the paper's Figure 5 non-optimal bar
		Run:               RunMR2820,
	}
}
