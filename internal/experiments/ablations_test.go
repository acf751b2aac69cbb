package experiments

import (
	"strings"
	"testing"
)

func TestAblationPolesAutoIsSafeAndResponsive(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	rows := AblationPoles()
	var auto *PoleAblationRow
	for i := range rows {
		r := &rows[i]
		t.Logf("pole %.3f auto=%v met=%v tput=%.2f conv=%v",
			r.Pole, r.Auto, r.ConstraintMet, r.Throughput, r.Convergence)
		if r.Auto {
			auto = r
		}
	}
	if auto == nil {
		t.Fatal("sweep did not include the automatically derived pole")
	}
	if !auto.ConstraintMet {
		t.Error("the §5.1 pole violated the constraint")
	}
	// The extreme conservative pole must be visibly slower to converge or
	// visibly worse on throughput than the automatic one.
	slowest := rows[len(rows)-1] // 0.99
	if slowest.Pole != 0.99 {
		t.Fatalf("expected 0.99 last, got %v", slowest.Pole)
	}
	if !(slowest.Convergence > auto.Convergence || slowest.Throughput < auto.Throughput) {
		t.Errorf("pole 0.99 (conv %v, tput %.2f) shows no cost vs auto (conv %v, tput %.2f)",
			slowest.Convergence, slowest.Throughput, auto.Convergence, auto.Throughput)
	}
	if out := RenderAblationPoles(rows); !strings.Contains(out, "§5.1") {
		t.Error("render missing the auto marker")
	}
}

func TestAblationVirtualGoalMargin(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	rows := AblationVirtualGoalMargin()
	byLambda := map[float64]MarginAblationRow{}
	var auto MarginAblationRow
	for _, r := range rows {
		t.Logf("λ=%.3f vg=%.0fMB met=%v tput=%.2f", r.Lambda, r.VirtualGoalMB, r.ConstraintMet, r.Throughput)
		byLambda[r.Lambda] = r
		if r.Auto {
			auto = r
		}
	}
	// Zero margin leaves the controller targeting the real constraint: the
	// noise process must push it over at least once.
	if byLambda[0].ConstraintMet {
		t.Error("λ=0 (no virtual goal) unexpectedly satisfied the constraint")
	}
	if !auto.ConstraintMet {
		t.Error("the measured λ violated the constraint")
	}
	// Excess margin costs throughput relative to the measured λ.
	if fat := byLambda[0.3]; fat.ConstraintMet && fat.Throughput >= auto.Throughput {
		t.Errorf("λ=0.3 throughput %.2f should be below auto %.2f", fat.Throughput, auto.Throughput)
	}
	if out := RenderAblationMargins(rows); !strings.Contains(out, "§5.2") {
		t.Error("render missing the auto marker")
	}
}

func TestAblationInteractionFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	a := AblationInteractionFactor()
	if a.WithFactor.OOM {
		t.Error("N=2 OOMed")
	}
	if a.WithFactor.Mem.Max() > a.WithFactor.Goal {
		t.Errorf("N=2 peak %.0fMB above the goal", a.WithFactor.Mem.Max()/float64(mb))
	}
	// Naive composition must be visibly worse on at least one §5.6 axis:
	// an outright violation, a higher memory peak, or more actuation churn
	// (tandem overcorrection).
	worse := a.WithoutFactor.OOM ||
		a.WithoutFactor.Mem.Max() > a.WithFactor.Mem.Max() ||
		a.ChurnWithout > a.ChurnWith
	if !worse {
		t.Errorf("N=1 shows no cost: peak %.0fMB vs %.0fMB, churn %.0f vs %.0f",
			a.WithoutFactor.Mem.Max()/float64(mb), a.WithFactor.Mem.Max()/float64(mb),
			a.ChurnWithout, a.ChurnWith)
	}
	t.Logf("N=2 peak %.0fMB churn %.0f; N=1 peak %.0fMB churn %.0f (OOM=%v)",
		a.WithFactor.Mem.Max()/float64(mb), a.ChurnWith,
		a.WithoutFactor.Mem.Max()/float64(mb), a.ChurnWithout, a.WithoutFactor.OOM)
	if out := RenderAblationInteraction(a); !strings.Contains(out, "N=1") {
		t.Error("render incomplete")
	}
}

func TestAblationAdaptiveModel(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	a := AblationAdaptiveModel()
	if !a.Fixed.ConstraintMet || !a.Adaptive.ConstraintMet {
		t.Fatalf("constraints: fixed=%v adaptive=%v", a.Fixed.ConstraintMet, a.Adaptive.ConstraintMet)
	}
	// Phase 2's true slope is ≈2 MB/item; the adaptive estimate must end
	// closer to it than the fixed profiled slope does.
	trueAlpha := 2.0 * float64(mb)
	errFixed := abs(a.FinalAlphaFixed - trueAlpha)
	errAdaptive := abs(a.FinalAlphaAdaptive - trueAlpha)
	t.Logf("final α: fixed %.2f MB/item, adaptive %.2f MB/item (true ≈2)",
		a.FinalAlphaFixed/float64(mb), a.FinalAlphaAdaptive/float64(mb))
	if errAdaptive >= errFixed {
		t.Errorf("adaptive slope error %.0f not below fixed %.0f", errAdaptive, errFixed)
	}
	if out := RenderAblationAdaptive(a); !strings.Contains(out, "RLS") {
		t.Error("render incomplete")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestAblationProfilingDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	rows := AblationProfilingDepth()
	for _, r := range rows {
		t.Logf("%d settings × %d samples: met=%v tput=%.2f err=%q",
			r.Settings, r.Samples, r.ConstraintMet, r.Throughput, r.SynthesisErr)
	}
	// The full plan and the sparse 2×3 plan must both satisfy the
	// constraint — the paper's "no intensive profiling required".
	if !rows[0].ConstraintMet || rows[0].SynthesisErr != "" {
		t.Error("full profiling plan failed")
	}
	if !rows[2].ConstraintMet || rows[2].SynthesisErr != "" {
		t.Error("sparse 2×3 plan failed — the robustness claim does not reproduce")
	}
	// A single setting cannot identify a slope: synthesis must refuse.
	if rows[3].SynthesisErr == "" {
		t.Error("single-setting profile should fail synthesis loudly")
	}
}

// TestRobustnessSweep backs the paper's §6.1 claim that one profiled
// controller handles "a wide variety of workload settings": the hard memory
// constraint must hold on every cell of a 54-workload grid the profile
// never saw.
func TestRobustnessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("54-cell sweep")
	}
	cells := RunRobustnessSweep()
	failures := 0
	for _, c := range cells {
		if !c.ConstraintMet {
			failures++
			t.Errorf("cell burst=%d every=%.1fs req=%.1fMB writes=%.1f: %s",
				c.BurstSize, c.BurstEverySec, c.RequestMB, c.WriteRatio, c.Violation)
		}
	}
	t.Logf("%d/%d cells satisfied the constraint", len(cells)-failures, len(cells))
	if out := RenderRobustness(cells); !strings.Contains(out, "robustness") {
		t.Error("render incomplete")
	}
}

// TestBackendAIMD backs the related-work claim that control-theoretic
// solutions beat hand-tuned heuristics at constrained optimization: the
// synthesized controller must satisfy the constraint AND match or beat
// every AIMD parameterization that also satisfies it.
func TestBackendAIMD(t *testing.T) {
	if testing.Short() {
		t.Skip("backend comparison")
	}
	c := AblationBackendAIMD()
	t.Logf("SmartConf: met=%v tput=%.2f", c.SmartConf.ConstraintMet, c.SmartConf.Tradeoff)
	t.Logf("AIMD cautious: met=%v tput=%.2f (%s)", c.AIMDCautious.ConstraintMet, c.AIMDCautious.Tradeoff, c.AIMDCautious.Violation)
	t.Logf("AIMD aggressive: met=%v tput=%.2f (%s)", c.AIMDAggressive.ConstraintMet, c.AIMDAggressive.Tradeoff, c.AIMDAggressive.Violation)
	if !c.SmartConf.ConstraintMet {
		t.Fatal("SmartConf violated its constraint")
	}
	for name, r := range map[string]Result{"cautious": c.AIMDCautious, "aggressive": c.AIMDAggressive} {
		if r.ConstraintMet && r.Tradeoff > c.SmartConf.Tradeoff {
			t.Errorf("AIMD %s beat SmartConf while satisfying the constraint (%.2f > %.2f)",
				name, r.Tradeoff, c.SmartConf.Tradeoff)
		}
	}
	if out := RenderBackendComparison(c); !strings.Contains(out, "AIMD") {
		t.Error("render incomplete")
	}
}

// TestSeedSensitivity reruns the HB3813 SmartConf evaluation under five
// different workload seeds: the constraint must hold on every one (the
// headline result is not a seed artifact).
func TestSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for seed := int64(1); seed <= 5; seed++ {
		l := hb3813Standard()
		l.seed = seed * 101
		r := runHB3813(SmartConf(), l, hb3813Policy(SmartConf()))
		if !r.ConstraintMet {
			t.Errorf("seed %d: %s at %v", seed, r.Violation, r.ViolatedAt)
		}
		if r.Tradeoff < 10 {
			t.Errorf("seed %d: implausibly low throughput %.2f", seed, r.Tradeoff)
		}
	}
}
