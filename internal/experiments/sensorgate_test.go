package experiments

import (
	"testing"
	"time"

	"smartconf/internal/workload"
)

// The HB2149 sensor fires at flush START, but its measurement is the
// PREVIOUS flush's block time. On the very first flush there is no previous
// flush: Latency.Last() returns a phantom 0 s sample that reads "goal met
// with 10 s of headroom" and would move the knob off fabricated data. The
// gated hook must hold the Initial fraction until a real measurement exists,
// then act on the first real one.
func TestHB2149SensorIgnoresPhantomFirstSample(t *testing.T) {
	r := newMemstoreRig(time.Hour)
	s, st := r.s, r.st
	sc := mustConf(hb2149Spec(), ProfileHB2149())
	r.attach(func() {
		perf, _ := r.sense()
		sc.SetPerf(perf)
		r.actuate(sc.Value())
	})
	hook := st.BeforeFlush

	// Drive the profiled write workload until the first flush completes.
	gen := workload.NewYCSB(2149, 1000, workload.YCSBPhase{WriteRatio: 1, RequestBytes: 1 * mb})
	s.Every(0, hb2149WriteEvery, func() bool {
		st.Write(gen.NextOp().Bytes)
		return st.BlockTimes().Count() == 0
	})
	s.Run()

	if st.BlockTimes().Count() == 0 {
		t.Fatal("workload never completed a flush")
	}
	// The first flush started with zero completed measurements; the hook ran
	// (BeforeFlush is installed) and must have held the Initial fraction.
	if got := st.FlushFraction(); got != 0.5 {
		t.Fatalf("flush fraction moved to %v before any measurement existed", got)
	}
	// With a real sample available the same hook does act.
	hook()
	if got := st.FlushFraction(); got == 0.5 {
		t.Fatal("hook did not act on the first real measurement")
	}
}

// Same contract for the HD4995 per-chunk sensor: the first chunk of the
// first du has no completed lock hold, and a phantom 0 s hold would claim
// the full 20 s goal as headroom and balloon the limit. The gate holds the
// Initial limit through the first chunk; from the second chunk on the
// controller acts on real holds.
func TestHD4995SensorIgnoresPhantomFirstSample(t *testing.T) {
	r := newDFSRig(4995, time.Hour)
	s, nn := r.s, r.nn
	ic := mustIndirect(hd4995Spec(), ProfileHD4995(), nil)
	r.attach(func() {
		ic.SetPerf(r.sense())
		r.actuate(float64(ic.Conf()))
	})
	hook := nn.BeforeChunk

	// Before any hold has completed the hook must be a no-op.
	hook()
	if got := nn.Limit(); got != 1 {
		t.Fatalf("limit moved to %d before any lock hold completed", got)
	}

	s.At(0, func() { nn.Du(func(time.Duration) {}) })
	s.RunUntil(40 * time.Second)

	// Chunk 1 ran gated (limit still 1 → one file); chunk 2 started with a
	// real hold sample and the controller raised the limit.
	if got := nn.HoldTimes().Count(); got == 0 {
		t.Fatal("du never completed a lock hold")
	}
	if got := nn.Limit(); got <= 1 {
		t.Fatalf("limit = %d after a real hold; want the controller to raise it", got)
	}
}
