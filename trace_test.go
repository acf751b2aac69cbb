package smartconf

import (
	"testing"

	"smartconf/internal/declog"
)

// Decisions reach observers through the decision log: every controller
// update is one declog.Record carrying what was sensed, the setpoint error,
// the pole and the applied value.

func TestTraceEventsOnDirectConf(t *testing.T) {
	log := declog.New(16)
	sc, err := New(Spec{Name: "c", Metric: "m", Goal: 100, Max: 1e6},
		linearProfile(1, 0, 10, 20, 30), WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	sc.SetPerf(40)
	sc.Value()
	sc.Value() // no fresh measurement: no decision, no record
	sc.SetPerf(60)
	sc.Value()
	recs := log.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Period != 1 || recs[1].Period != 2 {
		t.Errorf("periods: %+v", recs)
	}
	if name := log.Sources()[recs[0].Source]; name != "c" {
		t.Errorf("source = %q, want c", name)
	}
	if r := recs[0]; r.Sensed != 40 || r.Sensed+r.Err != 100 {
		t.Errorf("record[0] = %+v, want sensed 40 against target 100", r)
	}
	if recs[0].Applied == 0 {
		t.Error("record missing the chosen value")
	}
}

func TestTraceEventsOnIndirectConf(t *testing.T) {
	log := declog.New(16)
	profile := NewProfile()
	for _, s := range []float64{10, 20, 30} {
		profile.Add(s, s, s)
	}
	ic, err := NewIndirect(Spec{Name: "q", Metric: "m", Goal: 100, Max: 1e6},
		profile, nil, WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	ic.SetPerf(40, 7)
	if v := ic.Value(); v != 67 {
		t.Errorf("value = %v, want 67", v)
	}
	recs := log.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	// Deadbeat with α=1 from the deputy's current value: 7 + (100-40) = 67.
	if r := recs[0]; r.Sensed != 40 || r.Applied != 67 || r.Pole != 0 {
		t.Errorf("record = %+v, want sensed 40, applied 67, pole 0", r)
	}
}

func TestTraceReportsSaturation(t *testing.T) {
	log := declog.New(16)
	sc, err := New(Spec{Name: "c", Metric: "m", Goal: 1e9, Max: 5},
		linearProfile(1, 0, 1, 3, 5), WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	sc.SetPerf(1)
	sc.Value()
	recs := log.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if r := recs[0]; r.Clamp != declog.ClampMax || r.Applied != 5 || r.Raw <= 5 {
		t.Errorf("saturated decision not logged as a max clamp: %+v", r)
	}
}
