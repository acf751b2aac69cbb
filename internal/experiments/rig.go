package experiments

import (
	"fmt"
	"time"

	"smartconf"
	"smartconf/internal/core"
	"smartconf/internal/sim"
)

// Each paper substrate is wired once, as a rig: the simulation and plant,
// the sensor and actuator of its knob (carrying the Table 7 markers), the
// hook site a controller attaches to, its load driver, and its probe. The
// profiling, figure, ablation and chaos harnesses are layers over a rig:
// profiling pins the knob and records, figures run a policy and score a
// Result, chaos wraps sense/actuate in a chaos.Loop and fills a
// proptest.Report. Rigs are memstoreRig (HB2149), rpcRig (HB3813, HB6728,
// SLA, distributed, robustness, Figures 6-8, AIMD), dfsRig (HD4995), llmRig
// (LLMKV), mapredRig (MR2820) and memtableRig (CA6059).

// rig is what a substrate rig offers a controller, whichever harness drives
// it: the sensor, the actuator, and the hook site a control tick attaches
// to.
type rig interface {
	sense() (perf, deputy float64)
	actuate(v float64)
	attach(tick func())
}

// control attaches step at the rig's hook site: each tick senses, steps the
// controller, and actuates its decision.
func control(r rig, step stepFunc) {
	r.attach(func() { r.actuate(step(r.sense())) })
}

// stepFunc is one controller's setPerf → getConf pair (chaos.LoopConfig's
// Step).
type stepFunc = func(perf, deputy float64) float64

func indirectStep(ic *smartconf.IndirectConf) stepFunc {
	return func(perf, deputy float64) float64 {
		ic.SetPerf(perf, deputy)
		return ic.Value()
	}
}

// roundedStep is indirectStep applying the setting rounded to an integer,
// as the figure harnesses' integral knobs do.
func roundedStep(ic *smartconf.IndirectConf) stepFunc {
	return func(perf, deputy float64) float64 {
		ic.SetPerf(perf, deputy)
		return float64(ic.Conf())
	}
}

func directStep(sc *smartconf.Conf) stepFunc {
	return func(perf, _ float64) float64 {
		sc.SetPerf(perf)
		return sc.Value()
	}
}

// mustIndirect synthesizes an indirect configuration from an internal
// profile; the scenario specs are fixed, so a synthesis error is a bug.
func mustIndirect(spec smartconf.Spec, p core.Profile, t smartconf.Transducer, opts ...smartconf.Option) *smartconf.IndirectConf {
	ic, err := smartconf.NewIndirect(spec, publicProfile(p), t, opts...)
	if err != nil {
		panic(fmt.Sprintf("%s synthesis: %v", spec.Name, err))
	}
	return ic
}

// mustConf is mustIndirect for a direct configuration.
func mustConf(spec smartconf.Spec, p core.Profile, opts ...smartconf.Option) *smartconf.Conf {
	sc, err := smartconf.New(spec, publicProfile(p), opts...)
	if err != nil {
		panic(fmt.Sprintf("%s synthesis: %v", spec.Name, err))
	}
	return sc
}

// probe samples a rig's time series once per second from t = 1 s. Every
// rig tracks the constrained metric first and the knob second, which is
// what the chaos report reads; a figure tracks its extra series on the
// same probe before the run starts.
type probe struct {
	series []*Series
	reads  []func() float64
	fresh  []func() bool // nil, or reports whether this tick has a new sample
}

// track adds a series sampled at every tick.
func (p *probe) track(name, unit string, read func() float64) *Series {
	return p.trackNew(name, unit, nil, read)
}

// trackNew adds a series sampled only at ticks where isNew reports a
// measurement not yet seen (see fresh): one point per flush or lock hold.
func (p *probe) trackNew(name, unit string, isNew func() bool, read func() float64) *Series {
	s := &Series{Name: name, Unit: unit}
	p.series = append(p.series, s)
	p.reads = append(p.reads, read)
	p.fresh = append(p.fresh, isNew)
	return s
}

// fresh reports true once per growth of count: whether a measurement
// completed since the last time it said so.
func fresh(count func() int64) func() bool {
	seen := int64(0)
	return func() bool {
		n := count()
		if n <= seen {
			return false
		}
		seen = n
		return true
	}
}

// start samples every tracked series each second while more holds.
func (p *probe) start(s *sim.Simulation, more func() bool) {
	s.Every(time.Second, time.Second, func() bool {
		for i, ser := range p.series {
			if p.fresh[i] == nil || p.fresh[i]() {
				ser.Points = append(ser.Points, Point{s.Now(), p.reads[i]()})
			}
		}
		return more()
	})
}

func (p *probe) metric() Series { return *p.series[0] }
func (p *probe) knob() Series   { return *p.series[1] }

// values returns the sampled series in tracking order.
func (p *probe) values() []Series {
	out := make([]Series, len(p.series))
	for i, s := range p.series {
		out[i] = *s
	}
	return out
}
