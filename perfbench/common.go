package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"smartconf/internal/metrics"
)

// digest hashes simulated statistics in the order they are added.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{h: sha256.New()} }

func (d digest) add(label string, vals ...any) {
	fmt.Fprint(d.h, label)
	for _, v := range vals {
		fmt.Fprintf(d.h, " %v", v)
	}
	fmt.Fprintln(d.h)
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// tailSampler reads the plants' own latency sensors on a fixed virtual
// cadence. Each tick records the worst sensor's p99, so for a fleet it is the
// tail of the slowest member.
type tailSampler struct {
	every   time.Duration
	next    time.Duration
	sensors []*metrics.Latency
	samples []float64 // milliseconds
	tr      *tracer
	p       *probe
}

func newTailSampler(every time.Duration, sensors []*metrics.Latency, tr *tracer) *tailSampler {
	return &tailSampler{every: every, next: every, sensors: sensors, tr: tr, p: tr.probe(spanPercentile)}
}

// observe samples once when virtual time has crossed the next tick.
func (ts *tailSampler) observe(now time.Duration) {
	if now < ts.next {
		return
	}
	ts.next = (now/ts.every + 1) * ts.every
	var worst time.Duration
	for _, l := range ts.sensors {
		ts.tr.begin(ts.p)
		p99 := l.Percentile(99)
		ts.tr.end()
		if p99 > worst {
			worst = p99
		}
	}
	ts.samples = append(ts.samples, float64(worst)/float64(time.Millisecond))
}

func (ts *tailSampler) queries() int64 { return int64(len(ts.samples) * len(ts.sensors)) }
