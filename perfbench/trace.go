package main

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// The traced run times every public call the benchmark makes into a layer. A
// span is opened before the call and closed after it; spans nest (a fleet
// dispatch contains the member offers the fleet calls back into), and a
// span's self time is its duration minus the spans closed inside it. Spans
// aggregate in memory into the benchmark's own fixed histograms, so a
// change to the program's sensors cannot change how the benchmark measures.

// subBuckets is the number of linear sub-buckets per power of two: bucket
// width is at most 1/16 of its lower edge, so quantiles carry ≤ 6.25 %
// bucketing error before in-bucket interpolation.
const subBuckets = 16

// hist is a fixed log-linear histogram of nanosecond durations.
type hist struct {
	counts [64 * subBuckets]uint64
	n      uint64
}

func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	u := uint64(ns)
	exp := bits.Len64(u) - 1 // ≥ 4
	sub := int(u>>(exp-4)) & (subBuckets - 1)
	return (exp-3)*subBuckets + sub
}

// bucketRange returns the [lo, hi) nanosecond range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	exp := i/subBuckets + 3
	sub := i % subBuckets
	width := math.Ldexp(1, exp-4)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, interpolated
// linearly by rank inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// probe aggregates every span of one call site.
type probe struct {
	hist    hist
	totalNs int64
	selfNs  int64
}

type frame struct {
	p       *probe
	start   time.Time
	childNs int64
}

// tracer records spans. A nil *tracer records nothing, so untraced runs pay
// one nil check per call site.
type tracer struct {
	probes map[string]*probe
	stack  []frame
}

func newTracer() *tracer {
	return &tracer{probes: map[string]*probe{}, stack: make([]frame, 0, 8)}
}

// probe returns the call site's aggregate, registering it on first use.
// Workloads look their probes up once at set-up, never per call.
func (t *tracer) probe(name string) *probe {
	if t == nil {
		return nil
	}
	p, ok := t.probes[name]
	if !ok {
		p = &probe{}
		t.probes[name] = p
	}
	return p
}

func (t *tracer) begin(p *probe) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{p: p, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	d := int64(time.Since(f.start))
	f.p.hist.add(d)
	f.p.totalNs += d
	f.p.selfNs += d - f.childNs
	if top > 0 {
		t.stack[top-1].childNs += d
	}
}

// layerSelfNs sums the self time of every probe of one layer; probes are
// named "<layer>.<call>".
func (t *tracer) layerSelfNs(layer string) int64 {
	var ns int64
	for name, p := range t.probes {
		if strings.HasPrefix(name, layer+".") {
			ns += p.selfNs
		}
	}
	return ns
}

// names returns the probe names in sorted order, for the span table.
func (t *tracer) names() []string {
	out := make([]string, 0, len(t.probes))
	for name := range t.probes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
