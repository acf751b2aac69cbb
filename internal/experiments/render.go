package experiments

import (
	"strings"
	"time"
)

// sparkline renders a series as a fixed-width unicode bar strip — enough to
// see a trajectory's shape (ramp, plateau, collapse) directly in terminal
// output without a plotting tool.
func sparkline(s Series, width int, until time.Duration) string {
	if width <= 0 || len(s.Points) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	// Resample the series at `width` instants.
	vals := make([]float64, width)
	min, max := s.Points[0].V, s.Points[0].V
	for i := 0; i < width; i++ {
		t := time.Duration(float64(until) * float64(i+1) / float64(width))
		v := s.At(t)
		vals[i] = v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	span := max - min
	for _, v := range vals {
		idx := 0
		if span > 0 {
			idx = int((v - min) / span * float64(len(ramp)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		b.WriteRune(ramp[idx])
	}
	return b.String()
}

// endOf returns the time of a series' last point (0 when empty).
func endOf(s Series) time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].T
}

// okMark renders a constraint verdict the way every table does: "ok", or
// the paper's red-cross "X".
func okMark(met bool) string {
	if met {
		return "ok"
	}
	return "X"
}
