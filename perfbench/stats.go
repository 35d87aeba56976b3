package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// samples is a growable set of durations, safe for one writer and a
// reader that waits for the writer to finish.
type samples struct {
	mu sync.Mutex
	v  []float64 // milliseconds, in completion order
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// ms returns a sorted copy of the samples in milliseconds.
func (s *samples) ms() []float64 {
	out := s.inOrder()
	sort.Float64s(out)
	return out
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// inOrder returns a copy of the samples in the order they completed.
func (s *samples) inOrder() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantileBlock is the number of consecutive samples in one block of
// blockQuantile: enough that a block's p99 has ten samples beyond it.
const quantileBlock = 1000

// blockQuantile is a run's q-quantile, robust to a burst of interference
// from other processes: the samples, in completion order, are cut into
// blocks of quantileBlock, and the result is the median of the blocks'
// q-quantiles. With fewer than three blocks it is the plain quantile.
func blockQuantile(inOrder []float64, q float64) float64 {
	n := len(inOrder) / quantileBlock
	if n < 3 {
		return quantile(sorted(inOrder), q)
	}
	per := make([]float64, n)
	for i := range per {
		per[i] = quantile(sorted(inOrder[i*quantileBlock:(i+1)*quantileBlock]), q)
	}
	return median(per)
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; NaN when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of values, sorting a copy.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// settle collects the garbage that set-up and scoring left behind, so
// the measured phase does not pay for it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sinceSeconds is the wall time since t in seconds.
func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }
