package loadgen

// Sketch is an HDR-style streaming quantile sketch for latencies, used by
// the load harness to record per-endpoint service times without keeping
// raw samples. Values (microseconds) below 64 land in exact linear
// buckets; above that each power-of-two octave is split into 32
// sub-buckets, bounding the relative quantile error at 1/32 (~3.1%)
// across the full int64 range. Add is a few integer operations and
// allocation-free after the first observation, so a fleet of hundreds of
// clients can record every request; per-worker sketches merge exactly
// (bucket-wise) at the end of a run.

import (
	"math"
	"math/bits"
	"time"
)

const (
	sketchLinearMax = 64 // values < 64 are exact
	sketchSubBits   = 5  // 32 sub-buckets per octave above that
	// sketchBuckets covers every nonnegative int64: 64 linear buckets plus
	// 32 sub-buckets for each of the 58 octaves [2^6, 2^63].
	sketchBuckets = sketchLinearMax + (63-sketchSubBits)*(1<<sketchSubBits)
)

// Sketch accumulates nonnegative int64 observations. The zero value is
// ready to use; negative observations are clamped to zero.
type Sketch struct {
	counts []int64 // nil until the first Add; always sketchBuckets long after
	count  int64
	min    int64
	max    int64
}

// sketchIndex maps a value to its bucket.
func sketchIndex(v int64) int {
	if v < sketchLinearMax {
		return int(v)
	}
	// v >= 64 has bit length >= 7; exp counts octaves above [64, 128).
	exp := bits.Len64(uint64(v)) - 7
	sub := int(uint64(v)>>(exp+1)) - (1 << sketchSubBits)
	return sketchLinearMax + exp<<sketchSubBits + sub
}

// sketchUpper returns the largest value bucket idx can hold.
func sketchUpper(idx int) int64 {
	if idx < sketchLinearMax {
		return int64(idx)
	}
	exp := (idx - sketchLinearMax) >> sketchSubBits
	sub := (idx - sketchLinearMax) & (1<<sketchSubBits - 1)
	hi := (int64(1<<sketchSubBits+sub+1) << (exp + 1)) - 1
	if hi < 0 { // the top octave saturates int64
		return math.MaxInt64
	}
	return hi
}

// Add records one observation.
func (s *Sketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if s.counts == nil {
		s.counts = make([]int64, sketchBuckets)
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.counts[sketchIndex(v)]++
}

// AddDuration records a duration in microseconds, the harness's unit.
func (s *Sketch) AddDuration(d time.Duration) { s.Add(d.Microseconds()) }

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.count }

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() int64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() int64 { return s.max }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1),
// accurate to one sub-bucket (exact below 64, within ~3.1% above).
func (s *Sketch) Quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := int64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	seen := int64(0)
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= target {
			u := sketchUpper(i)
			if u > s.max {
				u = s.max // never report past the true maximum
			}
			return u
		}
	}
	return s.max
}

// Merge folds o into s bucket-wise. Merging then querying is identical to
// having recorded every observation into one sketch.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.counts == nil {
		s.counts = make([]int64, sketchBuckets)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
}
