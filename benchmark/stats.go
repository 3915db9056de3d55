package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// sample is a set of timings in milliseconds (or any one unit).
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// sample by the nearest-rank rule: the value at rank ceil(p/100 * n).
func nearestRank(sortedAsc sample, p float64) float64 {
	n := len(sortedAsc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sortedAsc[rank-1]
}

// beyond is how many samples lie strictly past the nearest-rank position
// of percentile p — the support behind a tail percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// minBeyond is the support a tail percentile needs before it is reported:
// with fewer samples past it, one slow session moves the number.
const minBeyond = 10

// tail returns percentile p, refusing it when fewer than minBeyond samples
// lie beyond the rank (the run is then too small for the percentile it
// names and must fail, not print a noisy number).
func tail(sortedAsc sample, p float64, name string) (float64, error) {
	if b := beyond(len(sortedAsc), p); b < minBeyond {
		return 0, fmt.Errorf("%s: p%g of %d samples has %d beyond it, need %d", name, p, len(sortedAsc), b, minBeyond)
	}
	return nearestRank(sortedAsc, p), nil
}

func median(s sample) float64 { return nearestRank(s.sorted(), 50) }

func mean(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladderStep is one fixed arrival rate of an open-loop ladder.
type ladderStep struct {
	Rate        float64 // offered sessions per virtual second
	Sent        int
	InSLO       int     // sessions sent that met the SLO (failed and short ones do not)
	FirstQTTFT  float64 // median TTFT of the first quarter of arrivals, ms
	LastQTTFT   float64 // median TTFT of the last quarter, ms
	Attain      float64 // InSLO / Sent
	Backlogging bool    // LastQTTFT > backlogGrowth * FirstQTTFT
}

const (
	ladderAttain  = 0.95 // share of sent sessions that must meet the SLO
	backlogGrowth = 1.5  // last-quarter vs first-quarter median TTFT
)

func (s *ladderStep) finish() {
	s.Attain = ratio(float64(s.InSLO), float64(s.Sent))
	s.Backlogging = s.LastQTTFT > backlogGrowth*s.FirstQTTFT
}

func (s ladderStep) ok() bool { return s.Attain >= ladderAttain && !s.Backlogging }

// knee returns the highest rate of an ascending ladder at which the step
// and every step below it hold the SLO without a growing backlog; 0 when
// even the lowest rate fails.
func knee(steps []ladderStep) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.ok() {
			break
		}
		best = s.Rate
	}
	return best
}

// digest folds a sequence of strings into one FNV-1a number, printed so a
// parent and a change can be compared for identical outputs.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0}) // keep "ab","c" and "a","bc" apart
}

// value reports the digest as a float that JSON carries exactly (the low
// 48 bits).
func (d digest) value() float64 { return float64(d.h.Sum64() & (1<<48 - 1)) }
