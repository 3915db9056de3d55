package sim

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64
// core) used throughout the simulation so that experiments are reproducible
// from a single seed. It intentionally avoids math/rand so seeding behaviour
// is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := MakeRNG(seed)
	return &r
}

// MakeRNG returns, as a value, the generator NewRNG(seed) points to: for a
// record that holds its stream by value.
func MakeRNG(seed uint64) RNG {
	return RNG{state: seed*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns an approximately standard-normal value (Irwin–Hall
// sum of 12 uniforms); adequate for weight initialization.
func (r *RNG) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Range returns a uniform int in [lo, hi] inclusive.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Fork derives an independent child generator; streams with different tags
// do not collide.
func (r *RNG) Fork(tag uint64) *RNG {
	return NewRNG(r.Uint64() ^ (tag * 0xD6E8FEB86659FD93))
}
