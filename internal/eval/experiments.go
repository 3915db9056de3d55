package eval

import "time"

// Result is what every experiment returns: the paper-style rendering and
// the headline numbers BENCH_sim.json records and cmd/bench-gate compares.
// Headline values are virtual-time-deterministic: same seed and scale,
// same bits.
type Result interface {
	Table() string
	Headline() map[string]float64
}

// Experiment is one entry of the evaluation: the id `pie-bench -exp`
// selects it by and BENCH_sim.json files it under, and its driver.
type Experiment struct {
	ID  string
	Run func(Options) Result
}

// Experiments returns every experiment in BENCH_sim.json order: the
// paper's own tables and figures (§7), then the ones beyond it.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", func(Options) Result { return Table2() }},
		{"fig6", func(o Options) Result { return Figure6(o) }},
		{"fig7", func(o Options) Result { return Figure7(o) }},
		{"fig8", func(o Options) Result { return Figure8(o) }},
		{"fig9", func(o Options) Result { return Figure9(o) }},
		{"fig10", func(o Options) Result { return Figure10(o) }},
		{"fig11", func(o Options) Result { return Figure11(o) }},
		{"table3", func(o Options) Result { return Table3(o) }},
		{"table4", func(o Options) Result { return Table4(o) }},
		{"table5", func(o Options) Result { return Table5(o) }},
		{"cluster", func(o Options) Result { return ClusterSweep(o) }},
		{"offload", func(o Options) Result { return OffloadSweep(o) }},
		{"coldstart", func(o Options) Result { return ColdstartSweep(o) }},
		{"faults", func(o Options) Result { return FaultsSweep(o) }},
		{"slo", func(o Options) Result { return SLOSweep(o) }},
		{"pd", func(o Options) Result { return PDSweep(o) }},
		{"scale", func(o Options) Result { return ScaleSweep(o) }},
		{"fleet", func(o Options) Result { return FleetSweep(o) }},
	}
}

// ms and us are a duration as a headline number.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
