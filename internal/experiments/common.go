// Package experiments contains one driver per evaluation figure of the
// paper. Each driver builds the configuration §4 describes, ages it with
// the stated workload, measures per-operation service demands by running
// the real allocator/bitmap/RAID/device models, and — where the paper plots
// latency versus achieved throughput — feeds those demands to the MVA model
// in package sim to regenerate the curves.
//
// Absolute numbers are simulation-scale, not the authors' testbed; the
// harness reports the same comparisons the paper makes (who wins, by what
// factor, where curves sit) and EXPERIMENTS.md records paper-vs-measured
// for each headline claim.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"waflfs/internal/benchfmt"
	"waflfs/internal/sim"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
)

// Config controls experiment scale and the client model.
type Config struct {
	// Scale multiplies the default working-set sizes. 1.0 reproduces the
	// figures at full (simulation) scale; tests use much smaller values.
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
	// Cores is the storage server's CPU parallelism (the paper's midrange
	// box has 20 Ivy Bridge cores).
	Cores int
	// Think is the per-client think time in the closed-loop model.
	Think time.Duration
	// Clients is the load sweep (client population per point).
	Clients []int
	// DeviceParallel models internal device concurrency (an enterprise SSD
	// services many commands at once): per-device demand is divided by it
	// before queueing. 1 (or 0) means a single-server device.
	DeviceParallel int
	// Workers bounds the work-pool fan-out: independent experiment arms and
	// MVA sweep points run across this many goroutines. 0 selects
	// min(GOMAXPROCS, 8), 1 forces serial execution; results are identical
	// for every value. It never reaches wafl.Tunables.Workers, so the modeled
	// lane count of every system stays at its default whatever the host.
	Workers int
	// Obs, when non-nil, is the template every System the experiments build
	// takes its observability options from: the sinks are shared (and safe
	// for concurrent use), and each arm overrides Name with its own (e.g.
	// "fig6.both"), so arms that run concurrently never collide in the
	// export registry, the pick and op-trace rings or the SLO and control
	// sets, whose totals can then be split by prefix (clean vs crash.*).
	Obs *wafl.ObsOptions
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:   1.0,
		Seed:    42,
		Cores:   20,
		Think:   5 * time.Millisecond,
		Clients: []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
	}
}

// tunablesNamed returns the default tunables with — when Config.Obs is
// set — a copy of the observability template under the given arm name. Arms run concurrently,
// so every call site must pass a distinct name: name collisions in a shared
// export registry are resolved by construction order, which parallel arms
// don't have.
func (c Config) tunablesNamed(name string) wafl.Tunables {
	tun := wafl.DefaultTunables()
	if c.Obs != nil {
		o := *c.Obs
		o.Name = name
		tun.Obs = &o
	}
	return tun
}

// scaled multiplies n by the scale factor with a floor of min.
func (c Config) scaled(n uint64, min uint64) uint64 {
	v := uint64(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// measurement is the demand sample of one measurement window.
type measurement struct {
	Counters wafl.Counters
	// DevBusy is each device's busy-time delta, flattened across groups
	// (data devices then the parity stand-in, per group).
	DevBusy []time.Duration
	// DevLabels names the DevBusy entries.
	DevLabels []string
}

func flattenBusy(s *wafl.System) ([]time.Duration, []string) {
	var out []time.Duration
	var labels []string
	for gi, times := range s.DeviceBusyTimes() {
		for di, t := range times {
			out = append(out, t)
			name := fmt.Sprintf("rg%d/d%d", gi, di)
			if di == len(times)-1 {
				name = fmt.Sprintf("rg%d/parity", gi)
			}
			labels = append(labels, name)
		}
	}
	return out, labels
}

// measure runs fn and returns the counter and device-busy deltas.
func measure(s *wafl.System, fn func()) measurement {
	c0 := s.Counters()
	b0, _ := flattenBusy(s)
	fn()
	c1 := s.Counters()
	b1, labels := flattenBusy(s)
	m := measurement{Counters: c1.Sub(c0), DevLabels: labels}
	m.DevBusy = make([]time.Duration, len(b1))
	for i := range b1 {
		m.DevBusy[i] = b1[i] - b0[i]
	}
	return m
}

// centers converts a measurement into MVA service centers: one CPU center
// (demand divided by core count) plus one center per device (demand divided
// by the device's internal parallelism).
func (m measurement) centers(cores, devParallel int) []sim.Center {
	ops := m.Counters.Ops
	if ops == 0 {
		panic("experiments: measurement window saw no operations")
	}
	if devParallel <= 0 {
		devParallel = 1
	}
	cs := []sim.Center{{
		Name:   "cpu",
		Demand: m.Counters.CPUTime / time.Duration(ops) / time.Duration(cores),
	}}
	for i, busy := range m.DevBusy {
		cs = append(cs, sim.Center{
			Name:   m.DevLabels[i],
			Demand: busy / time.Duration(ops) / time.Duration(devParallel),
		})
	}
	return cs
}

// CurvePoint is one load level of a latency-vs-throughput curve.
type CurvePoint struct {
	Clients    int
	Throughput float64 // ops/s
	LatencyMs  float64
}

// Curve is one labeled series of a figure.
type Curve struct {
	Label  string
	Points []CurvePoint
}

// Peak returns the highest-load point.
func (c Curve) Peak() CurvePoint {
	if len(c.Points) == 0 {
		return CurvePoint{}
	}
	return c.Points[len(c.Points)-1]
}

// curvePeaks is the rows of each curve's highest-load point.
func curvePeaks(fig string, curves []Curve) (ms benchfmt.Metrics) {
	for _, c := range curves {
		p := c.Peak()
		label := strings.ReplaceAll(c.Label, " ", "_")
		ms.Add(fmt.Sprintf("%s.curve.%s.peak_tput", fig, label), p.Throughput, "ops/s", 0.15)
		ms.Add(fmt.Sprintf("%s.curve.%s.peak_latency_ms", fig, label), p.LatencyMs, "ms", 0.20)
	}
	return ms
}

// curveFrom sweeps the client populations over the measured demands.
func curveFrom(label string, m measurement, cfg Config) Curve {
	centers := m.centers(cfg.Cores, cfg.DeviceParallel)
	cv := Curve{Label: label}
	for _, r := range sim.SweepParallel(centers, cfg.Think, cfg.Clients, cfg.Workers) {
		cv.Points = append(cv.Points, CurvePoint{
			Clients:    r.Clients,
			Throughput: r.Throughput,
			LatencyMs:  float64(r.Latency) / float64(time.Millisecond),
		})
	}
	return cv
}

// printCurves renders curves as aligned columns: one row per load level.
func printCurves(w io.Writer, title string, curves []Curve) {
	tb := stats.Table{Title: title, Columns: []string{"clients"}}
	for _, c := range curves {
		tb.Columns = append(tb.Columns, c.Label+" ops/s", c.Label+" lat(ms)")
	}
	if len(curves) == 0 || len(curves[0].Points) == 0 {
		fmt.Fprintln(w, tb.String())
		return
	}
	for i := range curves[0].Points {
		row := []interface{}{curves[0].Points[i].Clients}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.0f", c.Points[i].Throughput),
				fmt.Sprintf("%.3f", c.Points[i].LatencyMs))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(w, tb.String())
}

// gain reports (a-b)/b in percent.
func gain(a, b float64) float64 { return stats.PercentChange(b, a) }
