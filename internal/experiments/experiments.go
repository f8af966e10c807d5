// Package experiments regenerates every table and figure in the paper's
// evaluation (§7). Each experiment is a named runner producing a Report of
// figures (series data) and tables; cmd/experiments renders them as CSV and
// ASCII plots, and the repository's benchmarks invoke them in Quick mode.
//
// All sizes are the paper's, divided by Options.Scale: scaling every size
// by the same factor preserves the fit/overflow crossovers that drive the
// results, while the unscaled Table 1 timing model keeps latencies
// comparable to the paper's axes (see docs/ARCHITECTURE.md, "Departures
// from the paper").
//
// Every experiment declares its simulation points as a grid (see sweep)
// which a bounded worker pool (internal/runner/pool) executes with
// Options.Parallel workers; results and progress are delivered in
// declaration order, so reports are identical for every parallelism level.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/flashsim"
	"repro/internal/runner/pool"
	"repro/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Scale divides every size (1:Scale). 0 defaults to 128.
	Scale int
	// Quick trims sweeps for benchmark use.
	Quick bool
	// Parallel bounds the simulation worker pool; <= 0 selects
	// runtime.NumCPU() and 1 forces sequential execution. Reports are
	// identical for every setting.
	Parallel int
	// Progress, if non-nil, receives one line per completed simulation.
	Progress io.Writer
}

func (o Options) scale() int {
	if o.Scale <= 0 {
		return 128
	}
	return o.Scale
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Report is one experiment's output.
type Report struct {
	Name        string
	Description string
	Figures     []*stats.Figure
	Tables      []string
}

// Runner produces a report.
type Runner func(Options) (*Report, error)

// registry of all experiments by name.
var registry = map[string]Runner{
	"table1": Table1,
	"fig1":   Fig1,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
}

// Names returns all experiment names in order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the runner for name.
func Lookup(name string) (Runner, bool) {
	r, ok := registry[name]
	return r, ok
}

// gb converts paper gigabytes to scaled blocks.
func gb(gigabytes float64, scale int) int64 {
	return int64(gigabytes * float64(flashsim.BlocksPerGB) / float64(scale))
}

// baseline returns the paper's baseline config at the options' scale.
func baseline(o Options) flashsim.Config {
	return flashsim.ScaledConfig(o.scale())
}

// sharedServer builds the figure's shared file-server model, the analogue
// of the paper's single 1.4 TB Impressions model, sized to cover the
// largest working set in the sweep. A FileSet is read-only after
// generation, so every point of a grid can sample the same model
// concurrently.
func sharedServer(o Options, maxWSGB float64) (*flashsim.FileSet, error) {
	sizeGB := 1400.0
	if maxWSGB*2.2 > sizeGB {
		sizeGB = maxWSGB * 2.2
	}
	return flashsim.GenerateFileSet(gb(sizeGB, o.scale()), 42)
}

// sweep is one experiment's grid of simulation points: each declared point
// carries a label and a collector closure that consumes its result.
// Declaration builds the grid; run executes it on the worker pool and
// applies the collectors in declaration order, so figures, tables and
// progress output are byte-identical to a sequential loop no matter how
// the pool scheduled the points.
type sweep struct {
	o      Options
	name   string
	points []sweepPoint
}

// sweepPoint is one declared simulation: its progress/error label, its
// configuration and the collector that consumes its result.
type sweepPoint struct {
	label   string
	cfg     flashsim.Config
	collect func(*flashsim.Result)
}

// newSweep starts an empty grid declaration for one experiment.
func newSweep(o Options, name string) *sweep {
	return &sweep{o: o, name: name}
}

// add declares one simulation point. collect, which may be nil, receives
// the point's result during run, after all earlier points' collectors.
func (s *sweep) add(label string, cfg flashsim.Config, collect func(*flashsim.Result)) {
	s.points = append(s.points, sweepPoint{label, cfg, collect})
}

// run executes the declared points and applies their collectors in order.
// On failure the lowest-index point's error is returned, naming the grid,
// the point index and its label.
func (s *sweep) run() error {
	results, err := pool.Collect(len(s.points), s.o.Parallel,
		func(i int) (*flashsim.Result, error) {
			p := &s.points[i]
			res, err := flashsim.Run(p.cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: grid %s point %d (%s): %w", s.name, i, p.label, err)
			}
			return res, nil
		},
		func(i int, res *flashsim.Result) {
			s.o.logf("  %-40s read %8.1f us  write %8.1f us", s.points[i].label,
				res.ReadLatencyMicros, res.WriteLatencyMicros)
		})
	if err != nil {
		return err
	}
	for i, res := range results {
		if c := s.points[i].collect; c != nil {
			c(res)
		}
	}
	return nil
}

// wssSweepGB returns the working-set sweep points (in paper GB).
func wssSweepGB(o Options) []float64 {
	if o.Quick {
		return []float64{5, 40, 60, 80, 160, 320}
	}
	return []float64{5, 20, 40, 60, 80, 100, 128, 160, 240, 320, 480, 640}
}
