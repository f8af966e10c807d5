package experiments

import (
	"fmt"
	"strings"

	"repro/flashsim"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/validate"
)

func init() {
	registry["ext-ftl"] = ExtFTL
	registry["validate"] = Validate
}

// ExtFTL compares the paper's fixed-average-latency flash device with the
// FTL-backed device (extension, paper §8): same workload, same cache
// stack, but the FTL version pays for garbage collection and die
// contention, and reports the run's own NAND-level write amplification.
func ExtFTL(o Options) (*Report, error) {
	fs, err := sharedServer(o, 60)
	if err != nil {
		return nil, err
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-22s %12s %12s %12s %8s\n",
		"device", "read (us)", "write (us)", "read p99", "WA")
	s := newSweep(o, "ext-ftl")
	for _, wf := range []float64{0.3, 0.7} {
		for _, ftlBacked := range []bool{false, true} {
			cfg := extFTLConfig(o, fs, wf, ftlBacked)
			name := fmt.Sprintf("fixed (%.0f%% wr)", wf*100)
			if ftlBacked {
				name = fmt.Sprintf("ftl-backed (%.0f%% wr)", wf*100)
			}
			s.add("ext-ftl "+name, cfg, func(res *flashsim.Result) {
				wa := "-"
				if ftlBacked {
					wa = fmt.Sprintf("%.2f", res.FTLWriteAmplification)
				}
				fmt.Fprintf(&table, "%-22s %12.1f %12.1f %12.1f %8s\n",
					name, res.ReadLatencyMicros, res.WriteLatencyMicros, res.ReadP99Micros, wa)
			})
		}
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return &Report{
		Name:        "ext-ftl",
		Description: "Fixed-latency vs FTL-backed flash cache device (extension, paper §8)",
		Tables:      []string{table.String()},
	}, nil
}

// extFTLConfig is one ext-ftl point: the baseline at write fraction wf
// over the shared file set, on a fixed or an FTL-backed flash device.
func extFTLConfig(o Options, fs *flashsim.FileSet, wf float64, ftlBacked bool) flashsim.Config {
	cfg := baseline(o)
	cfg.FTLBackedFlash = ftlBacked
	cfg.Workload.WriteFraction = wf
	cfg.Workload.FileSet = fs
	// A somewhat smaller flash keeps the FTL geometry busy.
	cfg.FlashBlocks = int(gb(64, o.scale()))
	return cfg
}

// Validate runs the simulator self-validation that stands in for the
// paper's hardware validation (see docs/ARCHITECTURE.md, "Departures from
// the paper"): the full event-driven stack against an independent
// arithmetic model on the same single-threaded flash-only trace (the
// paper's §6.1 configuration). The two must agree exactly.
func Validate(o Options) (*Report, error) {
	r := rng.New(13)
	span := 16384
	n := 20000
	if o.Quick {
		span = 4096
		n = 5000
	}
	ops := make([]trace.Op, 0, n)
	for i := 0; i < n; i++ {
		kind := trace.Read
		if r.Bool(0.3) {
			kind = trace.Write
		}
		blk := r.Intn(span)
		if r.Bool(0.6) {
			blk = r.Intn(span / 8)
		}
		ops = append(ops, trace.Op{Kind: kind, File: 1, Block: uint32(blk), Count: uint32(1 + r.Intn(3))})
	}
	rep, err := validate.CrossCheck(span/3, ops, core.DefaultTiming(), 1)
	if err != nil {
		return nil, err
	}
	status := "PASS"
	if rep.MaxRelError > 1e-4 {
		status = "FAIL"
	}
	table := fmt.Sprintf("%s\n\n%s (tolerance 0.01%%; the paper's hardware validation allowed 10%%)\n",
		rep.String(), status)
	out := &Report{
		Name:        "validate",
		Description: "Simulator self-validation: event-driven stack vs arithmetic reference (paper §6.1 substitute)",
		Tables:      []string{table},
	}
	if status == "FAIL" {
		return out, fmt.Errorf("experiments: validation failed: %s", rep)
	}
	return out, nil
}
