package flashsim

import (
	"math"
	"strings"
	"testing"
)

// The workload fractions were previously unchecked: values outside [0,1]
// (and NaN, which fails every comparison) sailed through Validate and
// produced silently meaningless simulations.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // "" means valid
	}{
		{"baseline", func(c *Config) {}, ""},
		{"write frac 0", func(c *Config) { c.Workload.WriteFraction = 0 }, ""},
		{"write frac 1", func(c *Config) { c.Workload.WriteFraction = 1 }, ""},
		{"write frac negative", func(c *Config) { c.Workload.WriteFraction = -0.1 }, "write fraction"},
		{"write frac above 1", func(c *Config) { c.Workload.WriteFraction = 1.01 }, "write fraction"},
		{"write frac NaN", func(c *Config) { c.Workload.WriteFraction = math.NaN() }, "write fraction"},
		{"ws frac 0", func(c *Config) { c.Workload.WorkingSetFraction = 0 }, ""},
		{"ws frac negative", func(c *Config) { c.Workload.WorkingSetFraction = -1 }, "working set fraction"},
		{"ws frac above 1", func(c *Config) { c.Workload.WorkingSetFraction = 2 }, "working set fraction"},
		{"ws frac NaN", func(c *Config) { c.Workload.WorkingSetFraction = math.NaN() }, "working set fraction"},
		{"no hosts", func(c *Config) { c.Hosts = 0 }, "at least one host"},
		{"no threads", func(c *Config) { c.ThreadsPerHost = 0 }, "thread"},
		{"negative cache", func(c *Config) { c.RAMBlocks = -1 }, "negative cache size"},
		{"empty working set", func(c *Config) { c.Workload.WorkingSetBlocks = 0 }, "working set size"},
		{"negative trace volume", func(c *Config) { c.Workload.TotalBlocks = -1 }, "trace volume"},
		{"partitions 0 (auto)", func(c *Config) { c.FilerPartitions = 0 }, ""},
		{"partitions 4", func(c *Config) { c.FilerPartitions = 4 }, ""},
		{"negative partitions", func(c *Config) { c.FilerPartitions = -1 }, "partition count"},
		{"object tier defaults", func(c *Config) { c.ObjectTier = true }, ""},
		{"negative object read", func(c *Config) {
			c.ObjectTier = true
			c.Timing.ObjectRead = -1
		}, "negative"},
		{"object read below slow read", func(c *Config) {
			c.ObjectTier = true
			c.Timing.ObjectRead = c.Timing.FilerSlowRead / 2
		}, "below"},
		{"nan prefetch rate", func(c *Config) { c.Timing.FilerFastReadRate = math.NaN() }, "rate"},
		// A NaN mean request size never ends rng.Poisson's draw loop.
		{"mean io 0 (default)", func(c *Config) { c.Workload.MeanIOBlocks = 0 }, ""},
		{"mean io NaN", func(c *Config) { c.Workload.MeanIOBlocks = math.NaN() }, "mean I/O size"},
		{"mean io +Inf", func(c *Config) { c.Workload.MeanIOBlocks = math.Inf(1) }, "mean I/O size"},
		{"mean io negative", func(c *Config) { c.Workload.MeanIOBlocks = -1 }, "mean I/O size"},
		{"recovery dirty 0 (default)", func(c *Config) { c.RecoveryDirtyFraction = 0 }, ""},
		{"recovery dirty 1", func(c *Config) { c.RecoveryDirtyFraction = 1 }, ""},
		{"recovery dirty negative", func(c *Config) { c.RecoveryDirtyFraction = -0.5 }, "recovery dirty fraction"},
		{"recovery dirty above 1", func(c *Config) { c.RecoveryDirtyFraction = 2 }, "recovery dirty fraction"},
		{"recovery dirty NaN", func(c *Config) { c.RecoveryDirtyFraction = math.NaN() }, "recovery dirty fraction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// Run and RunScenario both reject the bad values up front; a NaN mean
// request size used to hang Run instead.
func TestRunRejectsBadFractions(t *testing.T) {
	sc, _ := BuiltinScenario("warmup")
	for _, mut := range []func(*Config){
		func(c *Config) { c.Workload.WriteFraction = math.NaN() },
		func(c *Config) { c.Workload.MeanIOBlocks = math.NaN() },
	} {
		cfg := ScaledConfig(4096)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted %+v", cfg.Workload)
		}
		if _, err := RunScenario(cfg, sc); err == nil {
			t.Errorf("RunScenario accepted %+v", cfg.Workload)
		}
	}
}
