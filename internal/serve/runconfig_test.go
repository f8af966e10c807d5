package serve

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/flashsim"
)

// cliScale is cmd/flashsim's default size scale, the one its flags are
// registered over.
const cliScale = 128

// flagConfig builds a steady-state run's configuration the way
// cmd/flashsim does: flags parsed over DefaultRunConfig(cliScale), then
// RunConfig.Config, then flashsim.Resolve.
func flagConfig(t *testing.T, argv []string) (flashsim.Config, error) {
	t.Helper()
	rc := flashsim.DefaultRunConfig(cliScale)
	fs := flag.NewFlagSet("flashsim", flag.ContinueOnError)
	rc.RegisterFlags(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("%v: %v", argv, err)
	}
	cfg, err := rc.Config()
	if err != nil {
		return cfg, err
	}
	return flashsim.Resolve(cfg, nil)
}

// TestCLIEqualsWire checks that the same run asked for on the command
// line and over the wire builds the same simulator configuration.
func TestCLIEqualsWire(t *testing.T) {
	cases := []struct {
		name string
		argv string
		body string
	}{
		{"defaults", "-scale 4096", `{}`},
		{"cli default scale", "", `{"config": {"scale": 128}}`},
		{"arch and policies",
			"-arch unified -ram-policy s -flash-policy p5 -replacement 2q -ftl -scale 2048",
			`{"config": {"arch": "unified", "ram_policy": "s", "flash_policy": "p5", "replacement": "2q", "ftl": true, "scale": 2048}}`},
		{"sizes and hosts",
			"-ram 4 -flash 32 -hosts 4 -threads 2 -shared-wss -seed 9 -protocol -scale 1024",
			`{"config": {"ram_gb": 4, "flash_gb": 32, "hosts": 4, "threads": 2, "shared_wss": true, "seed": 9, "protocol": true, "scale": 1024}}`},
		{"filer replicas with quorum",
			"-hosts 2 -shards 2 -filer-partitions 2 -filer-replicas 3 -filer-quorum 3 -filer-slow-replica 8 -scale 4096",
			`{"config": {"hosts": 2, "shards": 2, "filer": {"partitions": 2, "replicas": 3, "write_quorum": 3, "slow_replica_factor": 8}}}`},
		{"object tier with latencies",
			"-object-tier -object-read 20000 -object-write 15000 -object-write-through=false -scale 4096",
			`{"config": {"filer": {"object_tier": true, "object_read_us": 20000, "object_write_us": 15000, "write_through": false}}}`},
		{"recovered",
			"-hosts 4 -persistent -recovered -cold -shards 3 -scale 4096",
			`{"config": {"hosts": 4, "persistent": true, "recovered": true, "cold": true, "shards": 3}}`},
		{"trace sample and wall profile",
			"-hosts 2 -trace-sample 0.05 -wall-profile -scale 4096",
			`{"config": {"hosts": 2, "trace_sample": 0.05, "wall_profile": true}}`},
		{"explicit zero prefetch",
			"-prefetch 0 -ram 0 -scale 4096",
			`{"config": {"prefetch": 0, "ram_gb": 0}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := flagConfig(t, strings.Fields(tc.argv))
			if err != nil {
				t.Fatalf("flags %q: %v", tc.argv, err)
			}
			spec, err := parseRunRequest([]byte(tc.body))
			if err != nil {
				t.Fatalf("body %s: %v", tc.body, err)
			}
			if !reflect.DeepEqual(cli, spec.Config) {
				t.Errorf("flags %q build\n%+v\nbody %s builds\n%+v", tc.argv, cli, tc.body, spec.Config)
			}
		})
	}
}

// TestCLIObjectSettingsNeedTier checks that the flag path folds the filer
// flags through the same filer-block validation as the wire: object-tier
// settings without the tier are rejected, not silently ignored.
func TestCLIObjectSettingsNeedTier(t *testing.T) {
	for _, argv := range []string{"-object-read 5", "-object-write 5", "-object-read-promote=false"} {
		_, err := flagConfig(t, strings.Fields(argv))
		if err == nil || !strings.Contains(err.Error(), "object-tier settings without object_tier") {
			t.Errorf("%s: err = %v, want object-tier settings without object_tier", argv, err)
		}
	}
}
