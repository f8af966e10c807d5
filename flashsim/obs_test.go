package flashsim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Observability locks: the span set is invariant across the
// (shards x partitions) matrix, tracing never moves a golden checksum,
// the Chrome export validates, and the JSON reports round-trip.

// tracedFleetConfig is the 4-host fleet the trace locks run, with
// sampling on and the object tier exercising the filer paths.
func tracedFleetConfig() Config {
	cfg := fleetConfig(4)
	cfg.ObjectTier = true
	cfg.TraceSample = 0.05
	return cfg
}

// TestTraceSpanInvariance locks the partition-independence contract
// from internal/obs: the sampling decision and every span field are
// functions of host-local simulated state, so one configuration's span
// set must be bit-identical at every shard and filer-partition count.
func TestTraceSpanInvariance(t *testing.T) {
	base := tracedFleetConfig()
	var ref []TraceSpan
	for _, shards := range []int{1, 2, 4} {
		for _, parts := range []int{1, 2} {
			cfg := base
			cfg.Shards = shards
			cfg.FilerPartitions = parts
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run(shards=%d, partitions=%d): %v", shards, parts, err)
			}
			if len(res.Trace) == 0 {
				t.Fatalf("shards=%d partitions=%d sampled no spans", shards, parts)
			}
			if ref == nil {
				ref = res.Trace
				kinds := map[TraceKind]int{}
				for _, s := range ref {
					kinds[s.Kind]++
				}
				for _, k := range []TraceKind{obs.KindQueue, obs.KindRead, obs.KindRAMHit,
					obs.KindMiss, obs.KindNetUp, obs.KindFiler, obs.KindNetDown} {
					if kinds[k] == 0 {
						t.Errorf("no %s spans in %d sampled (kinds: %v)", k, len(ref), kinds)
					}
				}
				continue
			}
			if !reflect.DeepEqual(ref, res.Trace) {
				t.Errorf("shards=%d partitions=%d: span set diverged (%d vs %d spans)",
					shards, parts, len(ref), len(res.Trace))
			}
		}
	}
}

// TestTracingDoesNotPerturbGoldens reruns pre-refactor golden configs
// with heavy sampling on: recording spans must not move a single
// checksum, because tracing schedules no events and draws no RNG.
func TestTracingDoesNotPerturbGoldens(t *testing.T) {
	traced := map[string]bool{"baseline-naive": true, "multihost-protocol": true, "unified-periodic-trickle": true}
	for _, tc := range goldenRuns {
		if !traced[tc.name] {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.TraceSample = 0.2
			if got := resultChecksum(t, cfg); got != tc.want {
				t.Errorf("tracing moved the golden checksum:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestWriteChromeTraceRoundTrip exports a traced run and validates it
// with the same checker tools/tracecheck uses; the timing-model namer
// must label demand filer service spans with their tier.
func TestWriteChromeTraceRoundTrip(t *testing.T) {
	cfg := tracedFleetConfig()
	cfg.Shards = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Trace, cfg.Timing); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	if n != len(res.Trace) {
		t.Fatalf("validated %d spans, result carries %d", n, len(res.Trace))
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"filer_fast"`) && !strings.Contains(out, `"name":"filer_slow"`) {
		t.Error("no filer service span labeled with its tier")
	}
}

// TestScenarioTraceExport checks the scenario path carries spans too.
func TestScenarioTraceExport(t *testing.T) {
	cfg := shardedScenarioConfig("crash-recovery")
	cfg.TraceSample = 0.05
	sc, err := BuiltinScenario("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("scenario run sampled no spans")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Trace, cfg.Timing); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChromeTrace(&buf); err != nil || n != len(res.Trace) {
		t.Fatalf("scenario export: %d spans, %v", n, err)
	}
}

func TestTraceSampleValidation(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5} {
		cfg := ScaledConfig(8192)
		cfg.TraceSample = rate
		if err := cfg.Validate(); err == nil {
			t.Errorf("TraceSample %v validated", rate)
		}
	}
}

// TestReportRoundTrip locks the -report-json snapshot: schema tag,
// counters consistent with the result, and loss-free JSON round trip.
func TestReportRoundTrip(t *testing.T) {
	cfg := tracedFleetConfig()
	cfg.Shards = 2
	cfg.FilerPartitions = 2
	cfg.WallProfile = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(cfg, res)
	if rep.Schema != ReportSchema {
		t.Errorf("schema %q", rep.Schema)
	}
	if rep.Counters["ops_completed"] != res.OpsCompleted ||
		rep.Counters["ram_hits"] != res.Hosts.RAMHits ||
		rep.Counters["filer_fast_reads"] != res.FilerFastReads {
		t.Error("counters disagree with result")
	}
	if rep.TraceSpans != len(res.Trace) || rep.TraceSpans == 0 {
		t.Errorf("trace_spans %d, result carries %d", rep.TraceSpans, len(res.Trace))
	}
	if len(rep.FilerPartitions) != 2 {
		t.Errorf("%d partition rows", len(rep.FilerPartitions))
	}
	if rep.WallClock == nil || rep.WallClock.Shards != 2 || rep.WallClock.Epochs == 0 {
		t.Errorf("wall_clock section missing or empty: %+v", rep.WallClock)
	}
	if len(rep.ReadHistogram) == 0 {
		t.Error("read histogram empty")
	}
	var blocks uint64
	for _, b := range rep.ReadHistogram {
		blocks += b.Count
	}
	if blocks != res.Hosts.BlocksRead {
		t.Errorf("read histogram holds %d samples, result read %d blocks", blocks, res.Hosts.BlocksRead)
	}
	if rep.WallClockSeconds <= 0 || rep.PeakHeapBytes == 0 {
		t.Errorf("runtime footprint not captured: %v s, %d bytes", rep.WallClockSeconds, rep.PeakHeapBytes)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Error("report did not survive the JSON round trip")
	}
}

// TestReadReportSchemas locks the reader's version policy: it accepts the
// current flashsim-report/2 (including the per-replica rows) and the
// previous flashsim-report/1 (which predates them), and rejects anything
// else — unknown schemas and unknown fields alike.
func TestReadReportSchemas(t *testing.T) {
	cfg := ScaledConfig(1024)
	cfg.FilerPartitions = 2
	cfg.FilerReplicas = 2
	cfg.FilerSlowReplica = 4
	cfg.ObjectTier = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewReport(cfg, res).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatalf("current-schema report rejected: %v", err)
	}
	if rep.Schema != ReportSchema || rep.Config.FilerReplicas != 2 {
		t.Errorf("schema %q, filer_replicas %d", rep.Schema, rep.Config.FilerReplicas)
	}
	if len(rep.FilerPartitions) != 2 || len(rep.FilerPartitions[0].Replicas) != 2 {
		t.Fatalf("replica rows missing: %+v", rep.FilerPartitions)
	}
	for i, p := range rep.FilerPartitions {
		var reads uint64
		for j, r := range p.Replicas {
			reads += r.FastReads + r.SlowReads + r.ObjectReads
			if !r.Live {
				t.Errorf("partition %d replica %d reported down after a healthy run", i, j)
			}
		}
		if reads != p.FastReads+p.SlowReads+p.ObjectReads {
			t.Errorf("partition %d replica reads sum to %d, partition served %d",
				i, reads, p.FastReads+p.SlowReads+p.ObjectReads)
		}
	}

	v1 := []byte(`{"schema":"flashsim-report/1","config":{"hosts":4,"filer_partitions":2},"counters":{"ops_completed":12},"filer_partitions":[{"fast_reads":6},{"fast_reads":6}]}`)
	old, err := ReadReport(v1)
	if err != nil {
		t.Fatalf("previous-schema report rejected: %v", err)
	}
	if old.Schema != ReportSchemaV1 || old.Counters["ops_completed"] != 12 {
		t.Errorf("v1 report misread: %+v", old)
	}
	if len(old.FilerPartitions) != 2 || len(old.FilerPartitions[0].Replicas) != 0 {
		t.Errorf("v1 partitions misread: %+v", old.FilerPartitions)
	}

	if _, err := ReadReport([]byte(`{"schema":"flashsim-report/9"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadReport([]byte(`{"schema":"flashsim-report/2","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadReport([]byte(`not json`)); err == nil {
		t.Error("malformed input accepted")
	}
}

// TestTraceNamerKeepsStretchedFilerSpans: a filer span whose duration
// matches no tier latency keeps the generic stage name.
func TestTraceNamerKeepsStretchedFilerSpans(t *testing.T) {
	tm := DefaultConfig().Timing
	name := traceNamer(tm)
	if got := name(obs.Span{Kind: obs.KindFiler, End: tm.FilerFastRead}); got != "filer_fast" {
		t.Fatalf("fast read named %q", got)
	}
	if got := name(obs.Span{Kind: obs.KindFiler, End: tm.FilerFastRead + 1}); got != "" {
		t.Fatalf("stretched filer span named %q, want the generic name", got)
	}
}
