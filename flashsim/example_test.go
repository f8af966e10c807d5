package flashsim_test

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/flashsim"
)

// ExampleRun executes the paper's baseline at a laptop-friendly scale and
// reports the application-observed read behaviour.
func ExampleRun() {
	cfg := flashsim.ScaledConfig(8192)
	res, err := flashsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d ops, %d blocks\n", res.OpsCompleted, res.BlocksIssued)
	fmt.Printf("reads hit a cache: %v\n", res.RAMHitRate+res.FlashHitRate > 0)
	// Output:
	// completed 1932 ops, 7680 blocks
	// reads hit a cache: true
}

// ExampleRunTrace replays a binary trace file through the cache stack, the
// path a user with real block traces follows after converting them to the
// repository's format. testdata/wss1024.fctr is a 1,030-op trace over a
// 1,024-block working set, written by
//
//	go run ./cmd/tracegen -wss-blocks 1024 -writes 30 -o flashsim/testdata/wss1024.fctr
func ExampleRunTrace() {
	f, err := os.Open("testdata/wss1024.fctr")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	src, err := flashsim.OpenBinaryTrace(f)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flashsim.ScaledConfig(8192)
	// The trace's volume is 4x its working set; the first half warms the
	// caches, as in the synthetic runs.
	res, err := flashsim.RunTrace(cfg, src, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d ops, %d blocks\n", res.OpsCompleted, res.BlocksIssued)
	fmt.Printf("RAM hits %.1f%%, flash hits %.1f%%\n", 100*res.RAMHitRate, 100*res.FlashHitRate)
	// Output:
	// completed 1030 ops, 4096 blocks
	// RAM hits 24.2%, flash hits 84.4%
}

// ExampleRunGrid declares a working-set sweep as a point grid and runs it
// on the bounded worker pool. Results stream back in declaration order —
// whatever the pool's parallelism — so output is deterministic.
func ExampleRunGrid() {
	var cfgs []flashsim.Config
	for _, wssBlocks := range []int64{512, 1024, 2048} {
		cfg := flashsim.ScaledConfig(8192)
		cfg.Workload.WorkingSetBlocks = wssBlocks
		cfgs = append(cfgs, cfg)
	}
	_, err := flashsim.RunGrid(cfgs, 0, func(i int, res *flashsim.Result) {
		fmt.Printf("point %d: %d blocks issued\n", i, res.BlocksIssued)
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// point 0: 2053 blocks issued
	// point 1: 4096 blocks issued
	// point 2: 8196 blocks issued
}

// ExampleRunBatch runs a write-fraction sweep as one batch and reads the
// results back in declaration order.
func ExampleRunBatch() {
	var cfgs []flashsim.Config
	for _, writes := range []float64{0, 0.5} {
		cfg := flashsim.ScaledConfig(8192)
		cfg.Workload.WriteFraction = writes
		cfgs = append(cfgs, cfg)
	}
	results, err := flashsim.RunBatch(cfgs, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("writes %.0f%%: %d blocks written\n", 100*cfgs[i].Workload.WriteFraction, res.Hosts.BlocksWritten)
	}
	// Output:
	// writes 0%: 0 blocks written
	// writes 50%: 1839 blocks written
}

// ExampleDefaultConfig shows the baseline configuration's shape: the
// paper's single host at 1:64 of its sizes.
func ExampleDefaultConfig() {
	cfg := flashsim.DefaultConfig()
	fmt.Printf("%d host, %d RAM blocks, %d flash blocks, %d-block working set\n",
		cfg.Hosts, cfg.RAMBlocks, cfg.FlashBlocks, cfg.Workload.WorkingSetBlocks)
	// Output:
	// 1 host, 32768 RAM blocks, 262144 flash blocks, 245760-block working set
}

// ExampleRunScenario executes a scripted multi-phase workload — the
// "warmup" built-in — and walks its per-phase results.
func ExampleRunScenario() {
	sc, err := flashsim.BuiltinScenario("warmup")
	if err != nil {
		log.Fatal(err)
	}
	cfg := flashsim.ScaledConfig(8192)
	res, err := flashsim.RunScenario(cfg, sc)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Phases {
		fmt.Printf("phase %s: %d blocks\n", p.Name, p.BlocksIssued)
	}
	fmt.Printf("telemetry columns: %d\n", res.Telemetry.NumColumns())
	// Output:
	// phase cold: 5764 blocks
	// phase steady: 1921 blocks
	// telemetry columns: 7
}

// ExampleRunScenario_sharded runs a scripted crash on a four-host cluster
// split over two shards: the scenario's phases, fault events and
// telemetry all synchronize at the epoch barrier, and the result is
// bit-identical for every shard count — the output below is the same at
// Shards 0 (one shard), 1, 2 or 4, on any machine.
func ExampleRunScenario_sharded() {
	sc, err := flashsim.BuiltinScenario("crash-recovery")
	if err != nil {
		log.Fatal(err)
	}
	cfg := flashsim.ScaledConfig(8192)
	cfg.Hosts = 4
	cfg.PersistentFlash = true // the flash cache survives the crash
	cfg.Shards = 2
	res, err := flashsim.RunScenario(cfg, sc)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Phases {
		fmt.Printf("phase %s: %d blocks\n", p.Name, p.BlocksIssued)
	}
	ev := res.Events[0]
	fmt.Printf("crash on host %d: dropped %d blocks, recovery scan took time: %v\n",
		ev.Host, ev.Dropped, ev.Seconds > 0)
	// Output:
	// phase warm: 15360 blocks
	// phase recovery: 15361 blocks
	// crash on host 0: dropped 256 blocks, recovery scan took time: true
}

// ExampleTimeSeries_WriteCSV exports a scenario's time-resolved telemetry
// as CSV, the format the plotting pipeline consumes.
func ExampleTimeSeries_WriteCSV() {
	sc, err := flashsim.BuiltinScenario("warmup")
	if err != nil {
		log.Fatal(err)
	}
	res, err := flashsim.RunScenario(flashsim.ScaledConfig(8192), sc)
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	if err := res.Telemetry.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	header := strings.SplitN(b.String(), "\n", 3)
	fmt.Println(header[0])
	fmt.Println(header[1])
	// Output:
	// # scenario warmup
	// time_s,read_us,write_us,ram_hit,flash_hit,blocks,inflight,dirty
}
