package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// Golden determinism lock for the event-core refactor: an experiment's
// Report serialization must hash to the value produced by the pre-refactor
// container/heap engine (commit 6833c1e) at every parallelism level. The
// sweep runner already guarantees parallel == sequential; these constants
// additionally pin the sequential result itself across engine rewrites.
const (
	goldenFig4 = "b5a49972e9d8e6511580d83f739d2c96ceeddb31f45abc66fe746a060aab1bbf"
	goldenFig8 = "db36b16636ba7939237dc28627a1ec4f63cfb79358e7668909d79bed434930a2"
	// goldenFig1 pins the FTL-device figure; captured before its
	// completion callbacks moved to the arg-carrying form.
	goldenFig1 = "b8913554bebb168a0cc08385dd0a0fb9a811c2d7f63bd9a75e82c374e3f8d38b"
	// goldenFig11 and goldenFig12 pin sequential multi-host instant
	// consistency (the invalidation-fraction figures); captured before the
	// sequential consistency registry moved behind the host's one port.
	goldenFig11 = "bfb415f6f8efb6c0d238682f798083d2eff4d8a9bfc2ec135531fb143c44c66f"
	goldenFig12 = "318fc7c3ac6a3d92f36b1c5f7d985e4c7e19b8a0e606a6d100034bc95ae3c27d"
	// goldenFig2 sweeps all three architectures under the s/a/p1/n
	// policy pairs; captured before the host's cache tiers moved into one
	// table.
	goldenFig2 = "5cb4bf3a077501a9af874e41680f9bae8e5228fad85ff3b0da61fbe1d9242dbe"
)

// reportChecksum hashes everything a Report renders: name, description,
// tables, and each figure's CSV (points at full float precision).
func reportChecksum(rep *Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", rep.Name, rep.Description)
	for _, tbl := range rep.Tables {
		fmt.Fprintln(h, tbl)
	}
	for _, fig := range rep.Figures {
		fmt.Fprintln(h, fig.CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenReportChecksums(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Runner
		want string
	}{
		{"fig4", Fig4, goldenFig4},
		{"fig8", Fig8, goldenFig8},
		{"fig1", Fig1, goldenFig1},
		{"fig11", Fig11, goldenFig11},
		{"fig12", Fig12, goldenFig12},
		{"fig2", Fig2, goldenFig2},
	} {
		for _, par := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, par), func(t *testing.T) {
				opts := quickOpts()
				opts.Parallel = par
				rep, err := tc.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := reportChecksum(rep); got != tc.want {
					t.Errorf("report checksum drifted from pre-refactor engine:\ngot  %s\nwant %s", got, tc.want)
				}
			})
		}
	}
}
