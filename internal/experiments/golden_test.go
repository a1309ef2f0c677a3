package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// goldenTables is the SHA-256 of every figure table at a 30 s horizon and
// one seed, formatted as `figures -quick -duration 30 -seeds 1` prints
// them to stdout, so the digest also names that command's output.
const goldenTables = "a482c254cb5e035ff0ad2ab2bf1febfff3deffb89a631610309dfcbe7f93437c"

// TestGoldenTables pins every figure family bit for bit across commits.
// Update the digest only for a change that is meant to alter figure
// output, and say so where the change is recorded. Like
// scenario.TestGoldenDigests it is pinned on amd64 (other architectures
// may fuse multiply-adds); it takes a few seconds, so -short skips it.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs every figure")
	}
	plan, err := PlanSpec{Figures: AllFigures(), Duration: 30, Seeds: 1, BaseSeed: 1}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := plan.Tables(scenario.DefaultEngine().Sweep(plan.Jobs()))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, tbl := range tables {
		out.WriteString(tbl.Format())
		out.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(out.String()))
	if got := hex.EncodeToString(sum[:]); got != goldenTables {
		t.Errorf("tables digest %s, want %s", got, goldenTables)
	}
}
