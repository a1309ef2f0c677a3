package sweepgrid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// goldenAxes turns on every scenario axis at once: three protocols under
// Gauss-Markov mobility with four groups, membership churn, finite
// batteries, Gilbert-Elliott loss and crash/reboot faults.
func goldenAxes() Axes {
	return Axes{
		Protos: "ss-spst-e,maodv,odmrp", VMaxs: "5", GroupSizes: "20", GroupCounts: "4",
		Beacons: "2", Churns: "5", Batteries: "1", Losses: "4", CrashMTBFs: "30",
		Mobilities: "gauss-markov", Seeds: 2, Duration: 30,
	}
}

// goldenCSV is the SHA-256 of WriteCSV over goldenAxes; `sweep` with the
// same axes as flags prints the same bytes.
const goldenCSV = "8671502101c86075af9acea1d195d6d03a86928a75d94970383e8d9aa224ec9b"

// TestGoldenCSV pins the sweep CSV bit for bit across commits. Update the
// digest only for a change that is meant to alter behaviour, and say so
// where the change is recorded. Pinned on amd64, like
// scenario.TestGoldenDigests; -short skips it.
func TestGoldenCSV(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs a fault-heavy grid")
	}
	a := goldenAxes()
	points, cfgs, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteCSV(&out, a, points, scenario.DefaultEngine().Sweep(cfgs)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenCSV {
		t.Errorf("CSV digest %s, want %s\n%s", got, goldenCSV, out.String())
	}
}
