package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// goldenCase is one scenario whose output is pinned across commits, not
// only across worker counts: a change that claims to keep behaviour must
// reproduce these digests exactly.
type goldenCase struct {
	name   string
	cfg    func() Config
	digest string
}

var goldenCases = []goldenCase{
	{
		// The benchmark's scale-500 shape: the paper's density at N=500.
		name: "ss-spst-e/n500",
		cfg: func() Config {
			c := Default()
			c.Protocol = SSSPSTE
			c.N = 500
			c.AreaSide = 2372
			c.GroupSize = 100
			c.Duration = 15
			c.Seed = 1
			return c
		},
		digest: "a79e26d763886090b0d3e72a4598fd87591a266bdd1ee123b0aabc7187a26be2",
	},
	{
		// Eight Zipf groups with churn, bursty loss and crash/reboot: a
		// recovered node's protocol instances are Stopped and Reset in the
		// middle of the run.
		name: "ss-spst-e/n100-groups8-faults",
		cfg: func() Config {
			c := Default()
			c.Protocol = SSSPSTE
			c.N = 100
			c.AreaSide = 1061
			c.Groups = 8
			c.MemberChurnInterval = 5
			c.Duration = 30
			c.VMax = 10
			c.Seed = 7
			c.Faults = faults.Config{
				Loss:      faults.GEConfig{PGoodBad: 0.1, PBadGood: 0.25, LossBad: 0.8},
				CrashMTBF: 30,
				CrashMTTR: 4,
			}
			return c
		},
		digest: "a040c968d2dd7ecf2aebe85af8915aa6025c664c3f7aeacd1c30706602abfd9e",
	},
	{
		// SS-SPST-F under the paper's hop-cap loop guard: path-less
		// beacons and F's current-parent repricing against Range2.
		name: "ss-spst-f/hopcap",
		cfg: func() Config {
			c := Default()
			c.Protocol = SSSPSTF
			c.SSCore.LoopGuard = core.LoopGuardHopCap
			c.Duration = 60
			c.VMax = 5
			c.Seed = 3
			return c
		},
		digest: "6d1a413d68fc7e0283b552dac2c9b8f81c5e8377d34ff8eb5e2448885f9e5074",
	},
}

// goldenDigest hashes a run's summary and channel statistics; the
// formatted floats round-trip, so equal digests mean equal numbers.
func goldenDigest(res Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", res.Summary, res.Medium)))
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests pins the output of three SS-SPST runs bit for bit.
// Update a digest only for a change that is meant to alter behaviour,
// and say so where the change is recorded. The digests are taken on
// amd64: other architectures may fuse multiply-adds, which Go permits,
// and so round some floats differently.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			res, err := RunE(gc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			// A pinned scenario must exercise what it is there for.
			if f := res.Summary.Faults; gc.cfg().Faults.Any() && (f.Crashes == 0 || f.Recoveries == 0 || f.Losses == 0) {
				t.Errorf("fault processes did not all fire: %+v", f)
			}
			if got := goldenDigest(res); got != gc.digest {
				t.Errorf("digest %s, want %s\nsummary %+v", got, gc.digest, res.Summary)
			}
		})
	}
}
