package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuMetrics are the traced run's CPU shares: self time of each listed
// package of the module, and the Go runtime's collector and allocator.
var cpuMetrics = []string{
	"cpu.eventq", "cpu.sim",
	"cpu.medium", "cpu.spatial", "cpu.geom", "cpu.energy",
	"cpu.mobility", "cpu.xrand",
	"cpu.core", "cpu.maodv", "cpu.odmrp", "cpu.packet",
	"cpu.netsim", "cpu.metrics",
	"cpu.runtime_gc", "cpu.runtime_alloc",
}

// Runtime functions whose cumulative time is the collector's (background
// marking, mark assists, sweeping and scavenging) and the allocator's.
var (
	gcRoots    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}
	allocRoot  = "runtime.mallocgc"
	assistRoot = "runtime.gcAssistAlloc"
)

// cpuShares merges the CPU profiles with the toolchain's pprof and
// returns each cpuMetrics entry as a share of all samples.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	return sharesFromTop(out.String())
}

// sharesFromTop reads "go tool pprof -top -unit=ms" output: one row per
// function with flat and cumulative milliseconds.
func sharesFromTop(top string) (map[string]float64, error) {
	flat := map[string]float64{} // by package
	cum := map[string]float64{}  // by function
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) == 5 && f[0] == "flat" && f[3] == "cum"
			continue
		}
		if len(f) < 6 {
			continue
		}
		fl, err1 := parseMS(f[0])
		cu, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof row %q: unreadable times", sc.Text())
		}
		fn := strings.Join(f[5:], " ")
		flat[packageOf(fn)] += fl
		cum[fn] += cu
		total += fl
	}
	if !inRows || total == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	shares := map[string]float64{}
	for _, name := range cpuMetrics {
		if pkg, ok := strings.CutPrefix(name, "cpu."); ok && !strings.HasPrefix(pkg, "runtime_") {
			shares[name] = flat["repro/internal/"+pkg] / total
		}
	}
	var gc float64
	for _, fn := range gcRoots {
		gc += cum[fn]
	}
	shares["cpu.runtime_gc"] = gc / total
	shares["cpu.runtime_alloc"] = (cum[allocRoot] - cum[assistRoot]) / total
	return shares, nil
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/eventq.(*Queue).Pop" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
