package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/packet"
)

// lonelyProto returns a started, non-source instance in a 2-node network
// whose nodes are out of radio range, so its neighbour table holds only
// the beacons a test injects.
func lonelyProto(t *testing.T) *Protocol {
	t.Helper()
	pts := []geom.Point{{X: 0}, {X: 10000}}
	tn := buildStatic(t, pts, EnergyAware, []int{1}, 2, 1)
	return tn.protos[1]
}

// inject delivers a beacon from id heard at time at, carrying fresh
// NbrDists and RootPath slices as real beacons do.
func inject(p *Protocol, id packet.NodeID, at float64) {
	bp := &BeaconPayload{
		Cost: 1, Hop: 1, Parent: packet.Broadcast,
		NbrDists: []float64{float64(id)},
		RootPath: []packet.NodeID{0, id},
	}
	pkt := &packet.Packet{Kind: packet.KindBeacon, From: id, To: packet.Broadcast, Src: id, Payload: bp}
	p.handleBeacon(pkt, medium.RxInfo{From: id, Dist: 100, At: at})
}

// checkRows verifies that the table holds exactly want, in order, with
// every row matching its id.
func checkRows(t *testing.T, p *Protocol, want ...packet.NodeID) {
	t.Helper()
	if len(p.nbrs) != len(want) || len(p.nbrIDs) != len(want) {
		t.Fatalf("table holds %d rows / %d ids, want %d", len(p.nbrs), len(p.nbrIDs), len(want))
	}
	for i, id := range want {
		if p.nbrIDs[i] != id || p.nbrs[i].ID != id {
			t.Fatalf("row %d: id %d, row for %d; want %d (ids %v)", i, p.nbrIDs[i], p.nbrs[i].ID, id, p.nbrIDs)
		}
	}
}

// checkSpareZero verifies that no slot beyond the live rows keeps a
// beacon's slices alive.
func checkSpareZero(t *testing.T, p *Protocol) {
	t.Helper()
	for i, e := range p.nbrs[len(p.nbrs):cap(p.nbrs)] {
		if e.NbrDists != nil || e.RootPath != nil {
			t.Errorf("spare slot %d still references beacon slices", len(p.nbrs)+i)
		}
	}
}

func TestNeighborTableInsertionOrder(t *testing.T) {
	p := lonelyProto(t)
	for _, id := range []packet.NodeID{7, 3, 9, 5, 11} {
		inject(p, id, 0)
	}
	// A repeat beacon refreshes its row in place.
	inject(p, 9, 0.5)
	checkRows(t, p, 7, 3, 9, 5, 11)
	if e := &p.nbrs[2]; e.Last != 0.5 || e.NbrDists[0] != 9 {
		t.Errorf("refreshed row = %+v", *e)
	}
	if p.NeighborCount() != 5 {
		t.Errorf("NeighborCount = %d, want 5", p.NeighborCount())
	}
}

func TestNeighborTableExpirySwapRemoves(t *testing.T) {
	p := lonelyProto(t)
	stale := -2 * p.cfg.NeighborTTL
	for _, b := range []struct {
		id packet.NodeID
		at float64
	}{{7, stale}, {3, 0}, {9, stale}, {5, 0}, {11, 0}} {
		inject(p, b.id, b.at)
	}
	p.expire()
	// 7 is replaced by the tail (11), then 9 by the new tail (5).
	checkRows(t, p, 11, 3, 5)
	for i := range p.nbrs {
		if p.nbrs[i].Last != 0 || p.nbrs[i].NbrDists[0] != float64(p.nbrIDs[i]) {
			t.Errorf("row %d carries another neighbour's state: %+v", i, p.nbrs[i])
		}
	}
	checkSpareZero(t, p)
}

func TestNeighborTableAcceptsIDsBeyondN(t *testing.T) {
	p := lonelyProto(t) // configured for N=2
	inject(p, 1, 0)
	inject(p, 5000, 0)
	checkRows(t, p, 1, 5000)
}

func TestNeighborTableResetReleasesRows(t *testing.T) {
	p := lonelyProto(t)
	for id := packet.NodeID(2); id < 20; id++ {
		inject(p, id, 0)
	}
	p.Reset(p.cfg, 2)
	checkRows(t, p)
	if cap(p.nbrs) == 0 {
		t.Fatal("Reset dropped the table's storage")
	}
	checkSpareZero(t, p)
}

func TestNewAllocatesNoPerNTable(t *testing.T) {
	p := New(Config{}, 100000)
	if cap(p.nbrs) != 0 || cap(p.nbrIDs) != 0 {
		t.Errorf("New sized the table by N: cap(nbrs)=%d cap(nbrIDs)=%d", cap(p.nbrs), cap(p.nbrIDs))
	}
	if allocs := testing.AllocsPerRun(10, func() { New(Config{}, 100000) }); allocs > 1 {
		t.Errorf("New(cfg, 100000) made %v allocations, want only the instance", allocs)
	}
}
