package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/medium"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// CMax is the "detached" cost: strictly greater than any achievable tree
// cost, per the paper's convergence argument (a node not on the tree costs
// CMax; every stabilization step can only lower the global sum).
const CMax = 1e15

// LoopGuard selects the routing-loop countermeasure.
type LoopGuard int

const (
	// LoopGuardPathVector (default) carries the root path in beacons and
	// refuses parents whose path runs through the choosing node. Loops
	// are suppressed within one round. An extension beyond the paper.
	LoopGuardPathVector LoopGuard = iota
	// LoopGuardHopCap is the paper's Lemma-3 mechanism alone: loops
	// inflate hop counts round by round until they hit MaxHops and the
	// loop dissolves — up to N rounds of outage, which is a large part
	// of why the unstable SS-SPST-F delivers so poorly in the paper.
	LoopGuardHopCap
)

// Config parameterizes one SS-SPST protocol instance. Zero fields are
// filled with defaults by Normalize.
type Config struct {
	// Variant selects the cost metric (Hop/TxLink/Farthest/EnergyAware).
	Variant Variant
	// BeaconInterval is the paper's round length; 2 s in most experiments.
	BeaconInterval float64
	// BeaconJitter is the relative timer jitter avoiding phase-locked
	// beacons (and hence systematic collisions).
	BeaconJitter float64
	// NeighborTTL is how long a neighbour entry stays fresh without a
	// beacon; beyond it the link is treated as a fault (disconnection).
	NeighborTTL float64
	// MaxHops is the count-to-infinity bound: nodes whose advertised hop
	// count reaches it are ineligible as parents. The paper fixes it to
	// the network size N.
	MaxHops int
	// RangeMargin scales the power-controlled forwarding range above the
	// last measured costliest-child distance, absorbing movement between
	// beacons.
	RangeMargin float64
	// RangeMarginAbs adds a fixed headroom (metres) on top of
	// RangeMargin; it is what keeps short hops in deep energy-optimal
	// trees from escaping coverage between beacons.
	RangeMarginAbs float64
	// ForwardJitterMax is the maximum random delay before re-forwarding a
	// data packet, decorrelating sibling transmissions.
	ForwardJitterMax float64
	// Hysteresis is the relative cost improvement required to abandon the
	// current parent; negative means "use the variant default".
	Hysteresis float64
	// SwitchProb gates voluntary parent switches under the node-based
	// metrics (serial-daemon emulation; see stabilize). 0 → default 0.5.
	SwitchProb float64
	// HopPenaltyFrac regularizes SS-SPST-E's otherwise-free in-coverage
	// joins (fraction of Erx per hop; see Metric.HopPenaltyFrac).
	// 0 → default 0.3; negative → disabled.
	HopPenaltyFrac float64
	// MakeBeforeBreak keeps forwarding data from the previous parent for
	// one beacon interval after a switch, bridging the round the new
	// parent needs to learn about us. This is an extension beyond the
	// paper (whose protocols suffer a full re-stabilization outage per
	// switch); it is off by default so the reproduction matches the
	// paper's per-switch delivery cost, and benchmarked as an ablation.
	MakeBeforeBreak bool
	// LoopGuard selects the loop countermeasure; the library defaults to
	// the fast path-vector guard, while the paper-reproduction scenarios
	// use the paper's own hop-cap (see internal/scenario).
	LoopGuard LoopGuard
	// DataBytes is the data frame size the metric prices.
	DataBytes int
	// JoinRetry enables the bounded retry/backoff for detached members: a
	// node that ends a beacon round without a parent schedules up to
	// JoinRetryMax extra rounds at exponentially backed-off delays, so a
	// join window lost to a fault burst costs a retry delay instead of
	// waiting out full beacon intervals while the burst recurs. Off by
	// default — the scenario layer enables it only for fault-injected
	// runs, keeping fault-free runs bit-identical with earlier builds.
	JoinRetry bool
	// JoinRetryBase is the first retry delay; 0 → BeaconInterval/4.
	JoinRetryBase float64
	// JoinRetryMax bounds retries per detachment episode; 0 → 4.
	JoinRetryMax int
}

// Normalize fills zero fields with defaults for an n-node network and
// returns the result.
func (c Config) Normalize(n int) Config {
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 2
	}
	if c.BeaconJitter == 0 {
		c.BeaconJitter = 0.15
	}
	if c.NeighborTTL == 0 {
		c.NeighborTTL = 2.5 * c.BeaconInterval
	}
	if c.MaxHops == 0 {
		c.MaxHops = n
	}
	if c.RangeMargin == 0 {
		c.RangeMargin = 1.15
	}
	if c.RangeMarginAbs == 0 {
		c.RangeMarginAbs = 10
	}
	if c.ForwardJitterMax == 0 {
		c.ForwardJitterMax = 6e-3
	}
	if c.Hysteresis < 0 {
		c.Hysteresis = c.Variant.DefaultHysteresis()
	}
	if c.SwitchProb == 0 {
		c.SwitchProb = 0.5
	}
	switch {
	case c.HopPenaltyFrac == 0:
		c.HopPenaltyFrac = 1
	case c.HopPenaltyFrac < 0:
		c.HopPenaltyFrac = 0
	}
	if c.DataBytes == 0 {
		c.DataBytes = packet.DataPayload + packet.IPHeaderBytes + packet.MACHeaderBytes
	}
	if c.JoinRetryBase == 0 {
		c.JoinRetryBase = c.BeaconInterval / 4
	}
	if c.JoinRetryMax == 0 {
		c.JoinRetryMax = 4
	}
	return c
}

// Neighbor is one row of a node's neighbour table, refreshed by beacons.
type Neighbor struct {
	ID         packet.NodeID
	Last       float64 // time of last beacon
	Dist       float64 // measured link distance at last beacon
	Cost       float64
	Hop        int
	Parent     packet.NodeID
	Root       bool
	Member     bool
	Downstream bool
	Range      float64
	Range2     float64
	Children   int
	NbrDists   []float64
	RootPath   []packet.NodeID
}

// pathContains reports whether the neighbour's advertised root path
// already includes id (adopting it would close a loop).
func (e *Neighbor) pathContains(id packet.NodeID) bool {
	for _, v := range e.RootPath {
		if v == id {
			return true
		}
	}
	return false
}

// Protocol is one node's SS-SPST instance. It implements netsim.Protocol
// and netsim.TreeStater.
type Protocol struct {
	cfg    Config
	metric Metric
	node   *netsim.Slot
	rng    *xrand.RNG

	cost       float64
	hop        int
	parent     packet.NodeID
	hasParent  bool
	downstream bool
	curRange   float64 // forwarding range before margin (costliest downstream child)
	curRange2  float64 // second-costliest downstream child distance
	rootPath   []packet.NodeID

	// Make-before-break: after a parent switch, data from the previous
	// parent is still forwarded until graceUntil, bridging the round it
	// takes the new parent to learn about us.
	prevParent packet.NodeID
	graceUntil float64
	// cooldownUntil rate-limits voluntary switches under the node-based
	// metrics, breaking symmetric switch races between siblings. The
	// cooldown doubles with each switch in quick succession
	// (switchStreak) so that cost-oscillation cascades — which the
	// paper's Lemma 1 assumes away — damp to quiescence; a quiet spell
	// resets the streak so mobility-driven improvements stay cheap.
	cooldownUntil float64
	switchStreak  int
	lastSwitch    float64

	// nbrs is the neighbour table, one row per live neighbour in
	// insertion order, and nbrIDs[i] is nbrs[i].ID. Its size is the
	// node's degree, not the network size: a beacon finds its row by
	// scanning nbrIDs (a couple of cache lines at the paper's density),
	// and expiry swap-removes a row together with its id, zeroing the
	// vacated tail slot so spare capacity pins no beacon slices. The
	// iteration order is deterministic and the same in every scan.
	nbrs   []Neighbor
	nbrIDs []packet.NodeID
	// childCache memoizes deriveChildren between neighbour-table
	// mutations: forwarding consults the child set on every data frame,
	// while the table only changes on beacons and expiry. The cached
	// aggregate is order-independent, so memoization cannot change
	// behaviour.
	childCache   childState
	childCacheOK bool
	// seenApp dedupes application-level deliveries (members consume any
	// copy they hear — promiscuous multicast reception); seenFwd dedupes
	// tree forwarding (only copies from the parent propagate). SeqSets:
	// both are probed on every data reception, the hottest map lookups
	// in a run before they became bitsets.
	seenApp packet.SeqSet
	seenFwd packet.SeqSet
	seq     uint32

	// Frame pools. Beacon and data frames opt into packet.Owner
	// recycling: the medium hands a frame back once it has fully left
	// the air (transmission retired, last reception fired), after which
	// no receiver references it — handleBeacon copies the payload slices
	// it keeps. Forward actions are recycled as soon as they fire. The
	// pools survive Reset, so reused instances transmit without
	// allocating.
	bcnFree   []*beaconFrame
	datFree   []*dataFrame
	fwdFree   []*fwdAction
	ndScratch []float64

	ticker *sim.Ticker
	// startTimer is the desynchronized first-beacon timer; stored so Stop
	// can cancel a protocol crashed before its first round.
	startTimer *sim.Timer
	// retryTimer / retryCount drive the bounded join retry (Config.JoinRetry).
	retryTimer *sim.Timer
	retryCount int

	// ParentChanges counts parent switches, a stability diagnostic the
	// instability analysis of SS-SPST-F relies on.
	ParentChanges int
}

// New creates a protocol instance with the given (possibly zero-default)
// config; n is the network size used for Normalize.
func New(cfg Config, n int) *Protocol {
	p := &Protocol{}
	p.Reset(cfg, n)
	return p
}

// Reset re-initializes the instance in place for a new run over an n-node
// network, exactly as New would, while keeping grown storage: the
// neighbour table's capacity, the dedup sets and the frame pools all
// survive, so a reused instance reaches transmit steady state without
// allocating. The caller re-attaches it with Start.
func (p *Protocol) Reset(cfg Config, n int) {
	cfgN := cfg
	if cfgN.Hysteresis == 0 {
		cfgN.Hysteresis = -1 // zero value means "variant default"
	}
	p.cfg = cfgN.Normalize(n)
	p.metric = Metric{}
	p.node = nil
	p.rng = nil
	p.cost, p.hop = 0, 0
	p.parent, p.hasParent, p.downstream = 0, false, false
	p.curRange, p.curRange2 = 0, 0
	p.rootPath = p.rootPath[:0]
	p.prevParent, p.graceUntil = 0, 0
	p.cooldownUntil, p.switchStreak, p.lastSwitch = 0, 0, 0
	// Only the live rows can hold beacon slices: dropNbr zeroes every
	// slot it vacates.
	clear(p.nbrs)
	p.nbrs = p.nbrs[:0]
	p.nbrIDs = p.nbrIDs[:0]
	p.childCache, p.childCacheOK = childState{}, false
	p.seenApp.Reset()
	p.seenFwd.Reset()
	p.seq = 0
	p.ticker = nil
	p.startTimer = nil
	p.retryTimer = nil
	p.retryCount = 0
	p.ParentChanges = 0
}

// Config returns the normalized configuration in force.
func (p *Protocol) Config() Config { return p.cfg }

// Start implements netsim.Protocol.
func (p *Protocol) Start(n *netsim.Slot) {
	p.node = n
	p.metric = Metric{
		Variant:        p.cfg.Variant,
		Model:          n.Net.Medium.Model(),
		DataBytes:      p.cfg.DataBytes,
		HopPenaltyFrac: p.cfg.HopPenaltyFrac,
	}
	p.rng = n.ProtoRNG("ssspst")
	p.detach()
	if n.Source {
		p.cost = 0
		p.hop = 0
		p.parent = n.ID
		p.hasParent = true
	}
	// Desynchronized first beacon inside the first interval, then periodic.
	first := p.rng.Range(0, p.cfg.BeaconInterval)
	p.startTimer = n.Sim().Schedule(first, func() {
		p.round()
		p.ticker = n.Sim().Every(p.cfg.BeaconInterval, p.cfg.BeaconJitter, p.round)
	})
}

// Stop implements netsim.Stopper: it cancels every pending timer so a
// crashed node's instance goes quiet. The instance must be Reset (and
// Started on a node) before it can run again.
func (p *Protocol) Stop() {
	p.startTimer.Cancel()
	p.retryTimer.Cancel()
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

// round is one beacon interval's work: expire stale neighbours, run the
// local stabilization action, then advertise the new state.
func (p *Protocol) round() {
	p.expire()
	p.stabilize()
	p.sendBeacon()
	p.maybeRetry()
}

// maybeRetry schedules an extra round when this node ended the current
// one detached (Config.JoinRetry): a member whose join window was eaten
// by a loss burst re-evaluates after a jittered, exponentially backed-off
// delay instead of waiting out whole beacon intervals while the burst
// recurs. Retries are bounded per detachment episode and the budget
// refills once a parent is found, so a genuinely unreachable node settles
// back to the periodic cadence instead of beaconing itself to death.
func (p *Protocol) maybeRetry() {
	if !p.cfg.JoinRetry || p.node.Source {
		return
	}
	if p.hasParent {
		p.retryCount = 0
		return
	}
	if p.retryCount >= p.cfg.JoinRetryMax || p.retryTimer.Active() {
		return
	}
	p.retryCount++
	p.node.Net.Collector.JoinRetried()
	d := p.cfg.JoinRetryBase * float64(uint(1)<<uint(p.retryCount-1))
	d *= p.rng.Range(0.5, 1)
	p.retryTimer = p.node.Sim().Schedule(d, p.round)
}

// expire drops neighbour entries that have not beaconed within the TTL —
// the protocol's fault detection (node moved away or died).
func (p *Protocol) expire() {
	now := p.node.Now()
	for i := 0; i < len(p.nbrs); {
		e := &p.nbrs[i]
		if now-e.Last <= p.cfg.NeighborTTL {
			i++
			continue
		}
		if e.Parent == p.node.ID && e.Downstream {
			p.childCacheOK = false
		}
		p.dropNbr(i)
		// The swap-removed tail entry now sits at i; revisit it.
	}
}

// childState summarizes this node's current tree children (neighbours
// claiming it as parent, with downstream members).
type childState struct {
	count    int
	maxDist  float64 // costliest downstream child
	maxDist2 float64 // second costliest
	any      bool
}

// deriveChildren scans the neighbour table for nodes claiming this node
// as parent. The scan is memoized until the table next changes.
func (p *Protocol) deriveChildren() childState {
	if p.childCacheOK {
		return p.childCache
	}
	var cs childState
	for i := range p.nbrs {
		e := &p.nbrs[i]
		if e.Parent != p.node.ID || !e.Downstream {
			continue
		}
		cs.count++
		cs.any = true
		switch {
		case e.Dist > cs.maxDist:
			cs.maxDist2 = cs.maxDist
			cs.maxDist = e.Dist
		case e.Dist > cs.maxDist2:
			cs.maxDist2 = e.Dist
		}
	}
	p.childCache = cs
	p.childCacheOK = true
	return cs
}

// appendNbrDists appends this node's sorted neighbour distance vector to
// dst (usually a reused buffer) and returns the extended slice.
func (p *Protocol) appendNbrDists(dst []float64) []float64 {
	for i := range p.nbrs {
		dst = append(dst, p.nbrs[i].Dist)
	}
	sort.Float64s(dst)
	return dst
}

// detach resets to the disconnected state (cost CMax, hop capped).
func (p *Protocol) detach() {
	p.hasParent = false
	p.parent = packet.Broadcast
	p.cost = CMax
	p.hop = p.cfg.MaxHops
	p.rootPath = p.rootPath[:0]
}

// stabilize is the paper's guarded local action: the root pins its state;
// every other node joins the neighbour on the cheapest estimated
// energy-efficient path, provided that neighbour's hop count is below the
// count-to-infinity bound.
func (p *Protocol) stabilize() {
	cs := p.deriveChildren()
	p.curRange = cs.maxDist
	p.curRange2 = cs.maxDist2
	p.downstream = p.node.Member || p.node.Source || cs.any

	if p.node.Source {
		p.ndScratch = p.appendNbrDists(p.ndScratch[:0])
		p.cost = p.metric.NodeCost(p.curRange, cs.count, p.ndScratch)
		p.hop = 0
		p.parent = p.node.ID
		p.hasParent = true
		p.rootPath = []packet.NodeID{p.node.ID}
		return
	}

	const eps = 1e-12
	var best, cur *Neighbor
	bestCand := math.Inf(1)
	curCand := math.Inf(1)
	for i := range p.nbrs {
		e := &p.nbrs[i]
		// N1: only neighbours strictly below the hop cap are eligible —
		// the count-to-infinity guard (paper Lemma 3).
		if e.Hop+1 >= p.cfg.MaxHops {
			continue
		}
		// Never adopt a node that claims us as its parent: instant loop.
		if e.Parent == p.node.ID {
			continue
		}
		if p.cfg.LoopGuard == LoopGuardPathVector {
			// Path-vector loop suppression: refuse ancestors-through-us.
			if e.pathContains(p.node.ID) {
				continue
			}
			// A non-root neighbour with no root path is itself detached.
			if !e.Root && len(e.RootPath) == 0 {
				continue
			}
		}
		// SS-SPST-F prices the join against u's range *without us*: if we
		// are u's costliest child, u's advertised range is our own doing
		// and the honest baseline is its second-costliest child (paper
		// §5: "the energy cost difference experienced by u with and
		// without v as its child"). This is what makes F's costliest
		// children keep defecting — the paper's Example-3 dynamics and
		// the root of its reported instability.
		//
		// SS-SPST-E deliberately prices itself *in*: its coverage is
		// already paid for in the tree's energy (wireless multicast
		// advantage), so staying inside the parent's range is free and
		// the tree is stable — the stability gap between E and F the
		// paper measures.
		base, kids := e.Range, e.Children
		isMyParent := p.hasParent && e.ID == p.parent
		if p.cfg.Variant == Farthest && isMyParent && e.Dist >= e.Range-1.0 {
			base = e.Range2
			if kids > 0 {
				kids--
			}
		}
		delta := p.metric.JoinDelta(e.Dist, base, kids, e.NbrDists)
		cand := p.cfg.Variant.Accumulate(e.Cost, delta)
		// Under the node-based metrics the root advertises its NodeCost,
		// which already includes the transmission range and receptions of
		// its *current* children; a current child pricing "stay" must not
		// add δ again or the stay/rejoin asymmetry makes it oscillate.
		// (Hop/T/MST roots advertise zero, so the shortcut must not apply
		// — it would erase the whole cost gradient.)
		if isMyParent && e.Root &&
			(p.cfg.Variant == Farthest || p.cfg.Variant == EnergyAware) {
			cand = e.Cost
		}
		if math.IsInf(cand, 1) {
			continue
		}
		if isMyParent {
			cur = e
			curCand = cand
		}
		// N2 selection with deterministic tie-breaks: cost, then hop,
		// then id.
		if cand < bestCand-eps ||
			(cand < bestCand+eps && best != nil &&
				(e.Hop < best.Hop || (e.Hop == best.Hop && e.ID < best.ID))) {
			best = e
			bestCand = cand
		}
	}

	if best == nil {
		p.detach()
		return
	}

	// Voluntary-switch damping. A node with a live parent keeps it
	// unless the alternative is a genuine improvement:
	//
	//   - hysteresis band on path cost (SS-SPST-F runs undamped,
	//     reproducing the instability the paper reports for it);
	//   - for the node-based metrics, the paper's Lemma-1 assumption made
	//     operational: switching must strictly reduce global tree energy,
	//     i.e. the cost added at the new parent must be below the cost
	//     removed from the old one (δ_new < δ_old);
	//   - a two-round cooldown between voluntary switches breaks
	//     symmetric races between siblings switching on the same stale
	//     beacon state.
	if !math.IsInf(curCand, 1) {
		keep := bestCand >= curCand*(1-p.cfg.Hysteresis)-eps
		switch p.cfg.Variant {
		case Farthest:
			// SS-SPST-F runs completely undamped: its honest marginal
			// pricing keeps re-evaluating as costliest children turn
			// over (the paper's Example-3 dynamics), so near-tie
			// candidates flip continuously — "its dynamic nature which
			// causes unstability", the behaviour behind F's poor packet
			// delivery in the paper's Figures 7–9.
		case EnergyAware:
			if p.node.Now() < p.cooldownUntil {
				keep = true
			}
			// Randomized move gating (serial-daemon emulation): a join's
			// cost depends on the parent's other children, so
			// simultaneous sibling moves invalidate each other's
			// estimates and the synchronous best-response can cycle.
			// Sequential improving moves strictly decrease total tree
			// energy (an exact potential), so letting each node move
			// only with probability SwitchProb per round de-synchronizes
			// the cascade and restores convergence.
			if !keep && !p.rng.Bool(p.cfg.SwitchProb) {
				keep = true
			}
		}
		if keep {
			best = cur
			bestCand = curCand
		}
	}

	if !p.hasParent || p.parent != best.ID {
		p.ParentChanges++
		if p.hasParent {
			now := p.node.Now()
			if p.cfg.MakeBeforeBreak {
				p.prevParent = p.parent
				p.graceUntil = now + p.cfg.BeaconInterval
			}
			if p.cfg.Variant == EnergyAware && !math.IsInf(curCand, 1) {
				if now-p.lastSwitch > 8*p.cfg.BeaconInterval {
					p.switchStreak = 0
				}
				shift := p.switchStreak
				if shift > 5 {
					shift = 5
				}
				p.cooldownUntil = now + float64(uint(2)<<uint(shift))*p.cfg.BeaconInterval
				p.switchStreak++
				p.lastSwitch = now
			}
		}
	}
	p.parent = best.ID
	p.hasParent = true
	p.cost = bestCand
	p.hop = min(best.Hop+1, p.cfg.MaxHops)
	p.rootPath = append(append(p.rootPath[:0], best.RootPath...), p.node.ID)
}

// beaconFrame bundles one beacon's packet and payload in a single pooled
// allocation. It implements packet.Owner: the medium frees it once the
// frame has fully left the air, after which the struct is safe to
// overwrite — receivers keep only the payload's NbrDists/RootPath slices,
// which are allocated fresh per beacon exactly so that neighbour rows can
// alias them independently of the frame's life.
type beaconFrame struct {
	p   *Protocol
	pkt packet.Packet
	bp  BeaconPayload
}

// FreePacket implements packet.Owner.
func (f *beaconFrame) FreePacket(*packet.Packet) {
	f.p.bcnFree = append(f.p.bcnFree, f)
}

// takeBeaconFrame returns a recycled beacon frame, or a fresh one.
func (p *Protocol) takeBeaconFrame() *beaconFrame {
	if n := len(p.bcnFree); n > 0 {
		f := p.bcnFree[n-1]
		p.bcnFree[n-1] = nil
		p.bcnFree = p.bcnFree[:n-1]
		return f
	}
	return &beaconFrame{p: p}
}

// sendBeacon broadcasts this node's state at full power (beacons double as
// neighbour discovery, so they must reach everything in radio range).
func (p *Protocol) sendBeacon() {
	f := p.takeBeaconFrame()
	var nbrD []float64
	if p.cfg.Variant.NeedsNeighborDists() {
		nbrD = p.appendNbrDists(make([]float64, 0, len(p.nbrIDs)))
	}
	// Copy the root path: the payload outlives this round (frames are
	// in flight while the local slice keeps mutating) and receiving rows
	// alias it beyond that. Under the paper's hop-cap guard beacons
	// carry no path (and are cheaper).
	var path []packet.NodeID
	if p.cfg.LoopGuard == LoopGuardPathVector {
		path = make([]packet.NodeID, len(p.rootPath))
		copy(path, p.rootPath)
	}
	f.bp = BeaconPayload{
		Cost:       p.cost,
		Hop:        p.hop,
		Parent:     p.parentOrBroadcast(),
		Root:       p.node.Source,
		Member:     p.node.Member,
		Downstream: p.downstream,
		Range:      p.curRange,
		Range2:     p.curRange2,
		Children:   p.childCount(),
		NbrDists:   nbrD,
		RootPath:   path,
	}
	f.pkt = packet.Packet{
		Kind:    packet.KindBeacon,
		From:    p.node.ID,
		To:      packet.Broadcast,
		Src:     p.node.ID,
		Bytes:   beaconBytes(len(nbrD), len(path)),
		Payload: &f.bp,
		Owner:   f,
	}
	p.node.Broadcast(&f.pkt, p.metric.Model.MaxRange)
}

func (p *Protocol) parentOrBroadcast() packet.NodeID {
	if p.hasParent {
		return p.parent
	}
	return packet.Broadcast
}

func (p *Protocol) childCount() int { return p.deriveChildren().count }

// Receive implements netsim.Protocol.
func (p *Protocol) Receive(pkt *packet.Packet, info medium.RxInfo) {
	switch pkt.Kind {
	case packet.KindBeacon:
		p.handleBeacon(pkt, info)
	case packet.KindData:
		p.handleData(pkt, info)
	default:
		// Frames from other protocol families (mixed runs in tests).
		p.node.DiscardRx(info)
	}
}

func (p *Protocol) handleBeacon(pkt *packet.Packet, info medium.RxInfo) {
	bp := pkt.Payload.(*BeaconPayload)
	i := slices.Index(p.nbrIDs, pkt.From)
	ok := i >= 0
	if !ok {
		i = len(p.nbrs)
		p.nbrs = append(p.nbrs, Neighbor{ID: pkt.From})
		p.nbrIDs = append(p.nbrIDs, pkt.From)
	}
	e := &p.nbrs[i]
	// Only beacons that touch a child relationship (the sender was or
	// becomes a downstream child of this node) can change the child
	// aggregate; the overwhelming majority of beacons are from
	// non-children and leave the cache valid.
	if (ok && e.Parent == p.node.ID && e.Downstream) ||
		(bp.Parent == p.node.ID && bp.Downstream) {
		p.childCacheOK = false
	}
	e.Last = info.At
	e.Dist = info.Dist
	e.Cost = bp.Cost
	e.Hop = bp.Hop
	e.Parent = bp.Parent
	e.Root = bp.Root
	e.Member = bp.Member
	e.Downstream = bp.Downstream
	e.Range = bp.Range
	e.Range2 = bp.Range2
	e.Children = bp.Children
	// Aliasing is safe: the slices are allocated fresh for every beacon
	// (they are the only per-beacon allocations left) precisely so rows
	// can share them; only the pooled packet+payload struct is recycled,
	// and the row never references that.
	e.NbrDists = bp.NbrDists
	e.RootPath = bp.RootPath
}

func (p *Protocol) handleData(pkt *packet.Packet, info medium.RxInfo) {
	if p.node.Source {
		p.node.DiscardRx(info) // echo of our own stream via a child
		return
	}
	consumed := false

	// Members consume the first copy they hear, whoever transmitted it —
	// promiscuous multicast reception, as a real group-subscribed radio
	// behaves.
	if p.node.Member {
		if !p.seenApp.TestAndSet(pkt.Src, pkt.Seq) {
			p.node.ConsumeData(pkt, info.At)
			consumed = true
		}
	}

	// Forwarding stays tree-restricted: only the first copy arriving from
	// the current parent (or, briefly after a switch, the previous
	// parent — make-before-break) propagates downstream.
	fromTree := p.hasParent && info.From == p.parent
	if !fromTree && info.From == p.prevParent && info.At < p.graceUntil {
		fromTree = true
	}
	if fromTree {
		if !p.seenFwd.TestAndSet(pkt.Src, pkt.Seq) {
			p.forward(pkt)
			consumed = true
		}
	}

	if !consumed {
		// Pure overhearing: the discard energy SS-SPST-E's metric
		// minimizes.
		p.node.DiscardRx(info)
	}
}

// dataFrame is a pooled data packet — an origination or a forwarded copy.
// It implements packet.Owner; the medium frees it once the frame has
// fully left the air, and no receiver retains data packets (members
// consume fields, forwarders copy into their own frames).
type dataFrame struct {
	p   *Protocol
	pkt packet.Packet
}

// FreePacket implements packet.Owner.
func (f *dataFrame) FreePacket(*packet.Packet) {
	f.p.datFree = append(f.p.datFree, f)
}

// takeDataFrame returns a recycled data frame, or a fresh one.
func (p *Protocol) takeDataFrame() *dataFrame {
	if n := len(p.datFree); n > 0 {
		f := p.datFree[n-1]
		p.datFree[n-1] = nil
		p.datFree = p.datFree[:n-1]
		return f
	}
	return &dataFrame{p: p}
}

// fwdAction is a pooled forward-jitter callback; it recycles itself when
// it fires.
type fwdAction struct {
	p   *Protocol
	pkt *packet.Packet
}

// Fire implements sim.Action: re-check the child set at fire time
// (children may have expired during the jitter) and transmit.
func (a *fwdAction) Fire() {
	p, pkt := a.p, a.pkt
	a.p, a.pkt = nil, nil
	p.fwdFree = append(p.fwdFree, a)
	if r2 := p.forwardRange(); r2 > 0 {
		p.node.Broadcast(pkt, r2)
		return
	}
	// Never transmitted: the medium will not free the frame, so recycle
	// it directly.
	if o := pkt.Owner; o != nil {
		o.FreePacket(pkt)
	}
}

// takeFwdAction returns a recycled forward action, or a fresh one.
func (p *Protocol) takeFwdAction() *fwdAction {
	if n := len(p.fwdFree); n > 0 {
		a := p.fwdFree[n-1]
		p.fwdFree[n-1] = nil
		p.fwdFree = p.fwdFree[:n-1]
		return a
	}
	return &fwdAction{}
}

// forward re-broadcasts a data packet to this node's downstream children
// (power-controlled to the costliest of them), after a small jitter that
// decorrelates sibling transmissions. Pruned subtrees (no downstream
// members) forward nothing.
func (p *Protocol) forward(pkt *packet.Packet) {
	r := p.forwardRange()
	if r <= 0 {
		return
	}
	f := p.takeDataFrame()
	f.pkt = *pkt
	f.pkt.Owner = f
	f.pkt.From = p.node.ID
	f.pkt.Hops++
	a := p.takeFwdAction()
	a.p, a.pkt = p, &f.pkt
	delay := p.rng.Range(0, p.cfg.ForwardJitterMax)
	p.node.Sim().AfterAction(delay, a)
}

// forwardRange returns the power-controlled transmission range needed to
// reach every downstream child, with the mobility margin applied; 0 when
// the subtree is pruned.
func (p *Protocol) forwardRange() float64 {
	cs := p.deriveChildren()
	if !cs.any {
		return 0
	}
	r := cs.maxDist*p.cfg.RangeMargin + p.cfg.RangeMarginAbs
	if max := p.metric.Model.MaxRange; r > max {
		r = max
	}
	return r
}

// Originate implements netsim.Protocol: the multicast source injects one
// data packet into the tree.
func (p *Protocol) Originate() {
	p.seq++
	r := p.forwardRange()
	if r <= 0 {
		return // no downstream children yet: service unavailable
	}
	f := p.takeDataFrame()
	f.pkt = packet.MakeData(p.node.ID, p.seq, p.node.Now())
	f.pkt.Owner = f
	p.node.Broadcast(&f.pkt, r)
}

// TreeParent implements netsim.TreeStater.
func (p *Protocol) TreeParent() (packet.NodeID, bool) {
	if p.node != nil && p.node.Source {
		return p.node.ID, true
	}
	return p.parent, p.hasParent
}

// Cost returns the node's current tree cost c(v).
func (p *Protocol) Cost() float64 { return p.cost }

// HopCount returns the node's current hop count h(v).
func (p *Protocol) HopCount() int { return p.hop }

// Downstream reports the pruning flag (subtree contains a member).
func (p *Protocol) Downstream() bool { return p.downstream }

// NeighborCount returns the current neighbour-table size.
func (p *Protocol) NeighborCount() int { return len(p.nbrIDs) }

// dropNbr swap-removes row i and its id, and zeroes the vacated tail
// slot so it keeps no NbrDists/RootPath alive.
func (p *Protocol) dropNbr(i int) {
	last := len(p.nbrs) - 1
	p.nbrs[i] = p.nbrs[last]
	p.nbrIDs[i] = p.nbrIDs[last]
	p.nbrs[last] = Neighbor{}
	p.nbrs = p.nbrs[:last]
	p.nbrIDs = p.nbrIDs[:last]
}
