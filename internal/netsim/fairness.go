package netsim

// linkScratch is one directed link's allocator state for the current
// pass. The simulator keeps one per directed link and reuses them, so a
// pass allocates nothing once it has seen its largest flow set; flows
// are referred to by index, so nothing here keeps a retired flow alive.
type linkScratch struct {
	count  int32   // active flows crossing the link
	lo, hi int32   // max-min: the link's unfrozen flows are members[lo:hi]
	cap    float64 // max-min: residual capacity
}

// countLinks counts the active flows crossing each directed link and
// lists the links in first-use order: flows in ID order, each flow's
// links in path order.
func (s *Simulator) countLinks() {
	for _, f := range s.flows {
		for _, dl := range f.links {
			s.scratch[dl].count = 0
		}
	}
	s.linkOrder = s.linkOrder[:0]
	for _, f := range s.flows {
		for _, dl := range f.links {
			if s.scratch[dl].count == 0 {
				s.linkOrder = append(s.linkOrder, dl)
			}
			s.scratch[dl].count++
		}
	}
}

// maxMinRates computes progressive-filling weighted max-min fair rates
// for all active flows over directed links. Each link's fair share is
// computed per unit of weight (capacity over the sum of unfrozen flow
// weights), and a flow frozen at a bottleneck receives share × weight —
// so a weight-3 flow gets three times a weight-1 flow's rate on a shared
// bottleneck. With every weight exactly 1 the arithmetic reduces
// bit-identically to the unweighted allocator: the weight sum of n flows
// accumulates to exactly float64(n), and multiplying a share by 1.0 is
// the identity. Link capacities are read live from the topology.
func (s *Simulator) maxMinRates() {
	s.countLinks()
	n := int32(0)
	for _, dl := range s.linkOrder {
		l := &s.scratch[dl]
		l.cap = s.Net.Links[dl/2].Speed.BytesPerSec()
		l.lo, l.hi = n, n
		n += l.count
	}
	if int32(cap(s.members)) < n {
		s.members = make([]int32, n)
	}
	members := s.members[:n]
	for i, f := range s.flows {
		f.rate, f.frozen = 0, false
		for _, dl := range f.links {
			l := &s.scratch[dl]
			members[l.hi] = int32(i)
			l.hi++
		}
	}
	order := s.linkOrder
	for frozen := 0; frozen < len(s.flows); {
		// Find the bottleneck: the link with the smallest per-weight fair
		// share among links that still carry unfrozen flows (ties break
		// toward the earliest-seen link). Frozen flows are compacted out
		// of each link's list, and drained links out of the order, in
		// place and keeping their order, so each weight sum adds the same
		// terms in the same order pass after pass.
		var bottleneck *linkScratch
		bestShare := 0.0
		live := order[:0]
		for _, dl := range order {
			l := &s.scratch[dl]
			sumW := 0.0
			k := l.lo
			for _, fi := range members[l.lo:l.hi] {
				if f := s.flows[fi]; !f.frozen {
					sumW += f.Weight
					members[k] = fi
					k++
				}
			}
			if l.hi = k; k == l.lo {
				continue
			}
			live = append(live, dl)
			if sumW == 0 {
				continue
			}
			if share := l.cap / sumW; bottleneck == nil || share < bestShare {
				bottleneck, bestShare = l, share
			}
		}
		order = live
		if bottleneck == nil {
			// Remaining flows traverse no capacity-constrained links
			// (shouldn't happen on real topologies); give them a huge rate.
			for _, f := range s.flows {
				if !f.frozen {
					f.rate, f.frozen = 1e18, true
				}
			}
			return
		}
		// Freeze every unfrozen flow crossing the bottleneck at its
		// weighted share, then charge that rate against every link those
		// flows use.
		for _, fi := range members[bottleneck.lo:bottleneck.hi] {
			f := s.flows[fi]
			if f.frozen {
				continue
			}
			f.rate, f.frozen = bestShare*f.Weight, true
			frozen++
			for _, dl := range f.links {
				l := &s.scratch[dl]
				l.cap = max(l.cap-f.rate, 0)
			}
		}
	}
}

// proportionalRates is the single-pass ablation baseline: each flow's rate
// is the minimum over its path of capacity divided by the number of flows
// sharing that directed link. It never overbooks a link but can leave
// capacity stranded relative to max-min.
func (s *Simulator) proportionalRates() {
	s.countLinks()
	for _, f := range s.flows {
		rate := -1.0
		for _, dl := range f.links {
			share := s.Net.Links[dl/2].Speed.BytesPerSec() / float64(s.scratch[dl].count)
			if rate < 0 || share < rate {
				rate = share
			}
		}
		if rate < 0 {
			rate = 1e18
		}
		f.rate = rate
	}
}
