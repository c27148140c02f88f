package netsim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/topo"
)

// randomController overrides the paths of odd-numbered parties' flows
// (another ECMP path, or a bounce walk) and now and then their weights.
type randomController struct{ rng *rand.Rand }

func (c randomController) Admit(st *RoundState) []Decision {
	out := make([]Decision, len(st.Pending))
	for i, pf := range st.Pending {
		if pf.Party%2 == 1 {
			var p topo.Path
			if c.rng.IntN(5) == 0 {
				p = bounce(st.Net, pf.Src, pf.Dst)
			} else {
				paths := st.Net.ECMPPaths(pf.Src, pf.Dst, 8)
				p = paths[c.rng.IntN(len(paths))]
			}
			out[i].Path = &p
		}
		if c.rng.IntN(4) == 0 {
			out[i].Weight = diffWeights[c.rng.IntN(len(diffWeights))]
		}
	}
	return out
}

var diffWeights = []float64{0.5, 1, 3, 7.3}

// TestBatchedRoundMatchesPerFlow: an admission round, which injects all
// of its flows and then allocates once, reproduces injecting the same
// flows (same paths, weights and IDs) one at a time at t=0 with an
// allocator pass after each, the per-flow path StartFlow takes. Every
// End, every link byte count and the busy time match exactly.
func TestBatchedRoundMatchesPerFlow(t *testing.T) {
	nets := map[string]func() *topo.Network{
		"leafspine": func() *topo.Network {
			return topo.LeafSpine(topo.LeafSpineSpec{
				Leaves: 3, Spines: 2, HostsPerLeaf: 4,
				HostSpeed: topo.Gen10, FabricSpeed: topo.Gen10,
			})
		},
		"fattree": func() *topo.Network { return topo.FatTree(4, topo.Gen10) },
	}
	for name, mk := range nets {
		for _, fair := range []Fairness{MaxMin, Proportional} {
			for seed := uint64(0); seed < 6; seed++ {
				t.Run(fmt.Sprintf("%s/%d/%d", name, fair, seed), func(t *testing.T) {
					diffRounds(t, mk, fair, seed)
				})
			}
		}
	}
}

func diffRounds(t *testing.T, mk func() *topo.Network, fair Fairness, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 99))
	batched, oracle := NewSimulator(mk()), NewSimulator(mk())
	batched.Fairness, oracle.Fairness = fair, fair
	a := NewAdmission(batched)
	if seed%2 == 1 {
		a.SetController(randomController{rand.New(rand.NewPCG(seed, 7))})
	}
	hosts := batched.Net.Hosts()
	busy := 0.0
	for round := 0; round < 4; round++ {
		parties := make([]*Party, 1+rng.IntN(4))
		reqs := make([][]FlowReq, len(parties))
		for i := range parties {
			w := 0.0
			if rng.IntN(3) > 0 {
				w = diffWeights[rng.IntN(len(diffWeights))]
			}
			parties[i] = a.JoinQoS(nil, "", w)
			for k := 1 + rng.IntN(30); k > 0; k-- {
				r := FlowReq{Src: hosts[rng.IntN(len(hosts))], Dst: hosts[rng.IntN(len(hosts))], Bytes: 1e3 + rng.Float64()*1e6}
				for r.Dst == r.Src {
					r.Dst = hosts[rng.IntN(len(hosts))]
				}
				if rng.IntN(4) == 0 {
					r.Weight = diffWeights[rng.IntN(len(diffWeights))]
				}
				reqs[i] = append(reqs[i], r)
			}
		}
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			flows []*Flow
		)
		for i, p := range parties {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, fs, err := p.Submit(reqs[i])
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				flows = append(flows, fs...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		for _, p := range parties {
			p.Leave()
		}
		if st := a.Stats(); st.Rounds != round+1 {
			t.Fatalf("round %d ran as %d rounds", round, st.Rounds)
		}
		slices.SortFunc(flows, func(x, y *Flow) int { return x.ID - y.ID })

		oracle.ResetClock()
		want := make([]*Flow, len(flows))
		for i, f := range flows {
			want[i] = oracle.inject(f.Src, f.Dst, f.Bytes, f.Path, f.Weight, f.Class)
			oracle.reallocate()
		}
		oracle.Run()
		busy += float64(oracle.Engine.Now())

		for i, f := range flows {
			if f.ID != want[i].ID || f.End != want[i].End {
				t.Fatalf("round %d flow %d: batched End %v, per-flow flow %d End %v", round, f.ID, f.End, want[i].ID, want[i].End)
			}
		}
		got, exp := a.LinkLoads(), oracle.LinkLoads()
		for d := range got {
			if got[d].Bytes != exp[d].Bytes {
				t.Fatalf("round %d link %d: batched %v bytes, per-flow %v", round, d, got[d].Bytes, exp[d].Bytes)
			}
		}
		if st := a.Stats(); st.BusySeconds != busy {
			t.Fatalf("round %d: batched busy %v, per-flow %v", round, st.BusySeconds, busy)
		}
	}
}

// roundFlows is serve_shuffle's admission round: a repartition join on
// eight shard hosts of the serving cluster's leaf-spine, both inputs
// shuffled all-to-all, so 112 flows per party.
func roundFlows() (*topo.Network, []FlowReq) {
	net := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 3, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	var reqs []FlowReq
	for side := 0; side < 2; side++ {
		for src := 1; src <= 8; src++ {
			for dst := 1; dst <= 8; dst++ {
				if src != dst {
					reqs = append(reqs, FlowReq{Src: src, Dst: dst, Bytes: float64(1500 + 97*src + 31*dst + 400*side)})
				}
			}
		}
	}
	return net, reqs
}

// BenchmarkAdmissionRound runs serve_shuffle-shaped rounds: two parties
// at weights 3 and 1, 224 flows in all.
func BenchmarkAdmissionRound(b *testing.B) {
	net, reqs := roundFlows()
	a := NewAdmission(NewSimulator(net))
	gold, bronze := a.JoinQoS(nil, "gold", 3), a.JoinQoS(nil, "bronze", 1)
	b.ReportAllocs()
	for b.Loop() {
		var wg sync.WaitGroup
		for _, p := range []*Party{gold, bronze} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := p.Submit(reqs); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestReallocateAllocsFlat: an allocator pass over an established flow
// set allocates the same amount at 16 flows as at 224; only the
// completion event it schedules allocates.
func TestReallocateAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		net, reqs := roundFlows()
		s := NewSimulator(net)
		for i := 0; i < n; i++ {
			r := reqs[i%len(reqs)]
			path, _ := net.PickECMP(r.Src, r.Dst, i, s.ECMPWidth)
			s.inject(r.Src, r.Dst, r.Bytes, path, diffWeights[i%len(diffWeights)], "")
		}
		return testing.AllocsPerRun(20, s.reallocate)
	}
	small, large := allocs(16), allocs(224)
	if small != large {
		t.Fatalf("reallocate allocates %v times at 16 flows but %v at 224", small, large)
	}
}
