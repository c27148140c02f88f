package netsim

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// goldenPath holds the allocator's reference output: every flow's End and
// every directed link's byte count for the scenarios below, recorded
// with strconv.FormatFloat(x, 'g', -1, 64) by the map-based allocator
// this package used before its rewrite (one max-min pass per injected
// flow). The rewrite must reproduce it exactly.
const goldenPath = "testdata/allocator_golden.txt"

func gfmt(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// goldenSizes returns n deterministic, non-round flow sizes.
func goldenSizes(n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = scale*float64(1+(i*37)%11) + 0.3*float64(i)
	}
	return out
}

// bounce is the walk src -> dst -> src -> dst over the first ECMP paths:
// a valid route that crosses each directed link of the forward path
// twice, which the allocator must count twice.
func bounce(net *topo.Network, src, dst int) topo.Path {
	fwd, back := net.ECMPPaths(src, dst, 1)[0], net.ECMPPaths(dst, src, 1)[0]
	p := topo.Path{NodeIDs: []int{src}}
	for _, leg := range []topo.Path{fwd, back, fwd} {
		p.NodeIDs = append(p.NodeIDs, leg.NodeIDs[1:]...)
		p.LinkIDs = append(p.LinkIDs, leg.LinkIDs...)
	}
	return p
}

// goldenController reroutes party 1's flows onto their last ECMP path,
// bounces every sixth flow of party 2, and lifts every fifth flow to
// weight 7.3.
type goldenController struct{}

func (goldenController) Admit(st *RoundState) []Decision {
	out := make([]Decision, len(st.Pending))
	for i, pf := range st.Pending {
		if pf.Party == 2 && pf.Seed%6 == 0 {
			p := bounce(st.Net, pf.Src, pf.Dst)
			out[i].Path = &p
		}
		if pf.Party == 1 {
			if paths := st.Net.ECMPPaths(pf.Src, pf.Dst, 8); len(paths) > 1 {
				p := paths[len(paths)-1]
				out[i].Path = &p
			}
		}
		if i%5 == 0 {
			out[i].Weight = 7.3
		}
	}
	return out
}

// goldenAdmission runs three rounds of three parties at weights 3, 1
// and 0.5 (some requests overriding to 7.3) through a controller on the
// serving cluster's leaf-spine: multi-bottleneck, mixed-weight rounds.
func goldenAdmission(t *testing.T) []string {
	net := topo.LeafSpine(topo.LeafSpineSpec{
		Leaves: 3, Spines: 2, HostsPerLeaf: 4,
		HostSpeed: topo.Gen10, FabricSpeed: topo.Gen40,
	})
	a := NewAdmission(NewSimulator(net))
	a.SetController(goldenController{})
	weights := []float64{3, 1, 0.5}
	parties := make([]*Party, len(weights))
	for i, w := range weights {
		parties[i] = a.JoinQoS(nil, fmt.Sprintf("c%d", i), w)
	}
	var lines []string
	for round := 0; round < 3; round++ {
		flows := make([][]*Flow, len(parties))
		var wg sync.WaitGroup
		for pi, p := range parties {
			var reqs []FlowReq
			sizes := goldenSizes(12, 1e5*float64(pi+1))
			for k, b := range sizes {
				src := 1 + (k+pi+round)%9
				dst := 1 + (k*5+2*pi+1)%9
				if src == dst {
					dst = 1 + dst%9
				}
				r := FlowReq{Src: src, Dst: dst, Bytes: b}
				if k%4 == 3 {
					r.Weight = 7.3
				}
				reqs = append(reqs, r)
			}
			wg.Add(1)
			go func(pi int, p *Party, reqs []FlowReq) {
				defer wg.Done()
				_, fs, err := p.Submit(reqs)
				if err != nil {
					t.Error(err)
				}
				flows[pi] = fs
			}(pi, p, reqs)
		}
		wg.Wait()
		for _, fs := range flows {
			for _, f := range fs {
				lines = append(lines, fmt.Sprintf("admission flow %d end %s", f.ID, gfmt(float64(f.End))))
			}
		}
	}
	for _, p := range parties {
		p.Leave()
	}
	for d, l := range a.LinkLoads() {
		if l.Bytes != 0 {
			lines = append(lines, fmt.Sprintf("admission link %d bytes %s", d, gfmt(l.Bytes)))
		}
	}
	return append(lines, "admission busy "+gfmt(a.Stats().BusySeconds))
}

// goldenStaggered injects flows at several virtual instants, so passes
// charge bytes in flight and retire flows mid-run, under the given
// fairness model.
func goldenStaggered(name string, net *topo.Network, fair Fairness) []string {
	s := NewSimulator(net)
	s.Fairness = fair
	hosts := net.Hosts()
	var lines []string
	s.OnFlowDone(func(f *Flow) {
		lines = append(lines, fmt.Sprintf("%s flow %d end %s", name, f.ID, gfmt(float64(f.End))))
	})
	for k, b := range goldenSizes(40, 3e5) {
		src := hosts[(k*7)%len(hosts)]
		dst := hosts[(k*3+1)%len(hosts)]
		if src == dst {
			dst = hosts[(k*3+2)%len(hosts)]
		}
		if k%3 == 0 {
			if _, err := s.StartFlow(src, dst, b); err != nil {
				panic(err)
			}
			continue
		}
		s.ScheduleFlow(sim.Time(1e-5*float64(k%7)+3e-7*float64(k)), src, dst, b)
	}
	s.Run()
	for d, l := range s.LinkLoads() {
		if l.Bytes != 0 {
			lines = append(lines, fmt.Sprintf("%s link %d bytes %s", name, d, gfmt(l.Bytes)))
		}
	}
	return append(lines, name+" busy "+gfmt(float64(s.Engine.Now())))
}

func goldenScenario(t *testing.T) string {
	lines := goldenAdmission(t)
	// 2:1 oversubscribed, so spine uplinks and host links both bind.
	leafSpine := func() *topo.Network {
		return topo.LeafSpine(topo.LeafSpineSpec{
			Leaves: 3, Spines: 2, HostsPerLeaf: 4,
			HostSpeed: topo.Gen10, FabricSpeed: topo.Gen10,
		})
	}
	lines = append(lines, goldenStaggered("leafspine-maxmin", leafSpine(), MaxMin)...)
	lines = append(lines, goldenStaggered("leafspine-proportional", leafSpine(), Proportional)...)
	lines = append(lines, goldenStaggered("fattree-maxmin", topo.FatTree(4, topo.Gen10), MaxMin)...)
	return strings.Join(lines, "\n") + "\n"
}

// TestAllocatorGolden: the allocator reproduces the recorded reference
// output bit for bit.
func TestAllocatorGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenScenario(t)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(g), len(w))
}
