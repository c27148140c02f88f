package dist

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFabricSharedContention: two QueryRuns on one fabric share rounds;
// each sees strictly more network time than an identical isolated run,
// and the fabric aggregate reports the coexistence.
func TestFabricSharedContention(t *testing.T) {
	// Two 2-phase queries whose phases are anti-aligned: in round 1 each
	// query moves worker-to-worker on disjoint links; in round 2 both
	// gather to the coordinator and share its downlink. The overlap keeps
	// links busy through windows they would idle through in isolation, so
	// the aggregate utilization rises while each query's own time
	// stretches.
	phases := [2][2][]Transfer{
		{{{Src: 0, Dst: 1, Bytes: 8e6}}, {{Src: 2, Dst: Coordinator, Bytes: 8e6}}},
		{{{Src: 2, Dst: 3, Bytes: 8e6}}, {{Src: 0, Dst: Coordinator, Bytes: 8e6}}},
	}

	solo := func(q int) *QueryStats {
		c, err := NewCluster("single", 4)
		if err != nil {
			t.Fatal(err)
		}
		qr := NewFabric(c).NewQuery()
		for pi, ts := range phases[q] {
			if _, err := qr.RunPhase([]string{"move", "gather"}[pi], oneChunk(ts...), "", 0, false, nil); err != nil {
				t.Fatal(err)
			}
		}
		return qr.Finish()
	}
	solos := []*QueryStats{solo(0), solo(1)}
	for q, s := range solos {
		if s.NetSeconds <= 0 || s.MaxLinkUtil <= 0 || s.MaxLinkUtil > 1+1e-9 {
			t.Fatalf("solo %d stats out of range: %+v", q, s)
		}
	}

	c, err := NewCluster("single", 4)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(c)
	f.Expect(2)
	stats := make([]*QueryStats, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr := f.NewQuery()
			defer qr.Close()
			for pi, ts := range phases[i] {
				if _, err := qr.RunPhase([]string{"move", "gather"}[pi], oneChunk(ts...), "", 0, false, nil); err != nil {
					t.Error(err)
					return
				}
			}
			stats[i] = qr.Finish()
		}(i)
	}
	wg.Wait()
	for i, s := range stats {
		if s == nil {
			t.Fatal("missing stats")
		}
		if s.NetSeconds <= solos[i].NetSeconds {
			t.Fatalf("query %d: contended %.6fs must exceed solo %.6fs", i, s.NetSeconds, solos[i].NetSeconds)
		}
		// Per-query utilization attributes only the query's own bytes over
		// its own (stretched) window, so it stays within [0, 1].
		if s.MaxLinkUtil <= 0 || s.MaxLinkUtil > 1+1e-9 {
			t.Fatalf("query %d: per-query util out of range: %v", i, s.MaxLinkUtil)
		}
	}
	fs := f.Stats()
	if fs.PeakQueries != 2 || fs.Rounds != 2 || fs.PeakFlows != 2 {
		t.Fatalf("fabric aggregate missed the coexistence: %+v", fs)
	}
	if fs.MaxLinkUtil <= solos[0].MaxLinkUtil || fs.MaxLinkUtil <= solos[1].MaxLinkUtil {
		t.Fatalf("aggregate util %.4f must exceed solo %.4f / %.4f",
			fs.MaxLinkUtil, solos[0].MaxLinkUtil, solos[1].MaxLinkUtil)
	}
	if !strings.Contains(fs.Summary(), "peak 2 concurrent queries") {
		t.Fatalf("summary: %s", fs.Summary())
	}
}

// TestQueryRunCloseIdempotent: Close on every path (and after Finish)
// must be safe, and an abandoned-then-closed query must not wedge the
// fabric for followers.
func TestQueryRunCloseIdempotent(t *testing.T) {
	c, err := NewCluster("single", 2)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(c)
	q1 := f.NewQuery()
	q1.Close()
	q1.Close()
	q1.Finish()
	q2 := f.NewQuery()
	if _, err := q2.RunPhase("move", oneChunk(Transfer{Src: 0, Dst: 1, Bytes: 1e6}), "", 0, false, nil); err != nil {
		t.Fatal(err)
	}
	if s := q2.Finish(); s.NetSeconds <= 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestSlotWithdrawOnce: regression for the double-withdraw over-release.
// A workload whose error handling has two release sites (an error path
// plus a cancellation hook) used to call Fabric.Withdraw twice for one
// failure, dropping the barrier floor by 2 — a round could then run
// before a genuinely expected query arrived. A Slot releases exactly
// once no matter how many paths fire: after Expect(3) and one failed
// party double-withdrawing through its Slot, a single live party must
// still park at the barrier until the second arrives.
func TestSlotWithdrawOnce(t *testing.T) {
	c, err := NewCluster("single", 4)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(c)
	f.Expect(3)

	// The failed party's cleanup fires from two goroutines at once.
	slot := f.Claim()
	var cleanup sync.WaitGroup
	for i := 0; i < 2; i++ {
		cleanup.Add(1)
		go func() {
			defer cleanup.Done()
			slot.Withdraw()
		}()
	}
	cleanup.Wait()
	var nilSlot *Slot
	nilSlot.Withdraw() // nil handle: no-op, not a panic

	// Party A alone must wait: the floor is 2, not 1.
	var aDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qr := f.NewQuery()
		defer qr.Close()
		if _, err := qr.RunPhase("move", oneChunk(Transfer{Src: 0, Dst: 1, Bytes: 1e6}), "", 0, false, nil); err != nil {
			t.Error(err)
		}
		qr.Finish()
		aDone.Store(true)
	}()
	time.Sleep(50 * time.Millisecond)
	if aDone.Load() {
		t.Fatal("single party ran a round: the double Withdraw over-released the barrier floor")
	}

	// Party B joins; the round runs and both complete.
	qr := f.NewQuery()
	defer qr.Close()
	if _, err := qr.RunPhase("move", oneChunk(Transfer{Src: 2, Dst: 3, Bytes: 1e6}), "", 0, false, nil); err != nil {
		t.Fatal(err)
	}
	qr.Finish()
	wg.Wait()
	if !aDone.Load() {
		t.Fatal("party A never completed")
	}
}
