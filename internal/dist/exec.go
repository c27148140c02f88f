package dist

import (
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/relational"
)

// fragAbort is the cross-shard abort flag of one fragment run: the first
// failing shard records its error, and every other shard observes the
// flag at its next batch boundary through the abortable wrapper instead
// of draining its full input.
type fragAbort struct {
	tripped atomic.Bool
	mu      sync.Mutex
	err     error
}

func (a *fragAbort) abort(err error) {
	if err == nil {
		return
	}
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.tripped.Store(true)
}

// Err returns the first recorded error.
func (a *fragAbort) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// abortable surfaces a sibling shard's failure into this shard's stream
// at the next batch boundary. It partitions like its child, so the
// check also reaches every intra-shard Exchange worker.
type abortable struct {
	child relational.BatchOp
	flag  *fragAbort
}

// Schema implements relational.BatchOp.
func (a *abortable) Schema() relational.Schema { return a.child.Schema() }

// NextBatch implements relational.BatchOp.
func (a *abortable) NextBatch() (*relational.Batch, error) {
	if a.flag.tripped.Load() {
		return nil, a.flag.Err()
	}
	return a.child.NextBatch()
}

// Stats implements relational.BatchOp.
func (a *abortable) Stats() relational.OpStats { return a.child.Stats() }

// Partition implements relational.Partitioner.
func (a *abortable) Partition(n int, static bool) []relational.BatchOp {
	p, ok := a.child.(relational.Partitioner)
	if !ok {
		return nil
	}
	parts := p.Partition(n, static)
	out := make([]relational.BatchOp, len(parts))
	for i, cp := range parts {
		out[i] = &abortable{child: cp, flag: a.flag}
	}
	return out
}

// RunFragments executes one shard-local operator tree per worker
// concurrently — each shard is its own simulated host — and materializes
// each stream into a relation. workers caps intra-shard morsel
// parallelism (the per-host core count; 0 = NumCPU). The shards share an
// abort flag: one failing shard stops its siblings at their next batch
// boundary.
func RunFragments(name string, frags []relational.BatchOp, workers int) ([]*relational.Relation, error) {
	outs := make([]*relational.Relation, len(frags))
	errs := make([]error, len(frags))
	flag := &fragAbort{}
	var wg sync.WaitGroup
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f relational.BatchOp) {
			defer wg.Done()
			op := relational.RowsOf(relational.NewExchange(&abortable{child: f, flag: flag}, workers))
			outs[i], errs[i] = relational.Collect(op, name)
			flag.abort(errs[i])
		}(i, f)
	}
	wg.Wait()
	if err := flag.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// RunPartialAggs drains one shard-local fragment per worker concurrently
// into a private PartialAgg, tagging each group's first appearance with
// the stream's seqCol so the coordinator can merge partials into the
// exact single-node first-seen order. As in RunFragments, the shards
// share an abort flag so one failure stops the others early. disp, when
// non-nil, routes shard i's per-batch partial updates through disp[i] —
// each simulated worker host placing its aggregation morsels on its own
// device set (nil slice or entries keep the homogeneous engine).
// budgets, when non-nil, charges shard i's group state against
// budgets[i] — each simulated host accounting its own memory — and
// spills overflowing generations to the budget's tier (nil slice or
// entries keep the unbudgeted engine, bit-identically).
func RunPartialAggs(frags []relational.BatchOp, groupCols []int, aggs []relational.AggSpec, seqCol, workers int, disp []*exec.Dispatcher, budgets []*relational.MemoryBudget) ([]*relational.PartialAgg, error) {
	out := make([]*relational.PartialAgg, len(frags))
	errs := make([]error, len(frags))
	flag := &fragAbort{}
	var wg sync.WaitGroup
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f relational.BatchOp) {
			defer wg.Done()
			var di *exec.Dispatcher
			if i < len(disp) {
				di = disp[i]
			}
			var bg *relational.MemoryBudget
			if i < len(budgets) {
				bg = budgets[i]
			}
			sa := relational.NewSpillableAgg(groupCols, aggs, bg, nil)
			op := relational.NewExchange(&abortable{child: f, flag: flag}, workers)
			// The Exchange must be drained to end-of-stream even after an
			// observation error, or its workers stay blocked on their
			// bounded channels; tripping the flag first makes the drain
			// terminate at the next batch boundary.
			drain := func() {
				for {
					if b, err := op.NextBatch(); b == nil || err != nil {
						return
					}
				}
			}
			for {
				b, err := op.NextBatch()
				if err != nil {
					errs[i] = err
					flag.abort(err)
					return
				}
				if b == nil {
					out[i] = sa.Finish()
					return
				}
				if err := di.Run(b.Len(), func() error { return sa.ObserveBatch(b, seqCol) }); err != nil {
					errs[i] = err
					flag.abort(err)
					drain()
					return
				}
			}
		}(i, f)
	}
	wg.Wait()
	if err := flag.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
