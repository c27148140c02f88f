package sql

// The distributed lowering path: queries plan as per-shard batch
// fragments over the sharded catalog, with filters and projections pushed
// below every shuffle; joins choose broadcast or hash-repartition
// movement by a cost rule priced against the fabric's path capacity;
// aggregates split into per-shard partials merged at the coordinator in
// global first-seen order. Every inter-host movement — build-side
// broadcasts, repartition shuffles, the final gather — is charged as
// flows in the network simulator, so a distributed plan reports rows AND
// simulated network time, bytes shuffled and per-link utilization.
//
// Determinism: every shard-local stream carries the hidden #seq column
// (the row's index in the original relation, or the probe-side lineage
// after joins) and stays seq-ascending through every operator, so the
// coordinator's k-way merge — and the partial-agg first-seen merge —
// reproduce the single-node engine's output row-for-row.

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/relational"
)

// distRoot is the lazy root of a distributed plan: the whole distributed
// execution (fragments, shuffles, gather, coordinator finalization) runs
// on first Next, then the result streams row-at-a-time.
type distRoot struct {
	schema relational.Schema
	run    func() (*relational.Relation, *dist.QueryStats, error)

	started bool
	rel     *relational.Relation
	stats   *dist.QueryStats
	err     error
	pos     int
	stat    relational.OpStats
}

// Schema implements relational.Op.
func (d *distRoot) Schema() relational.Schema { return d.schema }

// Next implements relational.Op.
func (d *distRoot) Next() (relational.Row, bool, error) {
	if !d.started {
		d.started = true
		d.rel, d.stats, d.err = d.run()
	}
	if d.err != nil {
		return nil, false, d.err
	}
	if d.pos >= len(d.rel.Rows) {
		return nil, false, nil
	}
	r := d.rel.Rows[d.pos]
	d.pos++
	d.stat.RowsOut++
	return r, true, nil
}

// Stats implements relational.Op.
func (d *distRoot) Stats() relational.OpStats { return d.stat }

// seqColumn is the schema entry of the hidden sequence column.
func seqColumn() relational.Column {
	return relational.Column{Name: dist.SeqColName, Type: relational.Int}
}

// withSeq appends the hidden sequence column to a visible schema.
func withSeq(schema relational.Schema) relational.Schema {
	return append(append(relational.Schema{}, schema...), seqColumn())
}

// decorFn is one pending shard-local operator: it wraps the shard's
// current stream (whose schema is the visible columns plus trailing
// #seq). The shard index lets join decorators bind shard-specific build
// sides.
type decorFn func(shard int, op relational.BatchOp) (relational.BatchOp, error)

// distStream is the runtime state of the partitioned intermediate: the
// materialized per-shard relations plus pending decorators applied when
// the next stage builds its fragments. Every base relation and every
// decorated stream is #seq-ascending.
type distStream struct {
	base   []*relational.Relation
	decor  []decorFn
	schema relational.Schema // visible columns (excludes #seq)
	// cancel, when set, guards every built fragment so external
	// cancellation reaches each shard worker at its next batch boundary.
	cancel *relational.CancelToken
	// joined marks a stream that passed through a join: fan-out
	// duplicates its seq tags, so the stream must be re-sequenced before
	// it moves between shards again.
	joined bool
	// dx links back to the execution context so materialize can route
	// fragment rounds through the lifecycle guard (straggler speculation,
	// replica-aware dispatch) when one is active.
	dx *distExec
}

func (st *distStream) fragment(s int) (relational.BatchOp, error) {
	var op relational.BatchOp = relational.NewBatchScan(st.base[s])
	for _, d := range st.decor {
		var err error
		op, err = d(s, op)
		if err != nil {
			return nil, err
		}
	}
	return relational.GuardBatch(op, st.cancel), nil
}

func (st *distStream) fragments() ([]relational.BatchOp, error) {
	out := make([]relational.BatchOp, len(st.base))
	for s := range st.base {
		var err error
		if out[s], err = st.fragment(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// materialize runs the pending decorators on every shard (in parallel,
// one simulated host each) and replaces the base relations. With an
// active lifecycle guard the round runs through it: a straggling shard
// gets a speculative duplicate (the guard rebuilds the fragment via
// st.fragment), and fragments follow live replicas.
func (st *distStream) materialize(workers int) error {
	if len(st.decor) == 0 {
		return nil
	}
	var rels []*relational.Relation
	var err error
	if st.dx != nil && st.dx.guard != nil {
		rels, err = st.dx.guard.RunFragments("frag", len(st.base), workers, st.fragment)
	} else {
		var frags []relational.BatchOp
		if frags, err = st.fragments(); err != nil {
			return err
		}
		rels, err = dist.RunFragments("frag", frags, workers)
	}
	if err != nil {
		return err
	}
	st.base, st.decor = rels, nil
	return nil
}

// reseq replaces the stream's seq tags with their global merge rank,
// restoring uniqueness after join fan-out duplicated them (duplicates
// are confined to one shard, so the k-way merge is still the exact
// serial order). It relabels tags in place without moving row data —
// the real-system analogue is a counts-only prefix exchange — so no
// flow is charged.
func (st *distStream) reseq(workers int) error {
	if err := st.materialize(workers); err != nil {
		return err
	}
	seqCol := len(st.schema)
	var rank int64
	dist.NewSeqMerger(st.base, seqCol).Take(math.MaxInt, func(shard, row int) {
		st.base[shard].Rows[row][seqCol] = relational.IntV(rank)
		rank++
	})
	for _, rel := range st.base {
		rel.InvalidateColumnar()
	}
	st.joined = false
	return nil
}

// bytes returns the per-shard serialized sizes of the materialized base.
func (st *distStream) bytes() []float64 {
	out := make([]float64, len(st.base))
	for i, r := range st.base {
		out[i] = r.EncodedBytes()
	}
	return out
}

// pickDecor projects every shard stream to the given child columns.
func pickDecor(schema relational.Schema, picks []int) decorFn {
	return func(_ int, op relational.BatchOp) (relational.BatchOp, error) {
		return pickProject(op, schema, picks)
	}
}

func pickProject(op relational.BatchOp, schema relational.Schema, picks []int) (relational.BatchOp, error) {
	pe := make([]relational.ProjExpr, len(picks))
	for i, idx := range picks {
		pe[i] = relational.Pick(idx)
	}
	return relational.NewBatchProject(op, schema, pe)
}

// filterDecor applies kernel ranges plus a residual predicate. disps,
// when non-nil, routes shard s's filter morsels through disps[s] — the
// per-worker-host device dispatcher.
func filterDecor(ranges []relational.ColRange, pred relational.Predicate, disps []*exec.Dispatcher) decorFn {
	return func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		bf := relational.NewBatchFilter(op, ranges, pred)
		if s < len(disps) && disps[s] != nil {
			bf.Place(disps[s])
		}
		return bf, nil
	}
}

// exprProjDecor projects to schema (which already carries the trailing
// #seq column): exprs/picks produce the visible columns, and the child's
// seq column (at childSeqIdx) passes through last. disps, when non-nil,
// places each shard's computed-expression morsels on its own devices
// (pure pass-through projections are never placed).
func exprProjDecor(schema relational.Schema, exprs []relational.Projector, picks []int, childSeqIdx int, disps []*exec.Dispatcher) decorFn {
	return func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		pe := make([]relational.ProjExpr, 0, len(schema))
		for i := range exprs {
			if picks != nil && picks[i] >= 0 {
				pe = append(pe, relational.Pick(picks[i]))
			} else {
				pe = append(pe, relational.Expr(exprs[i]))
			}
		}
		pe = append(pe, relational.Pick(childSeqIdx))
		bp, err := relational.NewBatchProject(op, schema, pe)
		if err != nil {
			return nil, err
		}
		if s < len(disps) && disps[s] != nil && bp.ExprCount() > 0 {
			bp.Place(disps[s])
		}
		return bp, nil
	}
}

// limitDecor caps each shard's stream at n rows. Correct below a gather:
// the merged global prefix of length n draws at most the first n rows of
// any one shard stream.
func limitDecor(n int) decorFn {
	return func(_ int, op relational.BatchOp) (relational.BatchOp, error) {
		return relational.NewBatchLimit(op, n), nil
	}
}

// distLegPlan is one table leg's compiled shard-local fragment: prune
// picks, then the pushed-down filter.
type distLegPlan struct {
	table  *dist.ShardedTable
	prune  []int // original column indexes kept
	schema relational.Schema
	ranges []relational.ColRange
	pred   relational.Predicate
	// shardRows is the expected per-shard input cardinality, the setup
	// amortization hint for this leg's placed kernels.
	shardRows int
}

// stream builds the leg's distStream over its table shards.
func (lp *distLegPlan) stream(dx *distExec) *distStream {
	st := &distStream{base: lp.table.Shards, schema: lp.schema, cancel: dx.cancel, dx: dx}
	picks := append(append([]int{}, lp.prune...), lp.table.SeqCol())
	st.decor = append(st.decor, pickDecor(withSeq(lp.schema), picks))
	if lp.ranges != nil || lp.pred != nil {
		st.decor = append(st.decor, filterDecor(lp.ranges, lp.pred,
			dx.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: lp.shardRows})))
	}
	return st
}

// distJoinPlan is one compiled join stage. swapped mirrors the
// single-node build-side choice exactly, so the probe side — and with it
// the output row order — matches the single-node engine.
type distJoinPlan struct {
	rightIdx          int
	leftCol, rightCol int
	swapped           bool
	rightSchema       relational.Schema
	residualRanges    []relational.ColRange
	residualPred      relational.Predicate
}

// distExec carries the runtime context of one distributed execution:
// the placement, the engine's shared fabric the run registers with, the
// cancellation token guarding fragments and phase waits, and the
// session's QoS identity stamped onto every flow the run charges.
type distExec struct {
	cluster  *dist.Cluster
	fabric   *dist.Fabric
	cancel   *relational.CancelToken
	workers  int
	distJoin string // "", "auto", "broadcast", "repartition"
	class    string
	weight   float64
	// chunkRows is the movement chunk size. Every broadcast, shuffle and
	// gather is a list of dist.Chunks plus a consumer that digests each
	// landed chunk (incremental hash builds, partial-agg folds, streaming
	// seq merge). ≤ 0 is the bulk engine: one covering chunk per phase,
	// admitted at the barrier. > 0 pipelines: chunks of at most chunkRows
	// rows (groups, for partial aggregates) admitted as eager sub-rounds
	// while the consumer digests the previous one.
	chunkRows int
	// place holds one device placer per shard (nil on the homogeneous
	// engine): forks of the query placer, so every simulated worker
	// host decides morsel placement independently on its own device
	// state while charging one query-level aggregate. shardRowHint is
	// the planner's post-join per-shard cardinality estimate, the setup
	// amortization hint for kernels placed above the joins (mirroring
	// the single-node lowerer's hintRows).
	place        []*exec.Placer
	shardRowHint int
	// budget is the query-level memory budget (nil on the unbudgeted
	// engine); shardBudget holds its per-shard forks, so every simulated
	// worker host accounts its fragment state against its own host
	// memory while spill totals fold into the one query aggregate —
	// exactly the placer/fork relationship, for memory.
	budget      *relational.MemoryBudget
	shardBudget []*relational.MemoryBudget
	// lcm is the engine's elastic-membership manager (nil on static,
	// failure-free clusters — the common case, which keeps every phase on
	// the pre-lifecycle code paths bit-identically). guard is the
	// per-execution lifecycle guard attachGuard wires to the query run:
	// it resolves shards to live replicas and lands injected faults.
	lcm   *lifecycle.Manager
	guard *lifecycle.Guard
}

// mover runs one execution's movement phases: the lifecycle guard when
// one is attached, the query run itself otherwise. Both implement the
// same phase call (see dist.QueryRun.RunPhase).
type mover interface {
	RunPhase(name string, chunks []dist.Chunk, class string, weightScale float64, eager bool, consume func(k int) error) (float64, error)
}

// attachGuard wires the execution into the elastic cluster view and
// returns the mover its phases run through. With a lifecycle manager the
// guard installs itself as qr's host resolver and every later phase and
// fragment round routes through it; without one the run stays on the
// static placement and its phases go straight to qr.
func (e *distExec) attachGuard(qr *dist.QueryRun) mover {
	if e.lcm == nil {
		return qr
	}
	e.guard = e.lcm.NewGuard(qr)
	return e.guard
}

// pipelined reports whether movement phases are chunked and admitted
// eagerly. Bulk phases (one covering chunk) wait at the admission
// barrier instead: eager submission would let concurrent queries' phases
// split into separate rounds by wall-clock interleaving.
func (e *distExec) pipelined() bool { return e.chunkRows > 0 }

// dispatchers builds one per-shard dispatcher for a kernel, or nil on
// the homogeneous engine. Each distStream decorator that lowers a
// placeable operator calls it once, so a shard's partitions share one
// dispatcher exactly as on the single-node engine.
func (e *distExec) dispatchers(cfg exec.Dispatch) []*exec.Dispatcher {
	if e.place == nil {
		return nil
	}
	out := make([]*exec.Dispatcher, len(e.place))
	for i, p := range e.place {
		out[i] = p.Dispatcher(cfg)
	}
	return out
}

// finishStats finalizes a run's network stats and folds in the modeled
// out-of-core I/O time the shard budgets accumulated (zero-valued on the
// unbudgeted engine).
func (e *distExec) finishStats(qr *dist.QueryRun) *dist.QueryStats {
	qs := qr.Finish()
	if e.budget != nil {
		sp := e.budget.Stats()
		qs.SpillSeconds = sp.WriteSeconds + sp.ReadSeconds
	}
	return qs
}

// newQuery registers one execution with the shared fabric under the
// session's QoS identity. Callers must Close (or Finish) the returned
// run on every path: an abandoned registration would park concurrent
// queries at the admission barrier.
func (e *distExec) newQuery() *dist.QueryRun {
	return e.fabric.NewQueryQoS(e.cancel, e.class, e.weight)
}

// chooseMovement picks broadcast vs repartition for one join by pricing
// both movements' slowest sender against the fabric's path capacity.
func (e *distExec) chooseMovement(buildBytes, probeBytes []float64) string {
	if e.distJoin == "broadcast" || e.distJoin == "repartition" {
		return e.distJoin
	}
	s := float64(e.cluster.Shards())
	bcast := make([]float64, len(buildBytes))
	repart := make([]float64, len(buildBytes))
	for i := range buildBytes {
		bcast[i] = buildBytes[i] * (s - 1)
		repart[i] = (buildBytes[i] + probeBytes[i]) * (s - 1) / s
	}
	if e.cluster.EstimateFanoutSeconds(bcast) <= e.cluster.EstimateFanoutSeconds(repart) {
		return "broadcast"
	}
	return "repartition"
}

// joinStage runs one join's data movement and appends the join decorator:
// the probe side's stream (and seq lineage) becomes the new current
// stream, exactly as the single-node probe side drives its output order.
// The movement's consumer fills each destination's hash table as chunks
// land, so every shard's join probes a table that is ready the moment
// the last chunk drains.
func (e *distExec) joinStage(mv mover, st *distStream, right *distStream, jp *distJoinPlan, ji int) (*distStream, error) {
	if err := st.materialize(e.workers); err != nil {
		return nil, err
	}
	if st.joined {
		// The current stream is about to move (or serve as a merged
		// build side); restore unique seq tags first.
		if err := st.reseq(e.workers); err != nil {
			return nil, err
		}
	}
	if err := right.materialize(e.workers); err != nil {
		return nil, err
	}
	l, r := len(st.schema), len(jp.rightSchema)
	combined := append(append(relational.Schema{}, st.schema...), jp.rightSchema...)
	cancel := st.cancel

	// Normalize to build/probe roles, mirroring the single-node planner:
	// default build = current stream, probe = right leg; swapped flips
	// both. The probe side stays partitioned and its seq lineage defines
	// the output order.
	build, probe := st, right
	buildCol, probeCol := jp.leftCol, jp.rightCol
	if jp.swapped {
		build, probe = right, st
		buildCol, probeCol = jp.rightCol, jp.leftCol
	}
	buildWidth := len(build.schema)
	movement := e.chooseMovement(build.bytes(), probe.bytes())

	// tables[s] is the hash table shard s probes; the consumer appends
	// each landed chunk's build rows in seq order, which reproduces the
	// serial engine's insertion order exactly.
	tables := make([]*relational.HashBuild, len(build.base))
	phase := "shuffle"
	var chunks []dist.Chunk
	var consume func(k int) error
	out := &distStream{schema: combined, cancel: cancel, joined: true, dx: e}
	if movement == "broadcast" {
		phase = "broadcast"
		// Replicate the seq-merged build side to every worker, which all
		// probe one shared table; the probe side does not move.
		merged, bChunks, bounds := dist.BroadcastChunks(build.base, buildWidth, true, e.chunkRows)
		pre, err := relational.NewHashBuild(merged.Schema, buildCol)
		if err != nil {
			return nil, err
		}
		for s := range tables {
			tables[s] = pre
		}
		prev := 0
		chunks = bChunks
		consume = func(k int) error {
			pre.Append(merged.Rows[prev:bounds[k]])
			prev = bounds[k]
			return nil
		}
		out.base = probe.base
	} else {
		// Hash-repartition both sides on the join key. Each chunk carries
		// the build transfers ahead of the probe transfers; probe rows
		// charge consumer compute too — they must be received and staged
		// into their buckets before the probe scan — though only the
		// build side feeds the hash tables.
		buildB, bChunks, bCum := dist.RepartitionChunks(build.base, buildCol, buildWidth, e.chunkRows)
		probeB, pChunks, _ := dist.RepartitionChunks(probe.base, probeCol, len(probe.schema), e.chunkRows)
		chunks = make([]dist.Chunk, max(len(bChunks), len(pChunks)))
		for k := range chunks {
			var ts []dist.Transfer
			if k < len(bChunks) {
				ts = append(ts, bChunks[k].Transfers...)
				chunks[k].ComputeBytes += bChunks[k].ComputeBytes
			}
			if k < len(pChunks) {
				ts = append(ts, pChunks[k].Transfers...)
				chunks[k].ComputeBytes += pChunks[k].ComputeBytes
			}
			chunks[k].Transfers = ts
		}
		for d := range tables {
			var err error
			if tables[d], err = relational.NewHashBuild(build.schema, buildCol); err != nil {
				return nil, err
			}
		}
		prev := make([]int, len(buildB))
		consume = func(k int) error {
			if k >= len(bCum) {
				return nil
			}
			for d := range buildB {
				rows := buildB[d].Rows[prev[d]:bCum[k][d]]
				if len(rows) == 0 {
					continue
				}
				stripped := make([]relational.Row, len(rows))
				for i, r := range rows {
					stripped[i] = r[:buildWidth]
				}
				tables[d].Append(stripped)
				prev[d] = bCum[k][d]
			}
			return nil
		}
		out.base = probeB
	}
	if _, err := mv.RunPhase(fmt.Sprintf("%s#%d", phase, ji), chunks, "", 0, e.pipelined(), consume); err != nil {
		return nil, err
	}
	workers, swapped := e.workers, jp.swapped
	out.decor = append(out.decor, func(s int, op relational.BatchOp) (relational.BatchOp, error) {
		jn, err := relational.NewBatchHashJoinPrebuilt(tables[s], op, probeCol, workers)
		if err != nil {
			return nil, err
		}
		if s < len(e.shardBudget) && e.shardBudget[s] != nil {
			jn.SetBudget(e.shardBudget[s])
		}
		if !swapped {
			// Output is left ++ (right ++ seq): already canonical.
			return jn, nil
		}
		// Restore canonical column order: right ++ left ++ seq becomes
		// left ++ right ++ seq.
		picks := make([]int, 0, l+r+1)
		for i := 0; i < l; i++ {
			picks = append(picks, r+i)
		}
		for i := 0; i < r; i++ {
			picks = append(picks, i)
		}
		picks = append(picks, r+l)
		return pickProject(jn, withSeq(combined), picks)
	})
	if jp.residualRanges != nil || jp.residualPred != nil {
		out.decor = append(out.decor, filterDecor(jp.residualRanges, jp.residualPred,
			e.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: e.shardRowHint})))
	}
	return out, nil
}

// countComputed reports how many projection outputs are computed
// expressions (not pass-through picks) — the placed kernel's width.
func countComputed(picks []int, n int) int {
	if picks == nil {
		return n
	}
	c := 0
	for _, p := range picks {
		if p < 0 {
			c++
		}
	}
	return c
}

func identityPicks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// planDistStmt is the distributed counterpart of planStmt. All analysis
// and compilation happens at plan time (so Plan surfaces errors and
// Explain describes the shape); data movement and fragment execution run
// lazily when the plan's root is first pulled.
func (pl *planner) planDistStmt(stmt *SelectStmt) (*Planned, error) {
	cluster, fabric := pl.eng.cluster, pl.eng.fabric
	shards := cluster.Shards()
	workers := pl.cfg.Workers
	p := &Planned{TaggedOps: map[string]relational.Op{}}
	shardHow := "range"
	if pl.cfg.ShardHash {
		shardHow = "hash"
	}
	p.Steps = append(p.Steps, fmt.Sprintf("engine: distributed (%d shards, %s-sharded, %s fabric; batch fragments, %d workers/host)",
		shards, shardHow, cluster.Topology, relational.EffectiveWorkers(workers)))

	legs, err := pl.resolveLegs(stmt)
	if err != nil {
		return nil, err
	}
	if !stmt.Star {
		refs := collectQueryCols(stmt)
		for _, leg := range legs {
			pruneLeg(leg, refs)
		}
	}

	// Pushdown split and size estimates come from the same helpers the
	// single-node planner uses: the distributed plan must mirror its
	// build-side choice to keep probe-side output order identical.
	residual := pl.splitWhere(stmt, legs)

	legPlans := make([]*distLegPlan, len(legs))
	legSizes := make([]int, len(legs))
	for i, leg := range legs {
		lp := &distLegPlan{table: pl.eng.shardedTable(leg.rel, shards, pl.cfg.ShardHash), schema: leg.schema}
		if leg.prune != nil {
			lp.prune = leg.prune
			p.Steps = append(p.Steps, fmt.Sprintf("prune %s to %d/%d columns", leg.alias, len(leg.prune), len(leg.rel.Schema)))
		} else {
			lp.prune = identityPicks(len(leg.rel.Schema))
		}
		if len(leg.filter) > 0 {
			sc := &scope{}
			sc.addTable(leg.alias, leg.schema, 0)
			lp.ranges, lp.pred, err = lowerBatchFilter(sc, joinConjuncts(leg.filter))
			if err != nil {
				return nil, err
			}
			p.Steps = append(p.Steps, fmt.Sprintf("pushdown filter on %s below shuffle: %s", leg.alias, joinConjuncts(leg.filter).Render()))
		}
		lp.shardRows = (leg.rel.Len() + shards - 1) / shards
		legPlans[i] = lp
		legSizes[i] = legSizeEstimate(leg)
		p.Steps = append(p.Steps, fmt.Sprintf("scan %s as %s (%d rows over %d shards)", leg.rel.Name, leg.alias, leg.rel.Len(), shards))
	}

	// Left-deep joins, with the single-node build-side rule.
	curScope := &scope{}
	curScope.addTable(legs[0].alias, legs[0].schema, 0)
	curWidth := len(legs[0].schema)
	curSize := legSizes[0]
	joinPlans := make([]*distJoinPlan, 0, len(stmt.Joins))
	for ji, j := range stmt.Joins {
		leg := legs[ji+1]
		rightScope := &scope{}
		rightScope.addTable(leg.alias, leg.schema, 0)
		leftCol, rightCol, rest, err := pl.splitJoinOn(j.On, curScope, rightScope)
		if err != nil {
			return nil, err
		}
		jp := &distJoinPlan{
			rightIdx: ji + 1, leftCol: leftCol, rightCol: rightCol,
			swapped:     pl.buildOnRight(legSizes[ji+1], curSize),
			rightSchema: leg.schema,
		}
		curScope.addTable(leg.alias, leg.schema, curWidth)
		curWidth += len(leg.schema)
		if rest != nil {
			jp.residualRanges, jp.residualPred, err = lowerBatchFilter(curScope, rest)
			if err != nil {
				return nil, err
			}
			p.Steps = append(p.Steps, "post-join filter: "+rest.Render())
		}
		curSize = advanceJoinSize(curSize, legSizes[ji+1], leg.rel.Len())
		joinPlans = append(joinPlans, jp)
		movement := pl.cfg.DistJoin
		if movement == "" {
			movement = "auto"
		}
		p.Steps = append(p.Steps, fmt.Sprintf("hash join #%d on %s (build=%s, movement=%s)",
			ji, j.On.Render(), map[bool]string{true: leg.alias, false: "left"}[jp.swapped], movement))
	}

	var resRanges []relational.ColRange
	var resPred relational.Predicate
	if len(residual) > 0 {
		resRanges, resPred, err = lowerBatchFilter(curScope, joinConjuncts(residual))
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, "filter: "+joinConjuncts(residual).Render())
	}

	var combined relational.Schema
	for _, leg := range legs {
		combined = append(combined, leg.schema...)
	}

	dx := &distExec{
		cluster: cluster, fabric: fabric, cancel: pl.cancel,
		workers: workers, distJoin: pl.cfg.DistJoin,
		class: pl.class, weight: pl.weight,
		chunkRows: pl.cfg.PipelineChunkRows,
		lcm:       pl.eng.Lifecycle(),
	}
	if dx.pipelined() {
		p.Steps = append(p.Steps, fmt.Sprintf("pipeline: chunked movement (%d rows/chunk, eager sub-rounds; gather weight x%d)",
			dx.chunkRows, dist.GatherWeightBoost))
	}
	// Heterogeneous placement: the query placer forks once per shard, so
	// each simulated worker host places its fragment morsels
	// independently (own FPGA configuration state) while charging the
	// one query-level Result.Devices aggregate.
	placer, err := pl.heteroPlacer()
	if err != nil {
		return nil, err
	}
	if placer != nil {
		p.placer = placer
		dx.place = make([]*exec.Placer, shards)
		for i := range dx.place {
			dx.place[i] = placer.Fork()
		}
		p.Steps = append(p.Steps, fmt.Sprintf("hetero: %s (independent per-shard placement)", placer))
	}
	// Out-of-core budgeting: the query budget forks once per shard, so
	// each simulated worker host spills against its own host memory
	// while the query reports one spill total (Result.Spill) and one
	// SpillSeconds line in its network stats.
	budget, err := pl.spillBudget()
	if err != nil {
		return nil, err
	}
	if budget != nil {
		p.budget, dx.budget = budget, budget
		dx.shardBudget = make([]*relational.MemoryBudget, shards)
		for i := range dx.shardBudget {
			dx.shardBudget[i] = budget.Fork()
		}
		p.Steps = append(p.Steps, fmt.Sprintf("spill: %s (independent per-shard budgets)", budget))
	}
	// runJoins executes the shared front of the query: leg fragments,
	// join movements, residual filter.
	runJoins := func(mv mover) (*distStream, error) {
		st := legPlans[0].stream(dx)
		for ji, jp := range joinPlans {
			var err error
			st, err = dx.joinStage(mv, st, legPlans[jp.rightIdx].stream(dx), jp, ji)
			if err != nil {
				return nil, err
			}
		}
		if resRanges != nil || resPred != nil {
			st.decor = append(st.decor, filterDecor(resRanges, resPred,
				dx.dispatchers(exec.Dispatch{Kind: exec.FilterWork, ExpectedRows: dx.shardRowHint})))
		}
		return st, nil
	}

	if stmt.HasAggregates() {
		return pl.planDistAggregate(stmt, p, curScope, combined, dx, runJoins)
	}
	if stmt.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires aggregation")
	}
	return pl.planDistSimple(stmt, p, curScope, combined, dx, runJoins)
}

// planDistAggregate splits the aggregate: per-shard partials over the
// pre-projection (pushed below the gather), a partial-state gather, and
// the coordinator's first-seen merge feeding the single-node post-plan
// (HAVING / ORDER BY / projection / LIMIT).
func (pl *planner) planDistAggregate(stmt *SelectStmt, p *Planned, sc *scope, combined relational.Schema,
	dx *distExec, runJoins func(mover) (*distStream, error)) (*Planned, error) {
	if stmt.Star {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}
	ap, err := buildAggPlan(stmt, sc, combined)
	if err != nil {
		return nil, err
	}
	aggOutSchema, err := relational.AggOutputSchema(ap.preSchema, ap.groupCols, ap.aggSpecs)
	if err != nil {
		return nil, err
	}
	p.Steps = append(p.Steps, fmt.Sprintf("partial aggregate per shard (%d group cols, %d aggregates)", len(ap.groupCols), len(ap.aggSpecs)))
	p.Steps = append(p.Steps, "gather partials to coordinator; merge in first-seen order")

	// Dry-run the coordinator plan: surfaces compile errors at plan time
	// and yields the output schema and the coordinator's step lines.
	dry := &Planned{TaggedOps: map[string]relational.Op{}}
	dryRel := relational.NewRelation("agg", aggOutSchema)
	dry, err = pl.finishAggregate(stmt, dry, &lowerer{}, execNode{row: relational.NewScan(dryRel)}, ap)
	if err != nil {
		return nil, err
	}
	for _, s := range dry.Steps {
		p.Steps = append(p.Steps, "coordinator "+s)
	}

	run := func() (*relational.Relation, *dist.QueryStats, error) {
		qr := dx.newQuery()
		// Close on every path: a run that errors out mid-phase must still
		// deregister from the shared fabric, or concurrent queries would
		// wait for it at the admission barrier forever.
		defer qr.Close()
		mv := dx.attachGuard(qr)
		st, err := runJoins(mv)
		if err != nil {
			return nil, nil, err
		}
		st.decor = append(st.decor, exprProjDecor(withSeq(ap.preSchema), ap.preExprs, ap.prePicks, len(st.schema),
			dx.dispatchers(exec.Dispatch{Kind: exec.ProjectWork, ExpectedRows: dx.shardRowHint, Width: countComputed(ap.prePicks, len(ap.preExprs))})))
		frags, err := st.fragments()
		if err != nil {
			return nil, nil, err
		}
		partials, err := dist.RunPartialAggs(frags, ap.groupCols, ap.aggSpecs, len(ap.preSchema), dx.workers,
			dx.dispatchers(exec.Dispatch{Kind: exec.AggWork, ExpectedRows: dx.shardRowHint}), dx.shardBudget)
		if err != nil {
			return nil, nil, err
		}
		// Gather the partials: each shard's partial splits into generations
		// of at most chunkRows groups (one unsplit partial on the bulk
		// engine). Shard i's accumulator adopts its first generation and
		// folds generation k while generation k+1 is in flight,
		// reconstructing the shard's partial exactly (same group states,
		// same first-seen order), so the final shard-order fold is
		// bit-identical at every chunk size.
		subs := make([][]*relational.PartialAgg, len(partials))
		for i, pa := range partials {
			subs[i] = pa.SplitChunks(dx.chunkRows)
		}
		acc := make([]*relational.PartialAgg, len(partials))
		consume := func(k int) error {
			for i, sub := range subs {
				if k >= len(sub) {
					continue
				}
				if acc[i] == nil {
					acc[i] = sub[k]
				} else {
					acc[i].MergeFrom(sub[k])
				}
			}
			return nil
		}
		chunks := dist.PartialGatherChunks(subs)
		if _, err := mv.RunPhase("gather", chunks, dist.GatherClass, dist.GatherWeightBoost, dx.pipelined(), consume); err != nil {
			return nil, nil, err
		}
		merged := acc[0]
		for _, pa := range acc[1:] {
			merged.MergeFrom(pa)
		}
		aggRel := relational.NewRelation("agg", aggOutSchema)
		aggRel.Rows = merged.EmitRows(aggOutSchema, true)
		fin := &Planned{TaggedOps: map[string]relational.Op{}}
		// The coordinator's post-plan (HAVING/sort/project/limit) charges
		// the query-level budget: coordinator memory is host memory too.
		fin, err = pl.finishAggregate(stmt, fin, &lowerer{budget: dx.budget}, execNode{row: relational.NewScan(aggRel)}, ap)
		if err != nil {
			return nil, nil, err
		}
		res, err := relational.Collect(fin.Root, "result")
		if err != nil {
			return nil, nil, err
		}
		return res, dx.finishStats(qr), nil
	}
	root := &distRoot{schema: dry.Root.Schema(), run: run}
	p.dist, p.Root = root, root
	return p, nil
}

// planDistSimple handles non-aggregate queries: the final projection (and
// any ORDER BY key columns) computes per shard below the gather; the
// coordinator merges by seq — exactly the serial row order — then sorts,
// strips keys and applies LIMIT. Without ORDER BY each shard also caps
// its stream at LIMIT locally.
func (pl *planner) planDistSimple(stmt *SelectStmt, p *Planned, sc *scope, combined relational.Schema,
	dx *distExec, runJoins func(mover) (*distStream, error)) (*Planned, error) {
	items := stmt.Items
	if stmt.Star {
		items = starItems(stmt, sc)
	}
	itemSchema, itemExprs, itemPicks, err := compileItems(items, sc, combined)
	if err != nil {
		return nil, err
	}
	keyCols, keyExprs, keyPicks, descs, err := compileOrderKeys(stmt.OrderBy, items, sc, combined)
	if err != nil {
		return nil, err
	}
	wideSchema := append(append(relational.Schema{}, itemSchema...), keyCols...)
	wideExprs := append(append([]relational.Projector{}, itemExprs...), keyExprs...)
	widePicks := append(append([]int{}, itemPicks...), keyPicks...)

	p.Steps = append(p.Steps, "project "+itemNames(items)+" per shard")
	if len(keyCols) > 0 {
		p.Steps = append(p.Steps, "gather to coordinator (seq-ordered merge); sort")
	} else {
		p.Steps = append(p.Steps, "gather to coordinator (seq-ordered merge)")
	}
	if stmt.Limit >= 0 {
		p.Steps = append(p.Steps, fmt.Sprintf("limit %d", stmt.Limit))
	}

	run := func() (*relational.Relation, *dist.QueryStats, error) {
		qr := dx.newQuery()
		defer qr.Close() // deregister from the shared fabric on error paths
		mv := dx.attachGuard(qr)
		st, err := runJoins(mv)
		if err != nil {
			return nil, nil, err
		}
		st.decor = append(st.decor, exprProjDecor(withSeq(wideSchema), wideExprs, widePicks, len(st.schema),
			dx.dispatchers(exec.Dispatch{Kind: exec.ProjectWork, ExpectedRows: dx.shardRowHint, Width: countComputed(widePicks, len(wideExprs))})))
		st.schema = wideSchema
		if len(keyCols) == 0 && stmt.Limit >= 0 {
			st.decor = append(st.decor, limitDecor(stmt.Limit))
		}
		if err := st.materialize(dx.workers); err != nil {
			return nil, nil, err
		}
		seqCol := len(wideSchema)
		// The coordinator's seq merge advances to each chunk's global row
		// bound while the next chunk's flows drain; one covering chunk
		// merges everything once it has landed.
		chunks, bounds := dist.GatherChunks(st.base, seqCol, dx.chunkRows)
		merged := relational.NewRelation("gathered", st.base[0].Schema[:seqCol])
		if len(bounds) > 0 {
			merged.Rows = make([]relational.Row, 0, bounds[len(bounds)-1])
		}
		merger := dist.NewSeqMerger(st.base, seqCol)
		consume := func(k int) error {
			merger.Take(bounds[k], func(shard, row int) {
				merged.Rows = append(merged.Rows, st.base[shard].Rows[row][:seqCol])
			})
			return nil
		}
		if _, err := mv.RunPhase("gather", chunks, dist.GatherClass, dist.GatherWeightBoost, dx.pipelined(), consume); err != nil {
			return nil, nil, err
		}
		var op relational.Op = relational.NewScan(merged)
		if len(keyCols) > 0 {
			keys := make([]relational.SortKey, len(keyCols))
			for ki := range keyCols {
				keys[ki] = relational.SortKey{Col: len(itemSchema) + ki, Desc: descs[ki]}
			}
			srt, err := relational.NewSort(op, keys)
			if err != nil {
				return nil, nil, err
			}
			if dx.budget != nil {
				// The coordinator's sort charges the query-level budget:
				// coordinator memory is host memory too.
				srt.SetBudget(dx.budget)
			}
			op = srt
			exprs := make([]relational.Projector, len(itemSchema))
			for i := range exprs {
				exprs[i] = pickProjector(i)
			}
			op, err = relational.NewProject(op, itemSchema, exprs)
			if err != nil {
				return nil, nil, err
			}
		}
		if stmt.Limit >= 0 {
			op = relational.NewLimit(op, stmt.Limit)
		}
		res, err := relational.Collect(op, "result")
		if err != nil {
			return nil, nil, err
		}
		return res, dx.finishStats(qr), nil
	}
	root := &distRoot{schema: itemSchema, run: run}
	p.dist, p.Root = root, root
	return p, nil
}
