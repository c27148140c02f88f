package sql

import (
	"cmp"
	"flag"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/memtier"
)

// QueryOptions are the per-query knobs: an engine's Config sets their
// defaults, and a tenant or Session may override any of them. The zero
// value of every field means "inherit" (see Merge), so one struct serves
// as both a complete configuration and a sparse override. The JSON tags
// are the keys of rethinkd's tenants file.
type QueryOptions struct {
	// Workers caps batch-engine parallelism; 0 means runtime.NumCPU().
	// In distributed mode this is the per-host core count.
	Workers int `json:"workers,omitempty"`
	// DistJoin forces the distributed join movement strategy:
	// "auto" (cost-based, the default), "broadcast" or "repartition".
	DistJoin string `json:"dist_join,omitempty"`
	// Placement selects the morsel placement policy over
	// Config.Devices: "auto" (cost-based per morsel, the default) or a
	// device name ("cpu", "gpu", "fpga") forcing every morsel onto that
	// device. It has no effect when the engine has no device set.
	Placement string `json:"placement,omitempty"`
	// MemoryBudget caps the bytes of operator state (hash-join build
	// tables, partial-aggregate maps, sort runs) a query may hold
	// resident at once. When an operator's reservation would exceed it,
	// the operator goes out-of-core: state partitions to the SpillTier
	// (grace hash partitioning for joins and aggregates, external run
	// merging for sorts) and the modeled tier I/O is charged into
	// OpStats.Spill and Result.Spill. The budget models cost without
	// changing semantics: results are row-for-row identical at every
	// budget, and 0 (the default) is the unbudgeted engine. Because zero
	// inherits, an override can turn out-of-core execution on but never
	// off — budgets model capacity, and asking for less memory than the
	// engine grants is the meaningful direction.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// SpillTier names the memtier catalog tier budget overflow spills
	// to: "nvm", "ssd" (the default when a budget is set) or "disk".
	// DRAM is deliberately not a spill target — spilling to the tier the
	// budget models is a no-op, not an out-of-core strategy.
	SpillTier string `json:"spill_tier,omitempty"`
	// PipelineChunkRows is the distributed movement chunk size. Every
	// phase (broadcast, shuffle, gather) moves as chunks that a receiver
	// consumes as they land — hash-join build tables fill as
	// repartitioned rows arrive, partial-aggregate merges fold
	// generation by generation, the final gather streams into the seq
	// merge. A positive size splits each phase into chunks of at most
	// this many rows, admitted on the shared fabric as eager sub-rounds
	// while the receiver consumes the previous chunk; the modeled
	// compute/network overlap lands in Result.Net.OverlapSeconds. 0 (the
	// default) is the bulk engine: one chunk per phase, admitted at the
	// barrier. Chunking never changes answers — chunk boundaries derive
	// from the deterministic seq tags. Like MemoryBudget, an override can
	// ask for finer chunks but cannot force the bulk path back on.
	PipelineChunkRows int `json:"pipeline_chunk_rows,omitempty"`
}

// Merge returns o overridden by over: each non-zero field of over
// replaces o's, each zero field inherits it. Sessions run under
// engine.Merge(session) — a tenant's options reach the session it opens.
func (o QueryOptions) Merge(over QueryOptions) QueryOptions {
	return QueryOptions{
		Workers:           cmp.Or(over.Workers, o.Workers),
		DistJoin:          cmp.Or(over.DistJoin, o.DistJoin),
		Placement:         cmp.Or(over.Placement, o.Placement),
		MemoryBudget:      cmp.Or(over.MemoryBudget, o.MemoryBudget),
		SpillTier:         cmp.Or(over.SpillTier, o.SpillTier),
		PipelineChunkRows: cmp.Or(over.PipelineChunkRows, o.PipelineChunkRows),
	}
}

// Validate rejects an unknown DistJoin strategy, placement policy or
// spill tier, and a negative MemoryBudget or PipelineChunkRows. A spill
// tier without a budget is allowed — the engine may set the tier and a
// session turn the budget on — but must still name a real tier. Whether
// a placement suits the engine's device set is exec.ValidateConfig's
// check, made once at NewEngine.
func (o QueryOptions) Validate() error {
	switch o.DistJoin {
	case "", "auto", "broadcast", "repartition":
	default:
		return fmt.Errorf("sql: unknown DistJoin strategy %q", o.DistJoin)
	}
	if _, err := exec.PolicyByName(o.Placement); err != nil {
		return err
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("sql: negative MemoryBudget %d", o.MemoryBudget)
	}
	if o.SpillTier != "" {
		if _, err := memtier.NewSpillDevice(o.SpillTier); err != nil {
			return err
		}
	}
	if o.PipelineChunkRows < 0 {
		return fmt.Errorf("sql: negative PipelineChunkRows %d", o.PipelineChunkRows)
	}
	return nil
}

// BindFlags registers the per-query flags the command-line front ends
// share on fs, each writing into o and defaulting to o's current value.
func (o *QueryOptions) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "workers", o.Workers, "batch engine workers per host (0 = NumCPU)")
	fs.StringVar(&o.DistJoin, "dist-join", o.DistJoin, "distributed join movement: auto, broadcast, repartition (empty = auto)")
	fs.IntVar(&o.PipelineChunkRows, "pipeline-chunk", o.PipelineChunkRows, "movement chunk size in rows; chunks are admitted eagerly and overlap compute with the next chunk's flows (0 = one chunk per phase, admitted at the barrier)")
	fs.Int64Var(&o.MemoryBudget, "mem-budget", o.MemoryBudget, "operator-state memory budget in bytes; overflow spills to -spill-tier (0 = unbudgeted)")
	fs.StringVar(&o.SpillTier, "spill-tier", o.SpillTier, "spill tier for budget overflow: "+strings.Join(memtier.SpillTiers, ", ")+" (default ssd when budgeted)")
}
