package dist

import (
	"sort"

	"repro/internal/relational"
)

// ChunkComputeBytesPerSec prices the modeled consumer compute of a
// landed chunk — hash-build inserts, partial-agg folds, gather merges —
// in bytes digested per second. 4 GiB/s is a memory-bandwidth-bound
// single-host rate consistent with the device and spill models: fast
// enough that bulk-synchronous runs stay network-dominated, slow enough
// that hiding it under in-flight flows is worth measuring.
const ChunkComputeBytesPerSec = 4 * float64(1<<30)

// GatherWeightBoost scales the final gather's flow weights over the
// query's own weight (RunPhase weightScale): the latency-critical tail
// phase competes hotter than the shuffle chunks it coexists with under
// pipelining. A power of two, and applied uniformly to every flow of the
// phase, so a gather-only round's weighted max-min rates — share =
// cap/Σw scaled back by w — are bit-identical to the unboosted
// allocation; the boost only matters when gather flows share a round
// with other traffic, which is exactly the pipelined case it exists for.
const GatherWeightBoost = 4

// GatherClass tags final-gather flows for per-class fabric attribution
// and controller policies.
const GatherClass = "gather"

// Chunk is one sub-round of a movement phase (the whole phase, for the
// bulk engine's one covering chunk): the flows that cross the fabric for
// this slice of the payload, plus the bytes the receiving side must
// digest once they land (priced at ChunkComputeBytesPerSec).
// ComputeBytes counts the whole slice — rows that stayed on their host
// still cost consumer compute even though they moved nothing.
type Chunk struct {
	Transfers    []Transfer
	ComputeBytes float64
}

// ComputeSeconds is the modeled time a consumer needs to digest the
// chunk once landed.
func (c Chunk) ComputeSeconds() float64 {
	return c.ComputeBytes / ChunkComputeBytesPerSec
}

// chunking normalizes a chunk size for a payload of total > 0 rows and
// returns how many chunks cover it. A size ≤ 0 — the bulk engine —
// becomes one chunk covering everything.
func chunking(chunkRows, total int) (size, n int) {
	if chunkRows <= 0 {
		chunkRows = total
	}
	return chunkRows, (total + chunkRows - 1) / chunkRows
}

// maxRows returns the longest shard's row count.
func maxRows(shards []*relational.Relation) int {
	n := 0
	for _, sh := range shards {
		n = max(n, len(sh.Rows))
	}
	return n
}

// totalRows returns the shards' summed row count.
func totalRows(shards []*relational.Relation) int {
	n := 0
	for _, sh := range shards {
		n += len(sh.Rows)
	}
	return n
}

// chunkWindow clips source-local chunk g's row window [g·chunkRows,
// (g+1)·chunkRows) to the relation, returning an empty window for
// exhausted sources.
func chunkWindow(rel *relational.Relation, g, chunkRows int) (lo, hi int) {
	lo, hi = g*chunkRows, (g+1)*chunkRows
	if lo > len(rel.Rows) {
		lo = len(rel.Rows)
	}
	if hi > len(rel.Rows) {
		hi = len(rel.Rows)
	}
	return lo, hi
}

// chunkWatermark returns the seq value below which every row has
// provably landed once all sources have shipped their local chunks
// 0..g: the minimum, across sources, of the first still-unshipped row's
// seq (shard streams are seq-ascending). ok is false when every source
// is exhausted — everything has landed.
func chunkWatermark(shards []*relational.Relation, seqCol, g, chunkRows int) (w int64, ok bool) {
	for _, rel := range shards {
		if hi := (g + 1) * chunkRows; hi < len(rel.Rows) {
			if seq := rel.Rows[hi][seqCol].I; !ok || seq < w {
				w, ok = seq, true
			}
		}
	}
	return w, ok
}

// RepartitionChunks hashes each shard relation's rows on keyCol into one
// bucket per destination shard, in one pass that also sizes the
// movement. dests[d] is destination d's bucket sorted by seqCol (stable,
// so fan-out duplicates keep their order); rows whose bucket is their
// current shard move no bytes.
//
// The movement is striped across sources: chunk g carries every source's
// local rows [g·chunkRows, (g+1)·chunkRows), so all source uplinks
// transmit in parallel within each sub-round. chunkRows ≤ 0 yields one
// covering chunk, the bulk shuffle. cum[g][d] is the prefix of dests[d]
// a consumer may digest after chunk g: the rows below the landed-seq
// watermark, which is what lets an incremental hash build insert in the
// one-chunk build's exact order while later chunks are still in flight.
// The per-(src,dst) bytes are integers, so they sum to the same totals
// at every chunk size.
func RepartitionChunks(shards []*relational.Relation, keyCol, seqCol, chunkRows int) (dests []*relational.Relation, chunks []Chunk, cum [][]int) {
	s := len(shards)
	dests = make([]*relational.Relation, s)
	for i := range dests {
		dests[i] = relational.NewRelation(shards[0].Name, shards[0].Schema)
	}
	longest := maxRows(shards)
	if longest == 0 {
		return dests, nil, nil
	}
	chunkRows, n := chunking(chunkRows, longest)
	chunks = make([]Chunk, n)
	bytesTo := make([]float64, s)
	for g := range chunks {
		for src, rel := range shards {
			lo, hi := chunkWindow(rel, g, chunkRows)
			for _, row := range rel.Rows[lo:hi] {
				d := int(hashValue(row[keyCol]) % uint64(s))
				dests[d].Rows = append(dests[d].Rows, row)
				b := row.EncodedBytes()
				chunks[g].ComputeBytes += b
				if d != src {
					bytesTo[d] += b
				}
			}
			for d, b := range bytesTo {
				if b > 0 {
					chunks[g].Transfers = append(chunks[g].Transfers, Transfer{Src: src, Dst: d, Bytes: b})
					bytesTo[d] = 0
				}
			}
		}
	}
	for _, d := range dests {
		rows := d.Rows
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][seqCol].I < rows[j][seqCol].I })
	}
	cum = make([][]int, n)
	pos := make([]int, s)
	for g := 0; g < n; g++ {
		if w, ok := chunkWatermark(shards, seqCol, g, chunkRows); ok {
			for d := range pos {
				rows := dests[d].Rows
				for pos[d] < len(rows) && rows[pos[d]][seqCol].I < w {
					pos[d]++
				}
			}
		} else {
			for d := range pos {
				pos[d] = len(dests[d].Rows)
			}
		}
		cum[g] = append([]int(nil), pos...)
	}
	return dests, chunks, cum
}

// BroadcastChunks replicates the union of the shard relations to every
// worker. merged is the seq-merged build side every shard will probe
// against, in exact serial order (seq column stripped when strip).
// Chunk g carries every source's local rows [g·chunkRows,
// (g+1)·chunkRows) to every other shard — striped across sources like
// RepartitionChunks, so all uplinks transmit in parallel within each
// sub-round; chunkRows ≤ 0 yields one covering chunk, the bulk
// broadcast. bounds[g] is the prefix of merged a consumer may digest
// after chunk g (the rows below the landed-seq watermark; counted
// against the unstripped shards, so it works whether or not merged kept
// the seq column). Byte accounting is done pre-strip: the wire carries
// the seq column.
func BroadcastChunks(shards []*relational.Relation, seqCol int, strip bool, chunkRows int) (merged *relational.Relation, chunks []Chunk, bounds []int) {
	schema := shards[0].Schema
	if strip {
		schema = schema[:seqCol]
	}
	merged = relational.NewRelation(shards[0].Name, schema)
	total := totalRows(shards)
	if total == 0 {
		return merged, nil, nil
	}
	merged.Rows = make([]relational.Row, 0, total)
	NewSeqMerger(shards, seqCol).Take(total, func(shard, row int) {
		r := shards[shard].Rows[row]
		if strip {
			r = r[:seqCol]
		}
		merged.Rows = append(merged.Rows, r)
	})
	longest := maxRows(shards)
	chunkRows, n := chunking(chunkRows, longest)
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	pos := make([]int, len(shards))
	for g := 0; g < n; g++ {
		var ts []Transfer
		for src, rel := range shards {
			lo, hi := chunkWindow(rel, g, chunkRows)
			b := 0.0
			for _, row := range rel.Rows[lo:hi] {
				b += row.EncodedBytes()
			}
			chunks[g].ComputeBytes += b
			if b > 0 {
				for dst := range shards {
					if dst != src {
						ts = append(ts, Transfer{Src: src, Dst: dst, Bytes: b})
					}
				}
			}
		}
		chunks[g].Transfers = ts
		if w, ok := chunkWatermark(shards, seqCol, g, chunkRows); ok {
			for i, rel := range shards {
				for pos[i] < len(rel.Rows) && rel.Rows[pos[i]][seqCol].I < w {
					pos[i]++
				}
			}
			b := 0
			for _, p := range pos {
				b += p
			}
			bounds[g] = b
		} else {
			bounds[g] = total
		}
	}
	return merged, chunks, bounds
}

// GatherChunks splits the final gather of per-shard relations into seq-
// rank chunks: chunk g ships each shard's share of rows ranked
// [g·chunkRows, (g+1)·chunkRows) to the coordinator, and bounds[g] is
// the cumulative global row count landed through chunk g (feed it to a
// SeqMerger to reassemble the global seq order incrementally).
// chunkRows ≤ 0 yields one covering chunk: each shard's whole relation,
// the bulk gather.
func GatherChunks(shards []*relational.Relation, seqCol, chunkRows int) (chunks []Chunk, bounds []int) {
	total := totalRows(shards)
	if total == 0 {
		return nil, nil
	}
	chunkRows, n := chunking(chunkRows, total)
	chunks = make([]Chunk, n)
	bounds = make([]int, n)
	srcBytes := make([][]float64, n)
	for g := range srcBytes {
		srcBytes[g] = make([]float64, len(shards))
	}
	r := 0
	NewSeqMerger(shards, seqCol).Take(total, func(shard, row int) {
		g := r / chunkRows
		r++
		b := shards[shard].Rows[row].EncodedBytes()
		srcBytes[g][shard] += b
		chunks[g].ComputeBytes += b
	})
	for g := range chunks {
		for src, b := range srcBytes[g] {
			if b > 0 {
				chunks[g].Transfers = append(chunks[g].Transfers, Transfer{Src: src, Dst: Coordinator, Bytes: b})
			}
		}
		bounds[g] = min((g+1)*chunkRows, total)
	}
	return chunks, bounds
}

// PartialGatherChunks builds the gather of per-shard partial
// aggregations: chunk g carries each shard's g-th sub-partial (shards
// with fewer sub-partials simply stop contributing; an unsplit partial
// is the one covering chunk of the bulk gather). Transfer and compute
// bytes use the partials' own encoded size.
func PartialGatherChunks(subs [][]*relational.PartialAgg) []Chunk {
	n := 0
	for _, s := range subs {
		if len(s) > n {
			n = len(s)
		}
	}
	chunks := make([]Chunk, n)
	for g := 0; g < n; g++ {
		var ts []Transfer
		compute := 0.0
		for i, s := range subs {
			if g >= len(s) {
				continue
			}
			b := s[g].EncodedBytes()
			compute += b
			if b > 0 {
				ts = append(ts, Transfer{Src: i, Dst: Coordinator, Bytes: b})
			}
		}
		chunks[g] = Chunk{Transfers: ts, ComputeBytes: compute}
	}
	return chunks
}

// SeqMerger k-way merges per-shard relations on their seq column, the
// one place the coordinator's global row order is defined. Every input
// must be seq-ascending (shard streams are by construction); equal tags
// — join fan-out duplicates — can only occur within one shard, and the
// strict '<' below then keeps that shard's run together, so the visit
// order is a total deterministic order equal to the single-node row
// order. Take advances the merge incrementally: taking bounds[0],
// bounds[1], … as gather chunks land yields, row for row, the order one
// covering chunk produces in a single Take.
type SeqMerger struct {
	shards []*relational.Relation
	seqCol int
	pos    []int
	taken  int
}

// NewSeqMerger returns a merger over the per-shard relations.
func NewSeqMerger(shards []*relational.Relation, seqCol int) *SeqMerger {
	return &SeqMerger{shards: shards, seqCol: seqCol, pos: make([]int, len(shards))}
}

// Take visits rows ranked [taken, upto) in global seq order, calling
// fn(shard, rowIndex) for each, and advances the merger. It stops early
// once every shard is exhausted, so an upto past the total row count
// visits everything that is left.
func (m *SeqMerger) Take(upto int, fn func(shard, row int)) {
	for m.taken < upto {
		best := -1
		var bestSeq int64
		for i, s := range m.shards {
			if m.pos[i] >= len(s.Rows) {
				continue
			}
			if seq := s.Rows[m.pos[i]][m.seqCol].I; best < 0 || seq < bestSeq {
				best, bestSeq = i, seq
			}
		}
		if best < 0 {
			return
		}
		fn(best, m.pos[best])
		m.pos[best]++
		m.taken++
	}
}
