package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
	"repro/internal/serve/wire"
	"repro/internal/sql"
	"repro/internal/stream"
)

// The ingest_query workload: an events(k, t, v) table on a 4-shard
// distributed engine, preloaded and then grown by an open-loop appender
// while a closed-loop client aggregates the whole table and a windowed
// subscription aggregates the stream.
const (
	ingestPreload = 256_000 // preloaded rows
	// ingestPreloadTicks is the event-time span of the preload. It is
	// short on purpose: priming a subscription allocates a batch of the
	// whole preload's capacity for every pane the preload touches (see
	// stream.prime_alloc_mb), so a preload spread over thousands of panes
	// runs out of memory. Eight panes keep set-up within memory while the
	// per-layer metric still shows the cost.
	ingestPreloadTicks = 16
	ingestBatchRows    = 100 // rows per append
	ingestBatchTicks   = 2   // event-time ticks one append advances
	ingestRate         = 3   // appends per second (open loop)
	ingestKeys         = 64  // distinct k values
	ingestLateRows     = 5   // rows per append behind the max event time
	// ingestT0 is the first streamed tick.
	ingestT0 = ingestPreloadTicks
)

// ingestWindow is the subscription's window: size 4 ticks sliding by 2,
// watermark 2 ticks behind the newest event, so each append closes one
// window. Late rows stay at or above the previous watermark, so no
// emitted window ever misses one of its events.
var ingestWindow = stream.WindowSpec{TimeCol: "t", Size: 4, Slide: ingestBatchTicks, Lateness: 2}

const (
	// ingestQuery is both the client's whole-table aggregate and the
	// subscription's continuous query.
	ingestQuery     = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY k"
	ingestWindowSQL = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM events WHERE t >= %d AND t < %d GROUP BY k"
)

// keyTotals is the expected per-key (count, sum) of a table prefix.
type keyTotals [ingestKeys][2]int64

// ingestData is every row the run will use, generated from the seed.
type ingestData struct {
	preload []relational.Row
	batches [][]relational.Row
	// cum[j] holds the per-key totals of the preload plus batches [0, j).
	cum []keyTotals
	// keyOrder is the order in which keys first appear in the preload,
	// the group order every engine returns.
	keyOrder []int64
}

func genIngest(seed uint64, nBatches int) *ingestData {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	row := func(t int64) relational.Row {
		return relational.Row{relational.IntV(rng.Int64N(ingestKeys)), relational.IntV(t), relational.IntV(1 + rng.Int64N(1000))}
	}
	d := &ingestData{}
	var tot keyTotals
	seen := map[int64]bool{}
	add := func(r relational.Row) {
		k := r[0].I
		tot[k][0]++
		tot[k][1] += r[2].I
		if !seen[k] {
			seen[k] = true
			d.keyOrder = append(d.keyOrder, k)
		}
	}
	for i := 0; i < ingestPreload; i++ {
		r := row(int64(i * ingestPreloadTicks / ingestPreload))
		d.preload = append(d.preload, r)
		add(r)
	}
	d.cum = append(d.cum, tot)
	for j := 0; j < nBatches; j++ {
		base := int64(ingestT0 + ingestBatchTicks*j)
		b := make([]relational.Row, 0, ingestBatchRows)
		// Late rows first, in ascending time, each at or above the
		// watermark the previous append left (base-1 minus the lateness).
		late := make([]int64, ingestLateRows)
		for i := range late {
			late[i] = base - 1 - rng.Int64N(ingestWindow.Lateness+1)
		}
		sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
		for _, t := range late {
			b = append(b, row(t))
		}
		for i := len(b); i < ingestBatchRows; i++ {
			b = append(b, row(base+int64((i-ingestLateRows)*ingestBatchTicks/(ingestBatchRows-ingestLateRows))))
		}
		for _, r := range b {
			add(r)
		}
		d.batches = append(d.batches, b)
		d.cum = append(d.cum, tot)
	}
	return d
}

// watermarkAfter is the subscription's watermark once batch j is in.
func watermarkAfter(j int) int64 {
	return int64(ingestT0+ingestBatchTicks*j+ingestBatchTicks-1) - ingestWindow.Lateness
}

// ingestState is one built ingest_query set-up.
type ingestState struct {
	eng    *sql.Engine
	src    *stream.Source
	sub    *stream.Subscription
	cancel context.CancelFunc
	stmt   *sql.Stmt
	data   *ingestData
	// next is the next batch to append; submitted and acked count rows
	// whose append has started and returned.
	next      int
	submitted atomic.Int64
	acked     atomic.Int64
	// windows holds every window received after the preload's.
	windows []receivedWindow
	// primeAllocMB is what subscribing over the preload allocated.
	primeAllocMB float64
}

type receivedWindow struct {
	win      stream.Window
	received time.Time
}

// close cancels the subscription and waits for its goroutine to end.
func (s *ingestState) close() {
	s.cancel()
	for range s.sub.Out() {
	}
	<-s.sub.Done()
}

func buildIngest(data *ingestData) (*ingestState, error) {
	c := sql.DefaultConfig()
	c.Distributed, c.Shards = true, 4
	eng, err := sql.NewEngine(c)
	if err != nil {
		return nil, err
	}
	rel := relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.Int}, {Name: "t", Type: relational.Int}, {Name: "v", Type: relational.Int},
	})
	for _, r := range data.preload {
		rel.MustAppend(r)
	}
	eng.Register(rel)
	s := &ingestState{eng: eng, data: data}
	s.submitted.Store(ingestPreload)
	s.acked.Store(ingestPreload)
	sess := eng.Session()
	if s.src, err = sess.StreamSource("events"); err != nil {
		return nil, err
	}
	_, alloc0, _ := readRuntime()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if s.sub, err = sess.Subscribe(ctx, ingestQuery, ingestWindow); err != nil {
		cancel()
		return nil, err
	}
	// The subscription primes with the preload; its last window ends at
	// the preload's watermark rounded down to the slide.
	lastEnd := watermarkAfter(-1) / ingestBatchTicks * ingestBatchTicks
	for w := range s.sub.Out() {
		if w.End >= lastEnd {
			break
		}
	}
	if err := s.sub.Err(); err != nil {
		s.close()
		return nil, fmt.Errorf("subscription: %w", err)
	}
	_, alloc1, _ := readRuntime()
	s.primeAllocMB = float64(alloc1-alloc0) / (1 << 20)
	if s.stmt, err = sess.Prepare(ingestQuery); err != nil {
		s.close()
		return nil, err
	}
	// The first run columnarizes and shards the table.
	if _, err := s.stmt.Exec(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ingestStats is what one timed window measured.
type ingestStats struct {
	attempted, failed, completed int
	firstErr                     error
	latencies, ack, lag, appends []float64
	barrierWait, flows           float64
	rowsOut, rowsResult          float64
	qps                          float64
	// The phase's windows are state.windows[firstWindow:endWindow]; its
	// appends are batches firstBatch onwards, due at dues.
	firstWindow, endWindow, firstBatch int
	dues                               []time.Time
}

// window runs the open-loop appender (which also receives windows) and
// the closed-loop query client for d.
func (s *ingestState) window(d time.Duration, t *tracer, rs *runtimeSampler) *ingestStats {
	st := &ingestStats{firstWindow: len(s.windows), firstBatch: s.next}
	defer func() { st.endWindow = len(s.windows) }()
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for time.Now().Before(deadline) {
			a0 := s.acked.Load()
			q0 := time.Now()
			res, err := s.stmt.Exec(ctx)
			q1 := time.Now()
			a1 := s.acked.Load()
			rs.sample()
			t.record("sql.exec", t.id(), 0, q0, q1)
			mu.Lock()
			st.attempted++
			mu.Unlock()
			if err == nil {
				err = s.checkQuery(res, a0, a1)
			}
			if err != nil {
				fail(err)
				continue
			}
			mu.Lock()
			st.completed++
			st.latencies = append(st.latencies, ms(q1.Sub(q0)))
			if a := res.Admission; a != nil {
				st.barrierWait += a.BarrierWaitSeconds
			}
			if n := res.Net; n != nil {
				st.flows += float64(n.Flows)
			}
			for _, op := range res.Ops {
				st.rowsOut += float64(op.RowsOut)
			}
			st.rowsResult += float64(res.Rows.Len())
			mu.Unlock()
		}
		st.qps = float64(st.completed) / time.Since(start).Seconds()
	}()

	period := time.Second / ingestRate
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	first := s.next
	for s.next < len(s.data.batches) {
		due := start.Add(time.Duration(s.next-first) * period)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case w, ok := <-s.sub.Out():
				timer.Stop()
				if ok {
					s.windows = append(s.windows, receivedWindow{w, time.Now()})
				}
				continue
			}
		}
		batch := s.data.batches[s.next]
		a0 := time.Now()
		s.submitted.Add(int64(len(batch)))
		err := s.src.Append(batch...)
		a1 := time.Now()
		t.record("stream.append", t.id(), 0, a0, a1)
		mu.Lock()
		st.attempted++
		mu.Unlock()
		if err != nil {
			fail(fmt.Errorf("append %d: %w", s.next, err))
		} else {
			s.acked.Add(int64(len(batch)))
		}
		st.dues = append(st.dues, due)
		st.lag = append(st.lag, ms(a0.Sub(due)))
		st.ack = append(st.ack, ms(a1.Sub(due)))
		st.appends = append(st.appends, ms(a1.Sub(a0)))
		s.next++
	}
	// Receive the window the last append closed before the next phase.
	lastEnd := watermarkAfter(s.next-1) / ingestBatchTicks * ingestBatchTicks
	timeout := time.After(10 * time.Second)
	for len(s.windows) == 0 || s.windows[len(s.windows)-1].win.End < lastEnd {
		select {
		case w, ok := <-s.sub.Out():
			if !ok {
				fail(fmt.Errorf("subscription ended: %v", s.sub.Err()))
				wg.Wait()
				return st
			}
			s.windows = append(s.windows, receivedWindow{w, time.Now()})
		case <-timeout:
			fail(fmt.Errorf("window ending at %d never arrived", lastEnd))
			wg.Wait()
			return st
		}
	}
	wg.Wait()
	return st
}

// checkQuery verifies a whole-table aggregate: its total count must lie
// between the rows acknowledged when it started and the rows submitted
// when it ended, fall on an append boundary, and match the per-key totals
// of that prefix in first-seen key order.
func (s *ingestState) checkQuery(res *sql.Result, lo, hi int64) error {
	rows := res.Rows.Rows
	var n int64
	for _, r := range rows {
		n += r[1].I
	}
	if n < lo || n > hi {
		return fmt.Errorf("COUNT(*) %d outside [%d, %d]", n, lo, hi)
	}
	if (n-ingestPreload)%ingestBatchRows != 0 {
		return fmt.Errorf("COUNT(*) %d is not an append boundary", n)
	}
	want := s.data.cum[(n-ingestPreload)/ingestBatchRows]
	if len(rows) != len(s.data.keyOrder) {
		return fmt.Errorf("%d groups, want %d", len(rows), len(s.data.keyOrder))
	}
	for i, r := range rows {
		k := s.data.keyOrder[i]
		if r[0].I != k || r[1].I != want[k][0] || r[2].I != want[k][1] {
			return fmt.Errorf("group %d = %v, want k=%d n=%d s=%d", i, r, k, want[k][0], want[k][1])
		}
	}
	return nil
}

// checkWindows re-executes every received window as a batch query over
// the final table restricted to the window and compares rows. It returns
// the number of mismatching windows and the first mismatch.
func (s *ingestState) checkWindows() (int, error) {
	if len(s.windows) == 0 {
		return 0, nil
	}
	rel, ok := s.eng.Table("events")
	if !ok {
		return 1, fmt.Errorf("events table missing")
	}
	from := s.windows[0].win.Start
	suffix := relational.NewRelation("events", rel.Schema)
	for _, r := range rel.Rows {
		if r[1].I >= from {
			suffix.MustAppend(r)
		}
	}
	batch, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		return 1, err
	}
	batch.Register(suffix)
	sess := batch.Session()
	bad := 0
	var first error
	for _, rw := range s.windows {
		w := rw.win
		res, err := sess.Query(context.Background(), fmt.Sprintf(ingestWindowSQL, w.Start, w.End))
		if err == nil {
			var got, want digest
			if got, err = fingerprint(wire.Columns(w.Rows.Schema), wire.Rows(w.Rows)); err == nil {
				want, err = fingerprint(wire.Columns(res.Rows.Schema), wire.Rows(res.Rows))
			}
			if err == nil && got != want {
				err = fmt.Errorf("window [%d, %d) differs from the batch engine", w.Start, w.End)
			}
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// freshness is, per window received in a phase, the time from the due
// time of the append that moved the watermark past its end to its
// receipt, plus the engine's own freshness figure for the same windows.
func (s *ingestState) freshness(st *ingestStats) (bench, engine []float64) {
	for _, rw := range s.windows[st.firstWindow:st.endWindow] {
		// The first append whose watermark reaches the window's end.
		j := sort.Search(len(s.data.batches), func(j int) bool { return watermarkAfter(j) >= rw.win.End })
		if j < st.firstBatch || j-st.firstBatch >= len(st.dues) {
			continue
		}
		bench = append(bench, ms(rw.received.Sub(st.dues[j-st.firstBatch])))
		engine = append(engine, rw.win.FreshnessSeconds*1e3)
	}
	return bench, engine
}

func runIngest(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	phases := 1
	if cfg.trace {
		phases = 2
	}
	// Enough appends for every timed phase plus slack.
	nBatches := phases*int(cfg.window.Seconds()+2)*ingestRate + 16
	var (
		st     *ingestState
		setups []float64
		probes []probe
		err    error
	)
	for moreSetups(setups) {
		if st != nil {
			st.close()
			st = nil
		}
		settle()
		begin := time.Now()
		if st, err = buildIngest(genIngest(cfg.seed, nBatches)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		res, err := st.stmt.Exec(context.Background())
		if err != nil {
			return nil, err
		}
		var p probe
		if res.Net != nil {
			p.netSeconds, p.bytes = res.Net.NetSeconds, res.Net.BytesShuffled
		}
		if res.Admission != nil {
			p.rounds = res.Admission.RoundsJoined
		}
		if probes != nil && fmt.Sprint([]probe{p}) != fmt.Sprint(probes) {
			out.problems = append(out.problems, fmt.Sprintf("probe outputs differ between set-ups: %v vs %v", probes, p))
		}
		probes = []probe{p}
	}
	defer st.close()
	out.e2e.set("setup_s", median(setups), "s")
	fmt.Printf("probe: %s %s\n", cfg.workload, probeLine(probes))

	settle()
	rs := &runtimeSampler{}
	rs.sample()
	plain := st.window(cfg.window, nil, rs)
	out.attempted, out.failed = plain.attempted, plain.failed
	samples := latencyMetrics(out.e2e, [][]float64{plain.latencies})
	out.e2e.set("qps", plain.qps, "1/s")
	out.e2e.set("heap_peak_mb", rs.heapMB(), "MB")

	var (
		traced       *ingestStats
		cpu          map[string]float64
		statsBefore  stream.Stats
		ingestBefore stream.IngestStats
	)
	t := newTracer()
	m := out.layer
	if cfg.trace {
		settle()
		statsBefore, ingestBefore = st.sub.Stats(), st.src.Stats()
		rd := startRuntimeDelta()
		cpu, err = cpuProfile(cfg.outPath("cpu.pprof"), func() {
			traced = st.window(cfg.window, t, &runtimeSampler{})
		})
		if err != nil {
			return nil, err
		}
		rd.perQuery(m, traced.completed)
		out.attempted += traced.attempted
		out.failed += traced.failed
	}

	// Every window received in any phase is checked once, after timing.
	bad, werr := st.checkWindows()
	out.attempted += len(st.windows)
	out.failed += bad
	for _, e := range []error{plain.firstErr, werr} {
		if e != nil {
			fmt.Printf("first failure: %v\n", e)
		}
	}
	fmt.Printf("window: %d queries, %d appends, %d windows, %d failed, %d latency samples\n",
		plain.completed, len(plain.ack), len(st.windows), out.failed, samples)
	final := st.sub.Stats()
	if final.Dropped != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d stream events dropped", final.Dropped))
	}
	if !cfg.trace {
		return out, nil
	}
	if traced.firstErr != nil {
		fmt.Printf("first traced failure: %v\n", traced.firstErr)
	}

	n := float64(max(traced.completed, 1))
	m.set("bench.query_samples", float64(samples), "count")
	m.set("error_frac", float64(out.failed)/float64(max(out.attempted, 1)), "frac")
	m.set("bench.traced_qps_ratio", traced.qps/plain.qps, "frac")
	m.set("ingest_ack_p50_ms", quantile(traced.ack, 0.5), "ms")
	m.set("ingest_ack_p95_ms", quantile(traced.ack, 0.95), "ms")
	m.set("bench.gen_lag_p95_ms", quantile(traced.lag, 0.95), "ms")
	m.set("stream.append_ms", median(traced.appends), "ms")
	bench, engine := st.freshness(traced)
	m.set("freshness_p50_ms", quantile(bench, 0.5), "ms")
	m.set("freshness_p95_ms", quantile(bench, 0.95), "ms")
	m.set("stream.engine_freshness_p50_ms", quantile(engine, 0.5), "ms")
	m.set("stream.windows", float64(final.Windows-statsBefore.Windows), "count")
	m.set("stream.late", float64(final.Late-statsBefore.Late), "count")
	m.set("stream.dropped", float64(final.Dropped), "count")
	m.set("stream.prime_alloc_mb", st.primeAllocMB, "MB")
	ing := st.src.Stats()
	if b := ing.Batches - ingestBefore.Batches; b > 0 {
		m.set("stream.ingest_model_net_ms", (ing.NetSeconds-ingestBefore.NetSeconds)/float64(b)*1e3, "ms")
	}
	m.set("dist.flows_per_query", traced.flows/n, "count")
	m.set("netsim.barrier_wait_ms", traced.barrierWait/n*1e3, "ms")
	m.set("netsim.peak_flows_per_round", float64(st.eng.Fabric().Admission().PeakFlows), "count")
	probeMetrics(m, probes)
	cpuMetrics(m, cpu, traced.completed)
	if err := replay(st.eng.Session(), []string{ingestQuery}, 5, t, m); err != nil {
		return nil, err
	}
	// Under ingest, exec time and operator output come from the window.
	m.set("sql.exec_ms", median(traced.latencies), "ms")
	m.set("relational.rows_out_per_result_row", traced.rowsOut/max(traced.rowsResult, 1), "rows/row")
	if err := t.write(cfg.outPath("spans.jsonl")); err != nil {
		return nil, err
	}
	return out, nil
}
