package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// httpWorkload is a workload that drives serve.Server over loopback HTTP
// with closed-loop connections.
type httpWorkload struct {
	// build generates the tables from the seed and registers them on a
	// fresh engine.
	build func(seed uint64) (*sql.Engine, error)
	conns []httpConn
	// prepare routes statements through the server's plan cache.
	prepare bool
	// gang announces each wave of requests on the admission barrier.
	gang bool
	// replays is how often the traced run replays each statement through
	// the library to time parse, prepare, exec and encode separately.
	replays int
}

// httpConn is one connection: a tenant and the statements it cycles.
type httpConn struct {
	tenant string
	stmts  []string
}

// olapStatements are the single-node workload's one-shot statements: a
// group-by, a join plus aggregate, a top-k and a selective scan returning
// about 20 thousand rows. Aggregates are integer or MIN/MAX so every
// engine configuration must return identical rows.
var olapStatements = []string{
	"SELECT region, product, COUNT(*) AS orders, SUM(quantity) AS units, MAX(price) AS top FROM sales GROUP BY region, product ORDER BY region, product",
	"SELECT c.segment, c.country, COUNT(*) AS orders, SUM(s.quantity) AS units FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment, c.country ORDER BY c.segment, c.country",
	"SELECT order_id, customer_id, price FROM sales WHERE year = 2015 AND quantity >= 19 ORDER BY price DESC, order_id LIMIT 20",
	"SELECT order_id, customer_id, region, price FROM sales WHERE price >= 98.0",
}

// shuffleStatement is the serving workload's one statement: a
// repartition join of sales with customers, aggregated per segment.
const shuffleStatement = "SELECT c.segment, COUNT(*) AS orders, SUM(s.quantity) AS units FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY c.segment"

func runOLAP(cfg runConfig) (*outcome, error) {
	return runHTTP(cfg, httpWorkload{
		build: func(seed uint64) (*sql.Engine, error) {
			eng, err := sql.NewEngine(sql.DefaultConfig())
			if err != nil {
				return nil, err
			}
			sql.RegisterDemo(eng, seed, 1_000_000, 2000)
			return eng, nil
		},
		conns:   []httpConn{{tenant: "gold", stmts: olapStatements}},
		replays: 3,
	})
}

func runShuffle(cfg runConfig) (*outcome, error) {
	return runHTTP(cfg, httpWorkload{
		build: func(seed uint64) (*sql.Engine, error) {
			c := sql.DefaultConfig()
			c.Distributed, c.Shards, c.Topology, c.DistJoin = true, 8, "leafspine", "repartition"
			eng, err := sql.NewEngine(c)
			if err != nil {
				return nil, err
			}
			sql.RegisterDemo(eng, seed, 16_384, 2000)
			return eng, nil
		},
		conns: []httpConn{
			{tenant: "gold", stmts: []string{shuffleStatement}},
			{tenant: "bronze", stmts: []string{shuffleStatement}},
		},
		prepare: true,
		gang:    true,
		replays: 20,
	})
}

// serialReference builds the serial row engine over eng's tables.
func serialReference(eng *sql.Engine, tables ...string) (*sql.Engine, error) {
	c := sql.DefaultConfig()
	c.Parallel = false
	ser, err := sql.NewEngine(c)
	if err != nil {
		return nil, err
	}
	for _, name := range tables {
		rel, ok := eng.Table(name)
		if !ok {
			return nil, fmt.Errorf("table %s missing", name)
		}
		ser.Register(rel)
	}
	return ser, nil
}

// probe is the modeled output of one statement run alone.
type probe struct {
	netSeconds, bytes float64
	rounds            int
}

// probePass runs each statement once from a single client and records its
// modeled outputs; they are a pure function of the data and must repeat
// exactly.
func probePass(s *server, key string, stmts []string, prepare bool) ([]probe, error) {
	var out []probe
	for _, q := range stmts {
		body, _, err := s.post(key, q, prepare, nil)
		if err != nil {
			return nil, fmt.Errorf("probe %q: %w", q, err)
		}
		r, _, err := decodeResponse(body)
		if err != nil {
			return nil, err
		}
		var p probe
		if n := r.Result.Net; n != nil {
			p.netSeconds, p.bytes = n.NetSeconds, n.BytesShuffled
		}
		if a := r.Result.Admission; a != nil {
			p.rounds = a.RoundsJoined
		}
		out = append(out, p)
	}
	return out, nil
}

func runHTTP(cfg runConfig, w httpWorkload) (*outcome, error) {
	tenants := serve.DefaultTenants()
	keyOf := func(name string) (string, error) {
		t, ok := tenants.ByName(name)
		if !ok {
			return "", fmt.Errorf("unknown tenant %s", name)
		}
		return t.APIKey, nil
	}
	begin := time.Now()
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	var (
		eng     *sql.Engine
		srv     *server
		setups  []float64
		probes  []probe
		stmtSet []string
	)
	seen := map[string]bool{}
	for _, c := range w.conns {
		for _, q := range c.stmts {
			if !seen[q] {
				seen[q] = true
				stmtSet = append(stmtSet, q)
			}
		}
	}
	firstKey, err := keyOf(w.conns[0].tenant)
	if err != nil {
		return nil, err
	}
	for moreSetups(setups) {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			eng, srv = nil, nil
		}
		settle()
		start := time.Now()
		eng, err = w.build(cfg.seed)
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(eng, len(w.conns)); err != nil {
			return nil, err
		}
		// The first run of each statement per tenant columnarizes the
		// tables, places shards and fills the plan cache.
		for _, c := range w.conns {
			key, err := keyOf(c.tenant)
			if err != nil {
				return nil, err
			}
			for _, q := range c.stmts {
				if _, _, err := srv.post(key, q, w.prepare, nil); err != nil {
					return nil, fmt.Errorf("first run of %q: %w", q, err)
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		p, err := probePass(srv, firstKey, stmtSet, w.prepare)
		if err != nil {
			return nil, err
		}
		if probes != nil && fmt.Sprint(p) != fmt.Sprint(probes) {
			out.problems = append(out.problems, fmt.Sprintf("probe outputs differ between set-ups: %v vs %v", probes, p))
		}
		probes = p
	}
	defer srv.stop()
	out.e2e.set("setup_s", median(setups), "s")
	fmt.Printf("probe: %s %s\n", cfg.workload, probeLine(probes))
	fmt.Printf("set-ups %v done at %.1fs\n", setups, time.Since(begin).Seconds())

	// Reference digests come from the serial row engine over the same
	// relations; they are computed once, outside setup_s.
	ser, err := serialReference(eng, "sales", "customers")
	if err != nil {
		return nil, err
	}
	want := map[string]digest{}
	for _, q := range stmtSet {
		if want[q], err = referenceDigest(ser, q); err != nil {
			return nil, err
		}
	}
	ser = nil
	fmt.Printf("reference digests ready at %.1fs\n", time.Since(begin).Seconds())
	var conns []conn
	for _, c := range w.conns {
		key, err := keyOf(c.tenant)
		if err != nil {
			return nil, err
		}
		cc := conn{key: key}
		for _, q := range c.stmts {
			cc.stmts = append(cc.stmts, statement{sql: q, prepare: w.prepare, want: want[q]})
		}
		conns = append(conns, cc)
	}

	settle()
	rs := &runtimeSampler{}
	rs.sample()
	plain := closedLoop(srv, conns, w.gang, cfg.window, nil, rs)
	if plain.firstErr != nil {
		fmt.Printf("first failure: %v\n", plain.firstErr)
	}
	out.attempted, out.failed = plain.attempted, plain.failed
	samples := latencyMetrics(out.e2e, plain.latencies)
	out.e2e.set("qps", plain.qps, "1/s")
	out.e2e.set("heap_peak_mb", rs.heapMB(), "MB")
	fmt.Printf("window: %d queries, %d failed, %d latency samples; per-statement median ms:", plain.completed, plain.failed, samples)
	for _, xs := range plain.latencies {
		fmt.Printf(" %.1f", median(xs))
	}
	fmt.Println()

	if !cfg.trace {
		return out, nil
	}

	m := out.layer
	m.set("bench.query_samples", float64(samples), "count")
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	settle()
	t := newTracer()
	srv.tracer.Store(t)
	var traced *loopStats
	rd := startRuntimeDelta()
	cpu, err := cpuProfile(cfg.outPath("cpu.pprof"), func() {
		traced = closedLoop(srv, conns, w.gang, cfg.window, t, &runtimeSampler{})
	})
	if err != nil {
		return nil, err
	}
	srv.tracer.Store(nil)
	out.attempted += traced.attempted
	out.failed += traced.failed
	if traced.firstErr != nil {
		fmt.Printf("first traced failure: %v\n", traced.firstErr)
	}
	rd.perQuery(m, traced.completed)
	cpuMetrics(m, cpu, traced.completed)
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	m.set("bench.traced_qps_ratio", traced.qps/plain.qps, "frac")
	m.set("error_frac", float64(out.failed)/float64(max(out.attempted, 1)), "frac")
	m.set("serve.handler_ms", median(t.durations("serve.handler")), "ms")
	m.set("serve.transport_ms", median(t.childGap("client", "serve.handler")), "ms")
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	lookups := hits + float64(after.PlanCache.Misses-before.PlanCache.Misses)
	if lookups > 0 {
		m.set("serve.plan_cache_hit_frac", hits/lookups, "frac")
	}
	n := float64(max(traced.completed, 1))
	m.set("wire.response_kb", traced.respBytes/n/1024, "KiB")
	m.set("dist.flows_per_query", traced.flows/n, "count")
	m.set("netsim.barrier_wait_ms", traced.barrierWait/n*1e3, "ms")
	if fab := eng.Fabric(); fab != nil {
		m.set("netsim.peak_flows_per_round", float64(fab.Admission().PeakFlows), "count")
	}
	probeMetrics(m, probes)

	tenant, _ := tenants.ByName(w.conns[0].tenant)
	if err := replay(tenant.Session(eng), stmtSet, w.replays, t, m); err != nil {
		return nil, err
	}
	if err := t.write(cfg.outPath("spans.jsonl")); err != nil {
		return nil, err
	}
	return out, nil
}

// probeMetrics reports the probe pass's modeled outputs, averaged over
// the statements.
func probeMetrics(m metrics, probes []probe) {
	var net, bytes, rounds float64
	for _, p := range probes {
		net += p.netSeconds
		bytes += p.bytes
		rounds += float64(p.rounds)
	}
	n := float64(max(len(probes), 1))
	m.set("dist.model_net_us_per_query", net/n*1e6, "us")
	m.set("dist.bytes_shuffled_per_query", bytes/n, "B")
	m.set("netsim.rounds_per_query", rounds/n, "count")
}

// probeLine renders probe outputs with every digit, for comparing runs.
func probeLine(probes []probe) string {
	var b bytes.Buffer
	for i, p := range probes {
		fmt.Fprintf(&b, "[%d net_s=%.17g bytes=%.17g rounds=%d]", i, p.netSeconds, p.bytes, p.rounds)
	}
	return b.String()
}

// replay runs each statement n times through the library on sess, timing
// parse, prepare, exec and wire encode as separate spans — inside the
// server they happen within one handler span. Each metric is the mean
// over statements of the statement's median.
func replay(sess *sql.Session, stmts []string, n int, t *tracer, m metrics) error {
	ctx := context.Background()
	var rowsOut, rowsResult float64
	phases := []string{"sql.parse", "sql.prepare", "sql.exec", "wire.encode"}
	durs := make([][][]float64, len(phases)) // phase -> statement -> ms
	for p := range durs {
		durs[p] = make([][]float64, len(stmts))
	}
	for i := 0; i < n; i++ {
		for k, q := range stmts {
			id := t.id()
			ts := []time.Time{time.Now()}
			if _, err := sql.Parse(q); err != nil {
				return err
			}
			ts = append(ts, time.Now())
			stmt, err := sess.Prepare(q)
			if err != nil {
				return err
			}
			ts = append(ts, time.Now())
			res, err := stmt.Exec(ctx)
			if err != nil {
				return err
			}
			ts = append(ts, time.Now())
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(wire.FromResult(res)); err != nil {
				return err
			}
			ts = append(ts, time.Now())
			for p, name := range phases {
				t.record(name, t.id(), id, ts[p], ts[p+1])
				durs[p][k] = append(durs[p][k], ms(ts[p+1].Sub(ts[p])))
			}
			for _, op := range res.Ops {
				rowsOut += float64(op.RowsOut)
			}
			rowsResult += float64(res.Rows.Len())
		}
	}
	typical := func(p int) float64 {
		var meds []float64
		for _, xs := range durs[p] {
			meds = append(meds, median(xs))
		}
		return mean(meds)
	}
	m.set("sql.parse_us", typical(0)*1e3, "us")
	m.set("sql.prepare_us", typical(1)*1e3, "us")
	m.set("sql.exec_ms", typical(2), "ms")
	m.set("wire.encode_ms", typical(3), "ms")
	m.set("relational.rows_out_per_result_row", rowsOut/max(rowsResult, 1), "rows/row")
	return nil
}
