package repro

// One benchmark per reproduced exhibit: the paper's Table 1 and Figure 1,
// the sixteen derived experiments E1–E16, and the DESIGN.md ablations.
// Each benchmark regenerates its experiment end-to-end and reports the
// headline numbers as custom metrics; `go test -bench . -benchmem` thus
// re-derives every row EXPERIMENTS.md records. Micro-benchmarks of the
// real building-block implementations follow at the bottom.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mapreduce"
	"repro/internal/sdn"
	"repro/internal/sql"
	"repro/internal/workload"
)

// reportKeys attaches an experiment's key metrics to the benchmark.
func reportKeys(b *testing.B, r *experiments.Report, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := r.Key[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkT1Consortium(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.T1()
	}
	reportKeys(b, r, "partners")
}

func BenchmarkF1Landscape(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.F1()
	}
	reportKeys(b, r, "initiatives", "topics_covered")
}

func BenchmarkE1CatapultTail(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E1()
	}
	reportKeys(b, r, "p99_cut_fraction", "p99_software", "p99_fpga")
}

func BenchmarkE2SDNScale(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E2()
	}
	reportKeys(b, r, "ops_ratio", "sdn_ops_at_max", "legacy_ops_at_max")
}

func BenchmarkE3BandwidthGen(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E3()
	}
	reportKeys(b, r, "speedup_400_vs_10", "maxfct_10", "maxfct_400")
}

func BenchmarkE4Disagg(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E4()
	}
	reportKeys(b, r, "granted_monolithic", "granted_composable", "stranded_cpu_fraction", "upgrade_cost_ratio")
}

func BenchmarkE5Accel10x(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E5()
	}
	reportKeys(b, r, "max_speedup", "cells_at_10x")
}

func BenchmarkE6GPGPUROI(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E6()
	}
	reportKeys(b, r, "breakeven_workrate_kernels_per_s", "savings_at_10", "savings_at_100000")
}

func BenchmarkE7SoCvsSiP(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E7()
	}
	reportKeys(b, r, "crossover_volume", "retrofit_nre_ratio")
}

func BenchmarkE8Abstractions(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E8()
	}
	reportKeys(b, r, "results_agree", "mr_shuffled", "df_shuffled")
}

func BenchmarkE9Portability(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E9()
	}
	reportKeys(b, r, "performance_portability", "spread_worst_over_best")
}

func BenchmarkE10Suite(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E10()
	}
	reportKeys(b, r, "overall_gpu", "overall_hetero", "energy_fpga")
}

func BenchmarkE11Blocks(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E11()
	}
	reportKeys(b, r, "gpu_speedup_matmul", "gpu_speedup_sort")
}

func BenchmarkE12HetSched(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E12()
	}
	reportKeys(b, r, "heft_vs_rr_speedup", "makespan_heft", "makespan_fifo")
}

func BenchmarkE13Findings(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E13()
	}
	reportKeys(b, r, "interviews", "companies", "findings_holding")
}

func BenchmarkE14Roadmap(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E14()
	}
	reportKeys(b, r, "recommendations", "top_priority_id", "near_term_actions")
}

func BenchmarkE15NFV(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E15()
	}
	reportKeys(b, r, "latency_appliance", "latency_nfv", "latency_nfv+offload", "price_ratio_hw_vs_sw")
}

func BenchmarkE16Convergence(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E16()
	}
	reportKeys(b, r, "shared_minus_seg_at_50", "shared_minus_seg_at_1.25")
}

func BenchmarkE17Neuromorphic(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E17()
	}
	reportKeys(b, r, "npu_advantage_at_1eps", "adoption_gap_years")
}

func BenchmarkE18DataPooling(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E18()
	}
	reportKeys(b, r, "mean_err_siloed", "mean_err_pooled", "viable_solo", "viable_pooled")
}

func BenchmarkE19Longitudinal(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E19()
	}
	reportKeys(b, r, "finding1_inversion_year", "bottleneck_awareness_2026")
}

func BenchmarkE20NVMTiering(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E20()
	}
	reportKeys(b, r, "saving_at_2us", "saving_at_20us")
}

func BenchmarkE21EdgeCloud(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.E21()
	}
	reportKeys(b, r, "makespan_hybrid", "misses_cloud", "misses_hybrid")
}

func BenchmarkAblationFusion(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFusion()
	}
	reportKeys(b, r, "fusion_speedup_xeon-2s/simd", "fusion_speedup_gpgpu/simt")
}

func BenchmarkAblationFairness(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFairness()
	}
	reportKeys(b, r, "maxmin_fct", "proportional_fct")
}

func BenchmarkAblationSDNMode(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSDNMode()
	}
	reportKeys(b, r, "reactive_first_packet_us", "proactive_rules")
}

func BenchmarkAblationSort(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSort()
	}
	reportKeys(b, r, "radix_speedup_at_1M")
}

func BenchmarkAblationPacking(b *testing.B) {
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationPacking()
	}
	reportKeys(b, r, "first_fit_granted", "best_fit_granted")
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the real building-block implementations.

func BenchmarkRadixSort1M(b *testing.B) {
	base := make([]uint64, 1<<20)
	st := uint64(7)
	for i := range base {
		st = st*2862933555777941757 + 3037000493
		base[i] = st
	}
	buf := make([]uint64, len(base))
	b.SetBytes(int64(len(base) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		kernels.RadixSortUint64(buf)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	build := make([]kernels.Pair, 1<<16)
	probe := make([]kernels.Pair, 1<<18)
	for i := range build {
		build[i] = kernels.Pair{Key: uint64(i), Val: int64(i)}
	}
	for i := range probe {
		probe[i] = kernels.Pair{Key: uint64(i % (1 << 16)), Val: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.HashJoin(build, probe)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	n := 256
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 97)
		bb[i] = float64(i % 89)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.MatMulNew(a, bb, n, n, n)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := workload.RMAT(3, 1<<14, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.PageRank(g, 0.85, 1e-8, 50)
	}
}

func BenchmarkSubstringScan(b *testing.B) {
	docs := workload.Corpus(13, 100, 400, 800)
	var text []byte
	for _, d := range docs {
		for _, w := range d.Words {
			text = append(text, w...)
			text = append(text, ' ')
		}
	}
	pat := []byte("data")
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SubstringScan(text, pat)
	}
}

// demoBenchEngine builds an engine under cfg over the demo catalog.
func demoBenchEngine(cfg sql.Config, salesRows, customers int) *sql.Engine {
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	sql.RegisterDemo(eng, 42, salesRows, customers)
	return eng
}

func BenchmarkSQLJoinAggregate(b *testing.B) {
	sess := demoBenchEngine(sql.DefaultConfig(), 20000, 500).Session()
	q := `SELECT c.segment, SUM(s.price) AS total
	      FROM sales s JOIN customers c ON s.customer_id = c.customer_id
	      GROUP BY c.segment ORDER BY total DESC`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// SQL engine comparison: morsel-parallel batch engine vs volcano
// row-at-a-time, on a 1M-row fact table. The *Parallel* benchmarks use
// the batch engine (default options); the *Serial* counterparts disable
// it. The paper's Section IV argument is exactly this gap.

// sqlBenchEngines maps Config.Parallel to an engine; both share one
// 1M-row catalog.
var sqlBenchEngines = sync.OnceValue(func() map[bool]*sql.Engine {
	batch := demoBenchEngine(sql.DefaultConfig(), 1<<20, 2000)
	cfg := sql.DefaultConfig()
	cfg.Parallel = false
	row, err := sql.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"sales", "customers"} {
		rel, _ := batch.Table(name)
		row.Register(rel)
	}
	return map[bool]*sql.Engine{true: batch, false: row}
})

func benchSQLEngine(b *testing.B, q string, parallel bool) {
	b.Helper()
	sess := sqlBenchEngines()[parallel].Session()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	sqlScanQuery    = "SELECT order_id, price FROM sales WHERE year >= 2015 AND quantity <= 4"
	sqlJoinQuery    = "SELECT COUNT(*) AS n, SUM(s.price) AS total FROM sales s JOIN customers c ON s.customer_id = c.customer_id WHERE s.year >= 2012"
	sqlGroupByQuery = "SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC"
)

func BenchmarkSQLParallelScan(b *testing.B)    { benchSQLEngine(b, sqlScanQuery, true) }
func BenchmarkSQLSerialScan(b *testing.B)      { benchSQLEngine(b, sqlScanQuery, false) }
func BenchmarkSQLParallelJoin(b *testing.B)    { benchSQLEngine(b, sqlJoinQuery, true) }
func BenchmarkSQLSerialJoin(b *testing.B)      { benchSQLEngine(b, sqlJoinQuery, false) }
func BenchmarkSQLParallelGroupBy(b *testing.B) { benchSQLEngine(b, sqlGroupByQuery, true) }
func BenchmarkSQLSerialGroupBy(b *testing.B)   { benchSQLEngine(b, sqlGroupByQuery, false) }

// ---------------------------------------------------------------------
// Distributed engine: the same queries shard-parallel over the simulated
// leaf–spine fabric (4 shards). Wall time is real compute; the custom
// metrics report what the fabric moved — the roadmap's thesis is that
// this, not the scan speed, bounds scale-out analytics.

var sqlDistBenchEngine = sync.OnceValue(func() *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	return demoBenchEngine(cfg, 1<<20, 2000)
})

func benchSQLDistributed(b *testing.B, q string) {
	b.Helper()
	sess := sqlDistBenchEngine().Session()
	ctx := context.Background()
	var bytes, sec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		bytes, sec = res.Net.BytesShuffled, res.Net.NetSeconds
	}
	b.ReportMetric(bytes, "bytes_shuffled")
	b.ReportMetric(sec*1e6, "net_µs")
}

func BenchmarkSQLDistributedScan(b *testing.B)    { benchSQLDistributed(b, sqlScanQuery) }
func BenchmarkSQLDistributedJoin(b *testing.B)    { benchSQLDistributed(b, sqlJoinQuery) }
func BenchmarkSQLDistributedGroupBy(b *testing.B) { benchSQLDistributed(b, sqlGroupByQuery) }

// ---------------------------------------------------------------------
// Concurrent sessions on one shared fabric: N sessions fire the same
// join query simultaneously at a 4-shard engine whose single network
// simulator admits all of their flows together. net_µs/query is the mean
// per-query simulated network time — watch it degrade as sessions are
// added, which is the multi-query fabric interference the Engine API
// exists to model. (Wall time additionally reflects real compute
// parallelism across the session goroutines.)

var sqlConcBenchEngine = sync.OnceValue(func() *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Topology = "single"
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	sql.RegisterDemo(eng, 42, 1<<18, 2000)
	return eng
})

func benchSQLConcurrent(b *testing.B, sessions int) {
	b.Helper()
	eng := sqlConcBenchEngine()
	ctx := context.Background()
	var netSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Fabric().Expect(sessions)
		secs := make([]float64, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				res, err := eng.Session().Query(ctx, sqlJoinQuery)
				if err != nil {
					errs[s] = err
					eng.Fabric().Withdraw() // keep siblings off a dead barrier
					return
				}
				secs[s] = res.Net.NetSeconds
			}(s)
		}
		wg.Wait()
		total := 0.0
		for s := 0; s < sessions; s++ {
			if errs[s] != nil {
				b.Fatal(errs[s])
			}
			total += secs[s]
		}
		netSec = total / float64(sessions)
	}
	b.ReportMetric(netSec*1e6, "net_µs/query")
	b.ReportMetric(float64(sessions), "sessions")
}

func BenchmarkSQLConcurrent1(b *testing.B)  { benchSQLConcurrent(b, 1) }
func BenchmarkSQLConcurrent4(b *testing.B)  { benchSQLConcurrent(b, 4) }
func BenchmarkSQLConcurrent16(b *testing.B) { benchSQLConcurrent(b, 16) }

// ---------------------------------------------------------------------
// Weighted QoS on the shared fabric: two sessions run the same join
// query simultaneously, one at the given weight and one best-effort.
// net_µs/weighted vs net_µs/peer is the bandwidth share the control
// plane moved: at 1:1 both degrade alike, at 3:1 the weighted session's
// phases complete ~3x faster on every shared bottleneck.

func benchSQLWeighted(b *testing.B, weight float64) {
	b.Helper()
	eng := sqlConcBenchEngine()
	ctx := context.Background()
	var wSec, peerSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Fabric().Expect(2)
		var wg sync.WaitGroup
		var resW, resP *sql.Result
		var errW, errP error
		run := func(res **sql.Result, errOut *error, w float64, class string) {
			defer wg.Done()
			sess := eng.Session()
			sess.Priority, sess.Weight = class, w
			*res, *errOut = sess.Query(ctx, sqlJoinQuery)
			if *errOut != nil {
				eng.Fabric().Withdraw()
			}
		}
		wg.Add(2)
		go run(&resW, &errW, weight, "interactive")
		go run(&resP, &errP, 0, "batch")
		wg.Wait()
		if errW != nil || errP != nil {
			b.Fatal(errW, errP)
		}
		wSec, peerSec = resW.Net.NetSeconds, resP.Net.NetSeconds
	}
	b.ReportMetric(wSec*1e6, "net_µs/weighted")
	b.ReportMetric(peerSec*1e6, "net_µs/peer")
	b.ReportMetric(weight, "weight")
}

func BenchmarkSQLWeightedUniform(b *testing.B) { benchSQLWeighted(b, 1) }
func BenchmarkSQLWeighted3to1(b *testing.B)    { benchSQLWeighted(b, 3) }

// ---------------------------------------------------------------------
// Fabric controller in the loop: 4 concurrent sessions on a leaf–spine
// fabric whose admission rounds pass through an sdn.NetController
// running reroute-hot-links + strict-priority. reroutes counts flows
// the controller moved off their default ECMP paths; ctl_µs is the
// accumulated simulated control-plane latency.

var sqlCtlBenchEngine = sync.OnceValue(func() *sql.Engine {
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 4
	cfg.Topology = "leafspine"
	cfg.Controller = sdn.NewNetController(nil, sdn.Chain{sdn.RerouteHotLinks{}, sdn.StrictPriority{}}, 4096)
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	sql.RegisterDemo(eng, 42, 1<<18, 2000)
	return eng
})

func BenchmarkSQLControllerReroute(b *testing.B) {
	eng := sqlCtlBenchEngine()
	ctl := eng.Config().Controller.(*sdn.NetController)
	ctx := context.Background()
	const sessions = 4
	var netSec float64
	// The engine (and its controller) is shared across iterations and
	// calibration reruns: report per-iteration deltas of its cumulative
	// counters, not lifetime totals.
	overridesBefore := eng.Fabric().Stats().PathOverrides
	ctlBefore := ctl.ControlLatencyUS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Fabric().Expect(sessions)
		secs := make([]float64, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := eng.Session()
				if s == 0 {
					sess.Priority = "interactive"
				}
				res, err := sess.Query(ctx, sqlJoinQuery)
				if err != nil {
					errs[s] = err
					eng.Fabric().Withdraw()
					return
				}
				secs[s] = res.Net.NetSeconds
			}(s)
		}
		wg.Wait()
		total := 0.0
		for s := 0; s < sessions; s++ {
			if errs[s] != nil {
				b.Fatal(errs[s])
			}
			total += secs[s]
		}
		netSec = total / sessions
	}
	b.ReportMetric(netSec*1e6, "net_µs/query")
	b.ReportMetric(float64(eng.Fabric().Stats().PathOverrides-overridesBefore)/float64(b.N), "reroutes/op")
	b.ReportMetric((ctl.ControlLatencyUS-ctlBefore)/float64(b.N), "ctl_µs/op")
}

// ---------------------------------------------------------------------
// Heterogeneous execution: the scan query on the 1M-row fact table with
// the full CPU/GPU/FPGA device set. Wall time is real compute plus
// placement bookkeeping; modeled_µs is the device bill the placement
// policy signed. The PR 5 acceptance criterion — cost-based auto
// placement's modeled seconds never exceed forcing the CPU — is
// asserted inside BenchmarkSQLHeteroAutoPlace, not just reported.

var sqlHeteroBenchEngines = sync.OnceValue(func() map[string]*sql.Engine {
	out := map[string]*sql.Engine{}
	for _, placement := range []string{"", "cpu", "auto"} {
		cfg := sql.DefaultConfig()
		if placement != "" {
			cfg.Devices = []string{"cpu", "gpu", "fpga"}
			cfg.Placement = placement
		}
		eng, err := sql.NewEngine(cfg)
		if err != nil {
			panic(err)
		}
		sql.RegisterDemo(eng, 42, 1<<20, 2000)
		out[placement] = eng
	}
	return out
})

func benchSQLHetero(b *testing.B, placement string) float64 {
	b.Helper()
	sess := sqlHeteroBenchEngines()[placement].Session()
	ctx := context.Background()
	var modeled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Query(ctx, sqlScanQuery)
		if err != nil {
			b.Fatal(err)
		}
		modeled = exec.ModeledSeconds(res.Devices)
	}
	b.ReportMetric(modeled*1e6, "modeled_µs")
	return modeled
}

func BenchmarkSQLHeteroCPUOnly(b *testing.B) { benchSQLHetero(b, "cpu") }

func BenchmarkSQLHeteroAutoPlace(b *testing.B) {
	auto := benchSQLHetero(b, "auto")
	b.StopTimer()
	sess := sqlHeteroBenchEngines()["cpu"].Session()
	res, err := sess.Query(context.Background(), sqlScanQuery)
	if err != nil {
		b.Fatal(err)
	}
	if cpu := exec.ModeledSeconds(res.Devices); auto > cpu {
		b.Fatalf("auto placement modeled %.6gs > cpu-only %.6gs", auto, cpu)
	}
}

// BenchmarkPlacementOverhead isolates the wall-clock cost of the
// placement seam itself: the same 1M-row scan with no device set
// (homogeneous fast path, zero dispatch wrapping) vs the full set under
// auto placement. The ns/op delta between the two sub-benchmarks is the
// per-query price of per-morsel cost-based dispatch.
func BenchmarkPlacementOverhead(b *testing.B) {
	for _, mode := range []struct{ name, placement string }{
		{"homogeneous", ""},
		{"autoplace", "auto"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sess := sqlHeteroBenchEngines()[mode.placement].Session()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Query(ctx, sqlScanQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Out-of-core execution: a join, a high-cardinality group-by and a full
// sort on a 256k-row fact table with a 50k-row dimension, swept from
// unbudgeted down to 2% of the working set. Wall time is real compute
// plus grace partitioning; spill_ms is the modeled tier I/O the budget
// charged. The PR 6 acceptance criterion — spill seconds increase
// monotonically as the budget shrinks, i.e. the engine degrades
// gracefully instead of falling off a cliff — is asserted inside each
// benchmark, not just reported.

const (
	sqlSpillJoinQuery    = "SELECT c.segment, COUNT(*) AS n, SUM(s.quantity) AS qty FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY qty DESC"
	sqlSpillGroupByQuery = "SELECT customer_id, COUNT(*) AS n, SUM(quantity) AS qty FROM sales GROUP BY customer_id ORDER BY qty DESC, customer_id LIMIT 10"
	sqlSpillSortQuery    = "SELECT product, price, quantity FROM sales ORDER BY price DESC, quantity LIMIT 10"
)

// sqlSpillFracs sweeps the budget downward as fractions of the fact
// table's serialized working set; 0 means unbudgeted.
var sqlSpillFracs = []float64{0, 0.5, 0.1, 0.02}

var sqlSpillBenchEngines = sync.OnceValue(func() map[float64]*sql.Engine {
	out := map[float64]*sql.Engine{}
	var workingSet float64
	for _, f := range sqlSpillFracs {
		cfg := sql.DefaultConfig()
		if f > 0 {
			cfg.MemoryBudget = int64(workingSet * f)
			cfg.SpillTier = "ssd"
		}
		eng, err := sql.NewEngine(cfg)
		if err != nil {
			panic(err)
		}
		sql.RegisterDemo(eng, 42, 1<<18, 50000)
		if f == 0 {
			// The unbudgeted engine (built first) measures the working
			// set every budgeted engine's fraction is taken of.
			sales, _ := eng.Table("sales")
			workingSet = sales.EncodedBytes()
		}
		out[f] = eng
	}
	return out
})

func benchSQLSpill(b *testing.B, q string) {
	b.Helper()
	engines := sqlSpillBenchEngines()
	spillSec := make([]float64, len(sqlSpillFracs))
	for fi, f := range sqlSpillFracs {
		name := "unbudgeted"
		if f > 0 {
			name = fmt.Sprintf("budget=%g%%", f*100)
		}
		b.Run(name, func(b *testing.B) {
			sess := engines[f].Session()
			ctx := context.Background()
			var sec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Query(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Spill != nil {
					sec = res.Spill.WriteSeconds + res.Spill.ReadSeconds
				}
			}
			spillSec[fi] = sec
			b.ReportMetric(sec*1e3, "spill_ms")
		})
	}
	for i := 1; i < len(spillSec); i++ {
		if spillSec[i] < spillSec[i-1] {
			b.Fatalf("spill seconds not monotone as the budget shrinks: %v (fractions %v)", spillSec, sqlSpillFracs)
		}
	}
	if last := spillSec[len(spillSec)-1]; last <= 0 {
		b.Fatalf("tightest budget never spilled (spill seconds %v)", spillSec)
	}
}

func BenchmarkSQLSpillJoin(b *testing.B)    { benchSQLSpill(b, sqlSpillJoinQuery) }
func BenchmarkSQLSpillGroupBy(b *testing.B) { benchSQLSpill(b, sqlSpillGroupByQuery) }
func BenchmarkSQLSpillSort(b *testing.B)    { benchSQLSpill(b, sqlSpillSortQuery) }

// == Pipelined distributed movement ==
//
// The pipelined benchmarks sweep the movement chunk size on an 8-shard
// leaf-spine cluster. Chunking never changes rows; what it changes is
// the modeled critical path — WallSeconds() = net + chunk compute −
// measured overlap — which the sweep compares against the bulk
// engine's serial equivalent (bulk net plus the same chunk-invariant
// consumer compute, which bulk pays strictly after the movement). The
// headline acceptance — pipelining beats bulk by ≥1.2× at the best
// chunk size on the shuffle-heavy join, with overlap actually measured
// — is asserted inside BenchmarkSQLPipelinedJoin, not just reported.

const (
	sqlPipeJoinQuery    = "SELECT c.segment, COUNT(*) AS n, SUM(s.price) AS v FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY v DESC"
	sqlPipeGroupByQuery = "SELECT customer_id, COUNT(*) AS n, SUM(price) AS v FROM sales GROUP BY customer_id ORDER BY v DESC, customer_id LIMIT 10"
	sqlPipeGatherQuery  = "SELECT order_id, price FROM sales ORDER BY order_id"
)

// sqlPipeChunks sweeps the per-source chunk size; 0 is the bulk engine
// and 1<<30 is the degenerate one-chunk pipeline (bulk's bit-identical
// replay).
var sqlPipeChunks = []int{0, 1 << 30, 8192, 1024, 128}

var sqlPipeBenchEngines = sync.OnceValue(func() map[int]*sql.Engine {
	out := map[int]*sql.Engine{}
	for _, cr := range sqlPipeChunks {
		cfg := sql.DefaultConfig()
		cfg.Distributed = true
		cfg.Shards = 8
		cfg.Topology = "leafspine"
		cfg.DistJoin = "repartition"
		cfg.PipelineChunkRows = cr
		eng, err := sql.NewEngine(cfg)
		if err != nil {
			panic(err)
		}
		sql.RegisterDemo(eng, 42, 1<<17, 2000)
		out[cr] = eng
	}
	return out
})

func benchSQLPipelined(b *testing.B, q string, wantSpeedup float64) {
	b.Helper()
	engines := sqlPipeBenchEngines()
	var bulkNet float64
	bestWall, bestOverlap, bestCompute, bestChunk := 0.0, 0.0, 0.0, 0
	for _, cr := range sqlPipeChunks {
		name := "bulk"
		if cr > 0 {
			name = fmt.Sprintf("chunk=%d", cr)
		}
		b.Run(name, func(b *testing.B) {
			sess := engines[cr].Session()
			ctx := context.Background()
			var st *dist.QueryStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Query(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				st = res.Net
			}
			if st == nil {
				b.Fatal("distributed run reported no net stats")
			}
			if cr == 0 {
				bulkNet = st.NetSeconds
				b.ReportMetric(st.NetSeconds*1e6, "net_µs")
				return
			}
			b.ReportMetric(st.NetSeconds*1e6, "net_µs")
			b.ReportMetric(st.OverlapSeconds*1e6, "overlap_µs")
			b.ReportMetric(st.WallSeconds()*1e6, "wall_µs")
			if w := st.WallSeconds(); bestWall == 0 || w < bestWall {
				bestWall, bestOverlap, bestCompute, bestChunk = w, st.OverlapSeconds, st.ComputeSeconds, cr
			}
		})
	}
	if bestWall <= 0 || bulkNet <= 0 {
		b.Fatalf("sweep incomplete: bulk net %v, best wall %v", bulkNet, bestWall)
	}
	if bestOverlap <= 0 {
		b.Fatalf("best chunk size %d measured no overlap", bestChunk)
	}
	// Bulk pays the same chunk-invariant consumer compute, strictly after
	// its phases complete.
	speedup := (bulkNet + bestCompute) / bestWall
	b.Logf("best chunk %d: wall %.3fms vs bulk %.3fms (%.2fx), overlap %.3fms",
		bestChunk, bestWall*1e3, (bulkNet+bestCompute)*1e3, speedup, bestOverlap*1e3)
	if speedup < wantSpeedup {
		b.Fatalf("pipelined best (chunk %d) only %.3fx over bulk, want >= %.2fx", bestChunk, speedup, wantSpeedup)
	}
}

func BenchmarkSQLPipelinedJoin(b *testing.B)    { benchSQLPipelined(b, sqlPipeJoinQuery, 1.2) }
func BenchmarkSQLPipelinedGroupBy(b *testing.B) { benchSQLPipelined(b, sqlPipeGroupByQuery, 1.0) }
func BenchmarkSQLPipelinedGather(b *testing.B)  { benchSQLPipelined(b, sqlPipeGatherQuery, 1.0) }

func BenchmarkMapReduceWordCount(b *testing.B) {
	docs := workload.Corpus(5, 200, 200, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := mapreduce.Run(mapreduce.Config{MapTasks: 8, ReduceTasks: 4}, docs,
			func(d workload.Doc, emit func(string, int)) {
				for _, w := range d.Words {
					emit(w, 1)
				}
			},
			func(a, c int) int { return a + c },
			func(_ string, vs []int) int {
				t := 0
				for _, v := range vs {
					t += v
				}
				return t
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflowPipeline(b *testing.B) {
	recs := workload.RecordStream(7, 50000, 256, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dataflow.FromSlice("recs", recs, 8)
		keyed := dataflow.Map(
			dataflow.KeyBy(d, func(r workload.Record) string { return r.Key }),
			func(p dataflow.Pair[string, workload.Record]) dataflow.Pair[string, float64] {
				return dataflow.Pair[string, float64]{Key: p.Key, Val: p.Val.Value}
			})
		sum := dataflow.ReduceByKey(keyed, func(a, c float64) float64 { return a + c })
		if _, err := dataflow.Collect(sum); err != nil {
			b.Fatal(err)
		}
	}
}
