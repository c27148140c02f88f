package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/relational.(*BatchGroupAgg).Next"}, "relational"},
		{[]string{"runtime.mapaccess2", "repro/internal/netsim.(*Simulator).reallocate"}, "netsim"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/serve.writeJSON"}, "httpjson"},
		{[]string{"repro/internal/serve/wire.Rows", "repro/internal/serve.(*Server).handleSQL"}, "wire"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*decodeState).value", "main.decodeResponse"}, "bench"},
		{[]string{"repro/internal/topo.(*Topology).Path"}, "other"},
		{[]string{"runtime.futex", "runtime.mPark"}, "runtime"},
		{[]string{"syscall.Syscall"}, "other"},
		{[]string{"repro/internal/kernels.RadixSort[go.shape.int64]"}, "kernels"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAttributeCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	got, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total <= 0 {
		t.Fatalf("no CPU attributed from a %d-iteration spin: %v", x, got)
	}
}

func TestFingerprintMatchesWire(t *testing.T) {
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sql.RegisterDemo(eng, 1, 2000, 50)
	for _, q := range append(olapStatements, shuffleStatement) {
		res, err := eng.Session().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		w := wire.FromResult(res)
		got, err := fingerprint(w.Columns, w.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := sha256.Sum256([]byte(wire.Fingerprint(w))); got != digest(want) {
			t.Errorf("%s: fingerprint differs from wire.Fingerprint", q)
		}
	}
}

func TestDecodeResponseKeepsCellTypes(t *testing.T) {
	w := &wire.Result{
		Columns: []wire.Column{{Name: "n", Type: "int"}, {Name: "x", Type: "float"}, {Name: "s", Type: "string"}},
		Rows:    [][]any{{int64(1_000_000), 1e21, "a|b"}, {int64(-7), 0.1, ""}},
	}
	body, err := json.Marshal(serve.QueryResponse{Result: w})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := sha256.Sum256([]byte(wire.Fingerprint(w))); got != digest(want) {
		t.Error("decoded rows fingerprint differently from the rows encoded")
	}
}
