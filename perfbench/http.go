package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// spanHeader carries the client span's id to the handler span.
const spanHeader = "X-Perfbench-Span"

// server is one serve.Server on a loopback HTTP listener plus the client
// the workload drives it with.
type server struct {
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	client *http.Client
	// tracer, when set, makes the handler wrapper record serve.handler spans.
	tracer atomic.Pointer[tracer]
}

// startServer fronts eng with the default tenants on 127.0.0.1 and opens
// a client allowed conns connections.
func startServer(eng *sql.Engine, conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{served: make(chan error, 1)}
	h := serve.New(eng, serve.DefaultTenants(), serve.Options{}).Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.tracer.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record("serve.handler", t.id(), parent, start, time.Now())
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

// stop shuts the listener down and waits for the serve loop to end.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.tr.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post submits one statement for the tenant with API key key and returns
// the raw response body and the client-observed latency: from sending the
// request to having read the whole body.
func (s *server) post(key, q string, prepare bool, t *tracer) ([]byte, time.Duration, error) {
	body, err := json.Marshal(serve.QueryRequest{SQL: q, Prepare: prepare})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/sql", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set("Content-Type", "application/json")
	id := t.id()
	if t != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	t.record("client", id, 0, start, end)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, end.Sub(start), nil
}

// gang posts an announce or withdraw to /v1/gang.
func (s *server) gang(key string, g serve.GangRequest) error {
	body, err := json.Marshal(g)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/gang", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return nil
}

// metrics fetches the server's /metrics document.
func (s *server) metrics() (*serve.Metrics, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// digest is a SHA-256 over the wire.Fingerprint rendering of a result.
type digest [sha256.Size]byte

// fingerprint renders columns and typed cells (int64, float64, string)
// exactly as wire.Fingerprint does, hashing as it goes. wire.Fingerprint
// builds its string by repeated concatenation, which is quadratic in the
// row count and takes minutes on the selective scan's tens of thousands
// of rows; checkFingerprintFormat proves the two renderings agree.
func fingerprint(cols []wire.Column, rows [][]any) (digest, error) {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	for _, c := range cols {
		buf = append(buf, c.Name...)
		buf = append(buf, ':')
		buf = append(buf, c.Type...)
		buf = append(buf, ';')
	}
	buf = append(buf, '\n')
	for _, row := range rows {
		for _, cell := range row {
			switch v := cell.(type) {
			case int64:
				buf = strconv.AppendInt(buf, v, 10)
			case float64:
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			case string:
				buf = append(buf, v...)
			default:
				return digest{}, fmt.Errorf("fingerprint: unexpected cell %T", cell)
			}
			buf = append(buf, '|')
		}
		buf = append(buf, '\n')
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	var d digest
	h.Sum(d[:0])
	return d, nil
}

// checkFingerprintFormat compares fingerprint with wire.Fingerprint on
// (at most the first 500 rows of) r.
func checkFingerprintFormat(r *wire.Result) error {
	short := *r
	if len(short.Rows) > 500 {
		short.Rows = short.Rows[:500]
	}
	want := sha256.Sum256([]byte(wire.Fingerprint(&short)))
	got, err := fingerprint(short.Columns, short.Rows)
	if err != nil {
		return err
	}
	if got != digest(want) {
		return fmt.Errorf("fingerprint rendering differs from wire.Fingerprint")
	}
	return nil
}

// referenceDigest runs q on the serial row engine and fingerprints it.
func referenceDigest(serial *sql.Engine, q string) (digest, error) {
	res, err := serial.Session().Query(context.Background(), q)
	if err != nil {
		return digest{}, fmt.Errorf("reference %q: %w", q, err)
	}
	w := wire.FromResult(res)
	if err := checkFingerprintFormat(w); err != nil {
		return digest{}, err
	}
	return fingerprint(w.Columns, w.Rows)
}

// response is the part of a /v1/sql response the benchmark reads.
type response struct {
	Result struct {
		Columns   []wire.Column    `json:"columns"`
		Rows      [][]any          `json:"rows"`
		Net       *wire.NetStats   `json:"net"`
		Admission *wire.PartyStats `json:"admission"`
	} `json:"result"`
}

// decodeResponse parses a response body and fingerprints its rows, typing
// each cell by its column so ints and floats render as the library's
// values do.
func decodeResponse(body []byte) (*response, digest, error) {
	var r response
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&r); err != nil {
		return nil, digest{}, fmt.Errorf("decode response: %w", err)
	}
	cols := r.Result.Columns
	for i, cells := range r.Result.Rows {
		if len(cells) != len(cols) {
			return nil, digest{}, fmt.Errorf("row %d has %d cells for %d columns", i, len(cells), len(cols))
		}
		for j, c := range cells {
			v, err := typedCell(c, cols[j].Type)
			if err != nil {
				return nil, digest{}, fmt.Errorf("row %d column %d: %w", i, j, err)
			}
			cells[j] = v
		}
	}
	d, err := fingerprint(cols, r.Result.Rows)
	return &r, d, err
}

func typedCell(c any, typ string) (any, error) {
	switch typ {
	case "int", "float":
		n, ok := c.(json.Number)
		if !ok {
			return nil, fmt.Errorf("expected a number, got %T", c)
		}
		if typ == "int" {
			return strconv.ParseInt(string(n), 10, 64)
		}
		return strconv.ParseFloat(string(n), 64)
	case "string":
		s, ok := c.(string)
		if !ok {
			return nil, fmt.Errorf("expected a string, got %T", c)
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown column type %q", typ)
}

// statement is one statement a connection submits, with the digest its
// rows must match.
type statement struct {
	sql     string
	prepare bool
	want    digest
}

// conn is one client connection: a tenant's key and the statements it
// submits round-robin in a closed loop.
type conn struct {
	key   string
	stmts []statement
}

// loopStats is what one closed-loop window measured.
type loopStats struct {
	attempted, failed int
	// latencies[i] holds the client latencies (ms) of statement i.
	latencies [][]float64
	qps       float64
	// Per completed query sums.
	respBytes, flows, barrierWait float64
	completed                     int
	firstErr                      error
}

// closedLoop runs waves until d has passed: in each wave every connection
// sends its next request at once, and the wave ends when every response
// is checked. A request counts as failed when it errors, returns non-200
// or its rows differ from the statement's reference digest. With gang
// set, each wave is first announced on the fabric's admission barrier
// (POST /v1/gang), so the connections' queries share every admission
// round. Left free-running, two loops settle either into sharing rounds
// or into taking turns, and qps jumps between those two modes from run to
// run. qps divides completed queries by the time the waves spent waiting
// for responses, excluding output checks, so it is the server's
// throughput, not the checker's.
func closedLoop(s *server, conns []conn, gang bool, d time.Duration, t *tracer, rs *runtimeSampler) *loopStats {
	nStmt := 0
	for _, c := range conns {
		nStmt = max(nStmt, len(c.stmts))
	}
	out := &loopStats{latencies: make([][]float64, nStmt)}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
		mu.Unlock()
	}
	var serving time.Duration
	deadline := time.Now().Add(d)
	for wave := 0; time.Now().Before(deadline); wave++ {
		start := time.Now()
		if gang {
			if err := s.gang(conns[0].key, serve.GangRequest{Announce: len(conns)}); err != nil {
				out.attempted++
				fail(fmt.Errorf("announce: %w", err))
				continue
			}
		}
		answered := make([]time.Time, len(conns))
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c conn) {
				defer wg.Done()
				k := wave % len(c.stmts)
				st := c.stmts[k]
				body, lat, err := s.post(c.key, st.sql, st.prepare, t)
				answered[i] = time.Now()
				rs.sample()
				if err != nil && gang {
					// Release the slot this request will never fill; the
					// server caps withdrawals at the slots outstanding.
					if werr := s.gang(c.key, serve.GangRequest{Withdraw: 1}); werr != nil {
						err = fmt.Errorf("%w (withdraw: %v)", err, werr)
					}
				}
				var r *response
				if err == nil {
					var got digest
					r, got, err = decodeResponse(body)
					if err == nil && got != st.want {
						err = fmt.Errorf("rows of %q differ from the serial engine's", st.sql)
					}
				}
				mu.Lock()
				out.attempted++
				mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				out.completed++
				out.latencies[k] = append(out.latencies[k], ms(lat))
				out.respBytes += float64(len(body))
				if n := r.Result.Net; n != nil {
					out.flows += float64(n.Flows)
				}
				if a := r.Result.Admission; a != nil {
					out.barrierWait += a.BarrierWaitSeconds
				}
			}(i, c)
		}
		wg.Wait()
		last := start
		for _, a := range answered {
			if a.After(last) {
				last = a
			}
		}
		serving += last.Sub(start)
	}
	if serving > 0 {
		out.qps = float64(out.completed) / serving.Seconds()
	}
	return out
}
