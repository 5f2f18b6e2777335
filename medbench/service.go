package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/tenant"
)

// service-mix payload sizes and request mix.
const (
	svcPlanRows     = 20000 // the frozen plan appends run under; also the detect suspect
	svcDeltaRows    = 2000
	svcJobRows      = 2000
	svcFpRows       = 5000
	svcFpTables     = 12 // distinct fingerprint payloads, each with its own recipients
	svcRecipients   = 4
	svcTenants      = 2
	svcDeltas       = 12 // distinct append payloads
	svcJobTables    = 12 // distinct protect-job payloads
	svcSetups       = 5
	svcPollInterval = 5 * time.Millisecond
	svcCoreReplays  = 8 // direct core calls per kind in a traced run
)

// Request kinds. Each client sends sessions: a seeded shuffle of
// svcSession, so every run has the same mix whatever its seed; appends
// are the most frequent.
const (
	kindAppend      = "append"
	kindDetect      = "detect"
	kindJob         = "job"
	kindFingerprint = "fingerprint"
)

var svcSession = []string{
	kindAppend, kindAppend, kindAppend, kindAppend, kindAppend,
	kindDetect, kindDetect, kindJob, kindJob, kindFingerprint,
}

// svcEnv is a running server plus the request payloads.
type svcEnv struct {
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{}
	audit   *audit.Logger
	client  *http.Client
	base    string
	tokens  []string

	schema       *relation.Schema
	schemaHeader string
	plan         *core.Plan
	planHeader   string
	provHeader   string
	deltas       [][]byte
	suspect      []byte
	jobBodies    [][]byte
	jobReqs      []api.ProtectRequest
	fpBodies     [][]byte
	fpReqs       []api.FingerprintRequest
}

// svcSample is one completed request.
type svcSample struct {
	kind  string
	start time.Time
	lat   time.Duration
	rows  int
	err   error
	job   *jobs.Snapshot
}

// runService drives server.Handler in process over loopback with a
// closed loop of clients, each waiting for its reply before sending the
// next request.
func runService(cfg *config, res *result) error {
	var env *svcEnv
	var setups []float64
	for i := 0; i < svcSetups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupService(cfg, i); err != nil {
			return fmt.Errorf("service set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	// Warm-up: one request of each kind, so lazy set-up in the server
	// and the connection pool is not timed. Failures still count.
	for i, kind := range []string{kindAppend, kindDetect, kindJob, kindFingerprint} {
		s := env.request(kind, env.tokens[i%len(env.tokens)], rand.New(rand.NewSource(cfg.reqSeed)))
		res.attempted++
		res.check(s.err == nil, "warm-up %s: %v", kind, s.err)
	}
	before, err := env.scrape()
	if err != nil {
		return err
	}

	if err := startRSSPeak(); err != nil {
		return err
	}
	a0 := heapAllocs()
	start := time.Now()
	end := deadline(cfg)
	perClient := make([][]svcSample, cfg.clients)
	sessions := make([][]float64, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.reqSeed + int64(c) + 1))
			token := env.tokens[c%len(env.tokens)]
			session := append([]string(nil), svcSession...)
			for time.Now().Before(end) {
				rng.Shuffle(len(session), func(i, j int) { session[i], session[j] = session[j], session[i] })
				began := time.Now()
				for _, kind := range session {
					perClient[c] = append(perClient[c], env.request(kind, token, rng))
				}
				sessions[c] = append(sessions[c], millis(time.Since(began)))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	allocs := heapAllocs() - a0
	if res.e2e["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return err
	}
	res.samples["peak_rss_mib"] = 1

	var all, sessionMs []float64
	for _, ms := range sessions {
		sessionMs = append(sessionMs, ms...)
	}
	byKind := make(map[string][]float64)
	var jobSnaps []svcSample
	rows := 0
	for _, samples := range perClient {
		for _, s := range samples {
			res.attempted++
			if !res.check(s.err == nil, "%s: %v", s.kind, s.err) {
				continue
			}
			ms := millis(s.lat)
			all = append(all, ms)
			byKind[s.kind] = append(byKind[s.kind], ms)
			rows += s.rows
			if s.job != nil {
				jobSnaps = append(jobSnaps, s)
			}
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	n := len(all)
	res.e2e["op_p50_ms"] = median(sessionMs)
	res.e2e["rows_per_s"] = float64(rows) / elapsed.Seconds()
	res.e2e["allocs_per_row"] = perRow(allocs, rows)
	res.samples["op_p50_ms"] = len(sessionMs)
	res.samples["rows_per_s"] = n
	res.samples["allocs_per_row"] = n
	res.op("append_p50_ms", "ms", median(byKind[kindAppend]), len(byKind[kindAppend]))
	res.op("append_p99_ms", "ms", quantile(byKind[kindAppend], 0.99), len(byKind[kindAppend]))
	res.op("detect_req_p50_ms", "ms", median(byKind[kindDetect]), len(byKind[kindDetect]))
	res.op("job_p50_ms", "ms", median(byKind[kindJob]), len(byKind[kindJob]))
	res.op("fingerprint_p50_ms", "ms", median(byKind[kindFingerprint]), len(byKind[kindFingerprint]))
	res.op("service_req_per_s", "1/s", float64(n)/elapsed.Seconds(), n)
	res.info["clients"] = cfg.clients
	res.info["elapsed_s"] = elapsed.Seconds()
	if !cfg.trace {
		return nil
	}
	if err := traceService(res, env, before, byKind, jobSnaps); err != nil {
		return err
	}
	// The requests are this workload's spans, one per client request.
	tr := newTracer(false)
	for c, samples := range perClient {
		for _, s := range samples {
			tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: -1, Name: fmt.Sprintf("client%d.%s", c, s.kind),
				Start: s.start.Sub(start).Nanoseconds(), Dur: s.lat.Nanoseconds()})
		}
	}
	return saveSpans(cfg, tr)
}

// setupService generates the payloads, protects the 20k base table to
// freeze the append plan, and starts the server with two tenants,
// auditing and a file-backed recipient registry.
func setupService(cfg *config, n int) (*svcEnv, error) {
	ctx := context.Background()
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("service-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env := &svcEnv{}
	fw, err := newFramework()
	if err != nil {
		return nil, err
	}
	key := crypt.NewWatermarkKeyFromSecret(ownerSecret, ownerEta)
	base, err := generateTable(svcPlanRows, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	env.schema = base.Schema()
	prot, err := fw.ProtectContext(ctx, base, key)
	if err != nil {
		return nil, err
	}
	env.plan = &prot.Plan
	if env.planHeader, err = api.EncodePlanHeader(env.plan); err != nil {
		return nil, err
	}
	prov, err := json.Marshal(prot.Provenance)
	if err != nil {
		return nil, err
	}
	env.provHeader = string(prov)
	columns := apiColumns(env.schema)
	sh, err := json.Marshal(columns)
	if err != nil {
		return nil, err
	}
	env.schemaHeader = string(sh)
	if env.suspect, err = csvBytes(prot.Table); err != nil {
		return nil, err
	}

	// Append deltas re-send sampled rows of the base table: later visits
	// of known patients. Their bins already exist, so no append can
	// publish a thin new bin.
	rng := rand.New(rand.NewSource(cfg.reqSeed))
	for d := 0; d < svcDeltas; d++ {
		delta := relation.NewTable(env.schema)
		for i := 0; i < svcDeltaRows; i++ {
			if err := delta.AppendRow(base.Row(rng.Intn(base.NumRows()))); err != nil {
				return nil, err
			}
		}
		b, err := csvBytes(delta)
		if err != nil {
			return nil, err
		}
		env.deltas = append(env.deltas, b)
	}

	// Protect-job tables are small enough that the aggressive rule can
	// leave a bin one watermark flip away from k, or no watermark
	// bandwidth at all; set-up keeps only tables the pipeline protects
	// with a mark, so no job in the run fails its checks.
	aggressive := true
	jobCfg := fw.Config()
	jobCfg.Aggressive = true
	jobFw, err := core.New(fw.Trees(), jobCfg)
	if err != nil {
		return nil, err
	}
	for j := 0; len(env.jobReqs) < svcJobTables; j++ {
		if j == 100*svcJobTables {
			return nil, fmt.Errorf("found only %d protectable job tables", len(env.jobReqs))
		}
		tbl, err := generateTable(svcJobRows, cfg.dataSeed+int64(100+j))
		if err != nil {
			return nil, err
		}
		if prot, err := jobFw.ProtectContext(ctx, tbl, key); err != nil || prot.Embed.BitsEmbedded == 0 {
			continue
		}
		b, err := csvBytes(tbl)
		if err != nil {
			return nil, err
		}
		req := api.ProtectRequest{
			Table:   api.Table{Columns: columns, CSV: string(b)},
			Key:     api.Key{Secret: ownerSecret, Eta: ownerEta},
			Options: &api.Options{Aggressive: &aggressive},
			Output:  api.OutputCSV,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		env.jobReqs = append(env.jobReqs, req)
		env.jobBodies = append(env.jobBodies, body)
	}

	// Each fingerprint table has its own fixed recipients, so sending it
	// again re-registers identical records: the registry stays the same
	// size.
	for f := 0; f < svcFpTables; f++ {
		tbl, err := generateTable(svcFpRows, cfg.dataSeed+int64(200+f))
		if err != nil {
			return nil, err
		}
		b, err := csvBytes(tbl)
		if err != nil {
			return nil, err
		}
		req := api.FingerprintRequest{
			Table:  api.Table{Columns: columns, CSV: string(b)},
			Secret: ownerSecret,
			Eta:    ownerEta,
		}
		for i := 0; i < svcRecipients; i++ {
			req.Recipients = append(req.Recipients, api.RecipientRef{ID: fmt.Sprintf("partner-%d-%d", f, i)})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		env.fpReqs = append(env.fpReqs, req)
		env.fpBodies = append(env.fpBodies, body)
	}

	tenants := tenant.New()
	for t := 0; t < svcTenants; t++ {
		token, hash := tenant.NewToken()
		if err := tenants.Put(tenant.Record{ID: fmt.Sprintf("tenant-%d", t), Role: tenant.RoleMember, TokenSHA256: hash}); err != nil {
			return nil, err
		}
		env.tokens = append(env.tokens, token)
	}
	if env.audit, err = audit.Open(filepath.Join(dir, "audit.jsonl")); err != nil {
		return nil, err
	}
	reg, err := registry.Open(filepath.Join(dir, "registry.json"))
	if err != nil {
		return nil, err
	}
	if env.srv, err = server.New(server.Config{Tenants: tenants, Audit: env.audit, Registry: reg}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.httpSrv = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan struct{})
	go func() {
		defer close(env.served)
		_ = env.httpSrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	env.client = &http.Client{
		// The append response carries the advanced plan in a trailer,
		// which must fit the read buffer.
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * cfg.clients, ReadBufferSize: 1 << 20},
		Timeout:   2 * time.Minute,
	}
	return env, nil
}

// close stops the server and waits for it.
func (e *svcEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.httpSrv.Shutdown(ctx)
	<-e.served
	_ = e.srv.Close(ctx)
	_ = e.audit.Close()
	e.client.CloseIdleConnections()
}

func apiColumns(schema *relation.Schema) []api.Column {
	cols := make([]api.Column, schema.NumColumns())
	for i := range cols {
		c := schema.Column(i)
		cols[i] = api.Column{Name: c.Name, Kind: c.Kind.String()}
	}
	return cols
}

func csvBytes(tbl *relation.Table) ([]byte, error) {
	var buf bytes.Buffer
	err := tbl.WriteCSV(&buf)
	return buf.Bytes(), err
}

// request sends one request of kind and checks its response.
func (e *svcEnv) request(kind, token string, rng *rand.Rand) svcSample {
	s := svcSample{kind: kind, start: time.Now()}
	switch kind {
	case kindAppend:
		s.rows = svcDeltaRows
		s.err = e.appendCSV(token, e.deltas[rng.Intn(len(e.deltas))])
	case kindDetect:
		s.rows = svcPlanRows
		s.err = e.detectCSV(token)
	case kindJob:
		s.rows = svcJobRows
		s.job, s.err = e.protectJob(token, e.jobBodies[rng.Intn(len(e.jobBodies))])
	case kindFingerprint:
		s.rows = svcFpRows
		s.err = e.fingerprint(token, e.fpBodies[rng.Intn(len(e.fpBodies))])
	}
	s.lat = time.Since(s.start)
	return s
}

func (e *svcEnv) newRequest(method, path, token string, body []byte) (*http.Request, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, r)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	return req, nil
}

// streamHeaders sets the text/csv streaming headers.
func (e *svcEnv) streamHeaders(req *http.Request) {
	req.Header.Set("Content-Type", api.ContentTypeCSV)
	req.Header.Set(api.SchemaHeader, e.schemaHeader)
	req.Header.Set(api.SecretHeader, ownerSecret)
	req.Header.Set(api.EtaHeader, strconv.Itoa(ownerEta))
}

// do sends req, reads the whole body and fails on a non-2xx status or
// an error trailer.
func (e *svcEnv) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if t := resp.Trailer.Get(api.ErrorTrailer); t != "" {
		return nil, nil, fmt.Errorf("error trailer: %s", t)
	}
	return resp, body, nil
}

func (e *svcEnv) appendCSV(token string, delta []byte) error {
	req, err := e.newRequest(http.MethodPost, "/v1/append", token, delta)
	if err != nil {
		return err
	}
	e.streamHeaders(req)
	req.Header.Set(api.PlanHeader, e.planHeader)
	resp, body, err := e.do(req)
	if err != nil {
		return err
	}
	if lines := bytes.Count(body, []byte("\n")); lines != svcDeltaRows+1 {
		return fmt.Errorf("append returned %d CSV lines, want %d", lines, svcDeltaRows+1)
	}
	if resp.Trailer.Get(api.PlanHeader) == "" {
		return fmt.Errorf("append returned no advanced plan")
	}
	return nil
}

func (e *svcEnv) detectCSV(token string) error {
	req, err := e.newRequest(http.MethodPost, "/v1/detect", token, e.suspect)
	if err != nil {
		return err
	}
	e.streamHeaders(req)
	req.Header.Set(api.ProvenanceHeader, e.provHeader)
	resp, _, err := e.do(req)
	if err != nil {
		return err
	}
	var det api.DetectResponse
	if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ResultTrailer)), &det); err != nil {
		return fmt.Errorf("detect verdict: %w", err)
	}
	if !det.Match || det.MarkLoss != 0 {
		return fmt.Errorf("detect verdict match=%v loss=%v on the clean release", det.Match, det.MarkLoss)
	}
	return nil
}

// protectJob submits a protect job and polls it until it is terminal.
func (e *svcEnv) protectJob(token string, body []byte) (*jobs.Snapshot, error) {
	req, err := e.newRequest(http.MethodPost, "/v1/jobs/protect", token, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	_, out, err := e.do(req)
	if err != nil {
		return nil, err
	}
	var jr api.JobResponse
	if err := json.Unmarshal(out, &jr); err != nil {
		return nil, fmt.Errorf("job submit: %w", err)
	}
	for !jr.Job.State.Terminal() {
		time.Sleep(svcPollInterval)
		req, err := e.newRequest(http.MethodGet, "/v1/jobs/"+jr.Job.ID, token, nil)
		if err != nil {
			return nil, err
		}
		_, out, err := e.do(req)
		if err != nil {
			return nil, err
		}
		jr = api.JobResponse{}
		if err := json.Unmarshal(out, &jr); err != nil {
			return nil, fmt.Errorf("job poll: %w", err)
		}
	}
	if jr.Job.State != jobs.StateSucceeded {
		return nil, fmt.Errorf("job %s ended %s: %s", jr.Job.ID, jr.Job.State, jr.Job.Error)
	}
	var pr api.ProtectResponse
	if err := json.Unmarshal(jr.Result, &pr); err != nil {
		return nil, fmt.Errorf("job result: %w", err)
	}
	if pr.Stats.BitsEmbedded == 0 {
		return nil, fmt.Errorf("job result embedded no bits")
	}
	return &jr.Job, nil
}

func (e *svcEnv) fingerprint(token string, body []byte) error {
	req, err := e.newRequest(http.MethodPost, "/v1/fingerprint", token, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	_, out, err := e.do(req)
	if err != nil {
		return err
	}
	var fr struct {
		Recipients []struct {
			ID string `json:"id"`
		} `json:"recipients"`
	}
	if err := json.Unmarshal(out, &fr); err != nil {
		return fmt.Errorf("fingerprint response: %w", err)
	}
	if len(fr.Recipients) != svcRecipients {
		return fmt.Errorf("fingerprint returned %d copies, want %d", len(fr.Recipients), svcRecipients)
	}
	return nil
}

// routeStats is the server's request-duration histogram sum and count
// for one route, scraped from /metrics.
type routeStats struct{ sum, count float64 }

func (e *svcEnv) scrape() (map[string]routeStats, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	const family = "medshield_http_request_duration_seconds"
	out := make(map[string]routeStats)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var field string
		switch {
		case strings.HasPrefix(line, family+"_sum{"):
			field = "sum"
		case strings.HasPrefix(line, family+"_count{"):
			field = "count"
		default:
			continue
		}
		_, rest, _ := strings.Cut(line, `route="`)
		route, rest, ok := strings.Cut(rest, `"}`)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		rs := out[route]
		if field == "sum" {
			rs.sum = v
		} else {
			rs.count = v
		}
		out[route] = rs
	}
	return out, sc.Err()
}

// traceService reports where a request's time goes: the server-side
// duration per route from /metrics, the core call replayed directly on
// the same payloads, and the job layer's timestamps.
func traceService(res *result, env *svcEnv, before map[string]routeStats, byKind map[string][]float64, jobSamples []svcSample) error {
	after, err := env.scrape()
	if err != nil {
		return err
	}
	serverMs := func(route string) float64 {
		a, b := after[route], before[route]
		if a.count == b.count {
			return 0
		}
		return 1000 * (a.sum - b.sum) / (a.count - b.count)
	}
	coreMs, err := env.replayCore()
	if err != nil {
		return err
	}
	for kind, route := range map[string]string{kindAppend: "/v1/append", kindDetect: "/v1/detect", kindFingerprint: "/v1/fingerprint"} {
		srv := serverMs(route)
		res.layers["server."+kind+"_ms"] = srv
		res.layers["plane."+kind+"_overhead_ms"] = srv - coreMs[kind]
		if len(byKind[kind]) > 0 {
			res.layers["http."+kind+"_client_overhead_ms"] = mean(byKind[kind]) - srv
		}
	}
	res.layers["server.job_submit_ms"] = serverMs("/v1/jobs/{kind}")
	res.layers["server.job_poll_ms"] = serverMs("/v1/jobs/{id}")
	for kind, ms := range coreMs {
		res.layers["core."+kind+"_ms"] = ms
	}
	var wait, run, poll []float64
	for _, s := range jobSamples {
		j := s.job
		wait = append(wait, millis(j.StartedAt.Sub(j.CreatedAt)))
		run = append(run, millis(j.FinishedAt.Sub(j.StartedAt)))
		poll = append(poll, millis(s.lat-j.FinishedAt.Sub(j.CreatedAt)))
	}
	if len(jobSamples) > 0 {
		res.layers["jobs.queue_wait_ms"] = mean(wait)
		res.layers["jobs.run_ms"] = mean(run)
		res.layers["jobs.poll_overhead_ms"] = mean(poll)
	}
	return nil
}

// replayCore calls the core operation behind each request kind directly
// on the same payloads and returns the mean milliseconds per kind.
func (e *svcEnv) replayCore() (map[string]float64, error) {
	ctx := context.Background()
	fw, err := newFramework()
	if err != nil {
		return nil, err
	}
	jobCfg := fw.Config()
	jobCfg.Aggressive = true
	jobFw, err := core.New(fw.Trees(), jobCfg)
	if err != nil {
		return nil, err
	}
	key := crypt.NewWatermarkKeyFromSecret(ownerSecret, ownerEta)
	segments := func(data []byte) (*relation.SegmentReader, error) {
		return relation.NewSegmentReader(bytes.NewReader(data), e.schema, relation.DefaultChunk)
	}
	// Decoding JSON payloads is the handler's work, not core's.
	recipients := make([][]core.Recipient, len(e.fpReqs))
	fpTbls := make([]*relation.Table, len(e.fpReqs))
	for f, req := range e.fpReqs {
		for _, r := range req.Recipients {
			recipients[f] = append(recipients[f], core.Recipient{ID: r.ID, Key: crypt.RecipientWatermarkKey(ownerSecret, r.ID, ownerEta)})
		}
		if fpTbls[f], err = api.DecodeTable(req.Table); err != nil {
			return nil, err
		}
	}
	var prov core.Provenance
	if err := json.Unmarshal([]byte(e.provHeader), &prov); err != nil {
		return nil, err
	}
	var jobTbls []*relation.Table
	for _, req := range e.jobReqs {
		tbl, err := api.DecodeTable(req.Table)
		if err != nil {
			return nil, err
		}
		jobTbls = append(jobTbls, tbl)
	}
	calls := map[string]func(i int) error{
		kindAppend: func(i int) error {
			sr, err := segments(e.deltas[i%len(e.deltas)])
			if err != nil {
				return err
			}
			_, err = fw.AppendStream(ctx, sr, e.plan, key, io.Discard)
			return err
		},
		kindDetect: func(int) error {
			sr, err := segments(e.suspect)
			if err != nil {
				return err
			}
			_, err = fw.DetectStream(ctx, sr, prov, key)
			return err
		},
		"protect": func(i int) error {
			_, err := jobFw.ProtectContext(ctx, jobTbls[i%len(jobTbls)], key)
			return err
		},
		kindFingerprint: func(i int) error {
			_, err := fw.FingerprintContext(ctx, fpTbls[i%len(fpTbls)], recipients[i%len(fpTbls)])
			return err
		},
	}
	out := make(map[string]float64, len(calls))
	for kind, call := range calls {
		var ms []float64
		for i := 0; i < svcCoreReplays; i++ {
			start := time.Now()
			if err := call(i); err != nil {
				return nil, fmt.Errorf("core %s replay: %w", kind, err)
			}
			ms = append(ms, millis(time.Since(start)))
		}
		out[kind] = mean(ms)
	}
	return out, nil
}
