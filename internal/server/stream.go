package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/relation"
)

// This file is the text/csv transport of the service: the streaming
// mode of POST /v1/plan, /v1/apply, /v1/append, /v1/detect and
// /v1/traceback. It decodes the request headers into the fields the
// JSON request documents carry and meters the body into a segment
// source; plan, detect and traceback then run the same core as their
// JSON and job transports, while apply and append drive the core's
// streaming write (the JSON modes, whose responses carry the marked
// table, call the in-memory forms of the same write loop). The CSV
// body is consumed segment-at-a-time through relation.SegmentReader —
// the table is never materialized — and apply/append stream the
// protected CSV back incrementally, so the endpoints handle tables far
// beyond MaxBodyBytes under bounded memory. MaxBytesReader cannot meter
// such a body without defeating it (it caps the whole stream), so the
// cap moves to per-segment accounting: every segment's wire bytes must
// fit MaxBodyBytes, which bounds the server's buffer exactly like the
// JSON mode's whole-body cap does.
//
// Plan, detect and traceback write nothing before their run has drained
// the body, so every failure keeps the ordinary error envelope. Apply
// and append fail after the first response byte only through the
// api.ErrorTrailer, and the partial CSV must be discarded (see the
// internal/api stream contract).

// maxStreamChunk caps the requested rows-per-segment: a giant chunk
// would turn "streaming" back into whole-table buffering.
const maxStreamChunk = 1 << 20

// isCSVRequest reports whether the request selects the streaming mode.
func isCSVRequest(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == api.ContentTypeCSV
}

// countingReader counts wire bytes consumed from the request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// meteredSegments wraps a SegmentReader with MaxBytesReader-style
// accounting, per segment: if one segment's records span more wire
// bytes than the limit, the stream fails with *http.MaxBytesError (the
// same 413 the JSON mode's whole-body cap produces).
type meteredSegments struct {
	sr    *relation.SegmentReader
	cr    *countingReader
	limit int64
	mark  int64
}

func (m *meteredSegments) Schema() *relation.Schema { return m.sr.Schema() }

func (m *meteredSegments) Next() (*relation.Table, error) {
	seg, err := m.sr.Next()
	if consumed := m.cr.n - m.mark; consumed > m.limit {
		return nil, &http.MaxBytesError{Limit: m.limit}
	}
	m.mark = m.cr.n
	return seg, err
}

// flushingWriter counts response bytes (to tell "nothing committed yet"
// from "mid-stream") and flushes after every write so protected
// segments reach the client as they are produced.
type flushingWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	n  int64
}

func (f *flushingWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.n += int64(n)
	if err == nil {
		_ = f.rc.Flush() // ErrNotSupported just means buffered delivery
	}
	return n, err
}

// quotaSegments layers the tenant's per-request row accounting (and
// its MaxRowsPerRequest quota) over any segment source: every yielded
// segment's rows count toward the request's cumulative total, so a
// stream of small segments hits the same wall as one oversized table.
// It also counts what it yielded, for the text/csv StatsTrailer.
type quotaSegments struct {
	ctx            context.Context
	src            core.Segments
	rows, segments int
}

func (q *quotaSegments) Schema() *relation.Schema { return q.src.Schema() }

func (q *quotaSegments) Next() (*relation.Table, error) {
	seg, err := q.src.Next()
	if seg != nil {
		if qerr := checkRowQuota(q.ctx, seg.NumRows()); qerr != nil {
			return nil, qerr
		}
		if err == nil {
			q.rows += seg.NumRows()
			q.segments++
		}
	}
	return seg, err
}

// csvRequest is a decoded text/csv request: the header metadata every
// streaming mode shares, and the metered body as the segment source.
type csvRequest struct {
	key  api.Key
	opts *api.Options
	src  *quotaSegments
}

// decodeCSV decodes the shared streaming headers and meters the body.
// An absent EtaHeader leaves Eta zero for the core's key check (the
// traceback mode sends none). Everything here runs before the first
// response byte, so failures keep the ordinary error envelope.
func (s *Server) decodeCSV(r *http.Request) (csvRequest, error) {
	var in csvRequest
	schema, err := api.DecodeSchemaHeader(r.Header.Get(api.SchemaHeader))
	if err != nil {
		return in, badRequest(err)
	}
	if in.key.Secret = r.Header.Get(api.SecretHeader); in.key.Secret == "" {
		return in, badRequest(fmt.Errorf("streaming request needs the secret in the %s header", api.SecretHeader))
	}
	if h := r.Header.Get(api.EtaHeader); h != "" {
		if in.key.Eta, err = api.DecodeEtaHeader(h); err != nil {
			return in, badRequest(err)
		}
	}
	if in.opts, err = api.DecodeOptionsHeader(r.Header.Get(api.OptionsHeader)); err != nil {
		return in, badRequest(err)
	}
	chunk, err := api.DecodeChunkHeader(r.Header.Get(api.ChunkHeader))
	if err != nil {
		return in, badRequest(err)
	}
	if chunk == 0 {
		chunk = s.cfg.Defaults.Chunk
	}
	if chunk > maxStreamChunk {
		return in, badRequest(fmt.Errorf("%s %d exceeds the server cap %d", api.ChunkHeader, chunk, maxStreamChunk))
	}
	cr := &countingReader{r: r.Body}
	sr, err := relation.NewSegmentReader(cr, schema, chunk)
	if err != nil {
		return in, badRequest(err)
	}
	in.src = &quotaSegments{ctx: r.Context(), src: &meteredSegments{sr: sr, cr: cr, limit: s.cfg.MaxBodyBytes}}
	return in, nil
}

// readStats is the StatsTrailer of a streaming detect or traceback run.
func (in csvRequest) readStats() api.ReadStreamStats {
	return api.ReadStreamStats{Rows: in.src.rows, Segments: in.src.segments}
}

// writeTrailers completes a body-less streaming run (plan, detect,
// traceback): the empty 200 body, the run summary in the StatsTrailer
// and the result document in the named trailer.
func writeTrailers(w http.ResponseWriter, stats any, name string, result any) error {
	body, err := json.Marshal(result)
	if err != nil {
		return err
	}
	statsJSON, _ := json.Marshal(stats)
	w.Header().Set("Content-Type", api.ContentTypeCSV)
	w.Header().Set("Trailer", api.StatsTrailer+", "+name)
	w.WriteHeader(http.StatusOK)
	// Force chunked transfer so the declared trailers are emitted even
	// though the body is empty.
	_ = http.NewResponseController(w).Flush()
	w.Header().Set(api.StatsTrailer, string(statsJSON))
	w.Header().Set(name, string(body))
	return nil
}

// handlePlanCSV is the streaming mode of POST /v1/plan: the CSV body
// folds into the planner's quasi-tuple sketch — memory stays bounded by
// distinct quasi-tuples — and the computed plan rides the PlanHeader
// trailer beside a PlanStreamStats StatsTrailer.
func (s *Server) handlePlanCSV(w http.ResponseWriter, r *http.Request) error {
	in, err := s.decodeCSV(r)
	if err != nil {
		return err
	}
	resp, err := s.runPlan(r.Context(), api.PlanRequest{Key: in.key, Options: in.opts}, in.src)
	if err != nil {
		return err
	}
	st := resp.Stats
	stats := api.PlanStreamStats{Rows: st.Rows, Segments: in.src.segments,
		K: st.K, Epsilon: st.Epsilon, EffectiveK: st.EffectiveK, AvgLoss: st.AvgLoss}
	return writeTrailers(w, stats, api.PlanHeader, &resp.Plan)
}

// handleDetectCSV is the streaming mode of POST /v1/detect: the CSV
// body is the suspect, the provenance record travels in the
// ProvenanceHeader, and the DetectResponse rides the ResultTrailer.
func (s *Server) handleDetectCSV(w http.ResponseWriter, r *http.Request) error {
	prov, err := api.DecodeProvenanceHeader(r.Header.Get(api.ProvenanceHeader))
	if err != nil {
		return badRequest(err)
	}
	in, err := s.decodeCSV(r)
	if err != nil {
		return err
	}
	resp, err := s.runDetect(r.Context(), api.DetectRequest{Provenance: prov, Key: in.key, Options: in.opts}, in.src)
	if err != nil {
		return err
	}
	return writeTrailers(w, in.readStats(), api.ResultTrailer, resp)
}

// handleTracebackCSV is the streaming mode of POST /v1/traceback: the
// CSV body is the leaked table and the TracebackResponse rides the
// ResultTrailer. Only the master secret travels in headers — the
// candidates come from the server's recipient registry.
func (s *Server) handleTracebackCSV(w http.ResponseWriter, r *http.Request) error {
	in, err := s.decodeCSV(r)
	if err != nil {
		return err
	}
	resp, err := s.runTraceback(r.Context(), api.TracebackRequest{Secret: in.key.Secret, Options: in.opts}, in.src)
	if err != nil {
		return err
	}
	return writeTrailers(w, in.readStats(), api.ResultTrailer, resp)
}

// writeCSV is the streaming mode of POST /v1/apply and /v1/append: the
// CSV body is the table (or delta batch), the response body its
// protected CSV, and the effective (or advanced) plan rides the
// PlanHeader trailer. It owns the split error contract: before the
// first body byte, errors return to the envelope (ordinary status +
// JSON error); after it, they land in ErrorTrailer.
func (s *Server) writeCSV(stream func(*core.Framework, context.Context, core.Segments, *core.Plan, crypt.WatermarkKey, io.Writer) (*core.Streamed, error)) handler {
	return func(w http.ResponseWriter, r *http.Request) error {
		plan, err := api.DecodePlanHeader(r.Header.Get(api.PlanHeader))
		if err != nil {
			return badRequest(err)
		}
		in, err := s.decodeCSV(r)
		if err != nil {
			return err
		}
		fw, key, err := s.keyed(in.key, defaultK(in.opts, plan.K))
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", api.ContentTypeCSV)
		w.Header().Set("Trailer", api.StatsTrailer+", "+api.PlanHeader+", "+api.ErrorTrailer)
		rc := http.NewResponseController(w)
		// The run reads the request body while the response streams;
		// without full duplex, net/http closes the unread body at the
		// first write.
		_ = rc.EnableFullDuplex()
		out := &flushingWriter{w: w, rc: rc}
		res, err := stream(fw, r.Context(), in.src, plan, key, out)
		if err == nil {
			var planJSON string
			if planJSON, err = api.EncodePlanHeader(&res.Plan); err == nil {
				stats, _ := json.Marshal(api.StreamStatsOf(res))
				w.Header().Set(api.StatsTrailer, string(stats))
				w.Header().Set(api.PlanHeader, planJSON)
				return nil
			}
		}
		if out.n == 0 {
			// Nothing committed: hand the error to the envelope, which
			// owns the status code and JSON body.
			w.Header().Del("Trailer")
			w.Header().Del("Content-Type")
			return err
		}
		code, _ := s.classify(err)
		body, _ := json.Marshal(api.Error{Code: code, Message: err.Error()})
		w.Header().Set(api.ErrorTrailer, string(body))
		s.logWarn("stream failed mid-body", "path", r.URL.Path, "error", err.Error())
		return nil
	}
}
