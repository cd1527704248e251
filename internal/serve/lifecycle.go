package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
)

// A job's life is a path through the edges below, and every step a job
// takes goes through transition. The edge's row of lifecycle names the
// journal record it writes, the crash point it passes, the log line it
// emits and the counter it bumps, so the journal, the log and the metrics
// are three views of one table and cannot tell different stories (DESIGN
// §13 has the table and the counters' meanings).
type edge uint8

const (
	edgeSubmit   edge = iota // Submit admitted the job
	edgeReplay               // Open re-admitted it from the journal
	edgeDispatch             // a worker picked it up
	edgeComplete             // it ran to a result
	edgeFail                 // it ran (or its replayed spec compiled) to an error
	edgeCancel               // its submitter left or its deadline passed
	edgeOrphan               // the server closed before it ran
	edgeCrash                // the simulated process died under it
	edgeDedup                // another job's run or a retained outcome answered the submit
	edgeReject               // the submit was turned away before admission
)

type row struct {
	rec   string // journal record kind; "" writes none
	crash string // crash point passed once the record is durable
	msg   string
	level slog.Level
	count outcome
}

var lifecycle = [...]row{
	edgeSubmit:   {recSubmit, CrashSubmit, "job submitted", slog.LevelInfo, submitted},
	edgeReplay:   {"", "", "job replayed from journal", slog.LevelInfo, submitted},
	edgeDispatch: {recDispatch, CrashDispatch, "job dispatched", slog.LevelInfo, uncounted},
	edgeComplete: {recComplete, CrashComplete, "job finished", slog.LevelInfo, completed},
	edgeFail:     {recComplete, "", "job finished", slog.LevelWarn, failed},
	edgeCancel:   {recCancel, "", "job finished", slog.LevelWarn, cancelled},
	edgeOrphan:   {recCancel, "", "job finished", slog.LevelWarn, orphaned},
	edgeCrash:    {"", "", "job finished", slog.LevelWarn, orphaned},
	edgeDedup:    {"", "", "job deduplicated", slog.LevelInfo, deduplicated},
	edgeReject:   {"", "", "job rejected", slog.LevelInfo, uncounted}, // counted by reason
}

// recordOf is the record kind edge e writes for j: its row's, except
// that an orphaned replayed job writes none. Nobody saw it turned away,
// so it stays live and replays on the next Open (the orphan rule).
func recordOf(e edge, j *job) string {
	if e == edgeOrphan && j.replayed {
		return ""
	}
	return lifecycle[e].rec
}

// transition moves j along e, in this order: append the edge's record;
// on a failed append, report the journal degraded (the journal has
// already marked itself); pass the edge's crash point; bump the job's
// tenant's counter; emit the log line. err is the job's error on a
// terminal edge and the reason on a rejection; j.resp is the result on
// the complete edge. A submit whose record is not durable did not happen:
// transition returns the append error before counting or logging it, and
// the caller turns the submit away.
func (s *Server) transition(j *job, e edge, err error) error {
	r := &lifecycle[e]
	var aerr error
	if kind := recordOf(e, j); kind != "" && s.journal != nil {
		rec, oerr := record(kind, j, err)
		if oerr != nil && s.logOn(slog.LevelError) {
			s.log.Error("journal: outcome not retained",
				"job", j.id, "tenant", j.req.Tenant, "key", j.key, "error", oerr.Error())
		}
		aerr = s.journal.append(rec)
		if aerr != nil && s.journal.degraded() && s.logOn(slog.LevelError) {
			s.log.Error("journal degraded: "+kind+" record failed",
				"job", j.id, "tenant", j.req.Tenant, "key", j.key, "error", aerr.Error())
		}
		if aerr == nil && r.crash != "" {
			s.crashPoint(r.crash)
		}
		if aerr != nil && e == edgeSubmit {
			return aerr
		}
	}
	o := r.count
	if e == edgeReject {
		o = classOf(err).reject
	}
	if o != uncounted {
		s.mu.Lock()
		s.tenant(j.req.Tenant).add(o)
		s.mu.Unlock()
	}
	if s.logOn(r.level) {
		s.logEdge(j, e, err)
	}
	return aerr
}

// record builds j's journal record of the given kind. A keyed outcome
// that cannot be encoded is not retained: the record goes without it,
// and the encoding error is returned for the caller to report.
func record(kind string, j *job, err error) (*walRec, error) {
	rec := &walRec{Kind: kind, Job: j.id}
	switch kind {
	case recSubmit:
		rec.Tenant, rec.Key, rec.Weight = j.req.Tenant, j.key, j.req.TenantWeight
		rec.Spec, rec.Fingerprint = &j.req, j.fingerprint
	case recDispatch:
		rec.Attempt = j.attempt
	case recComplete:
		rec.Tenant = j.req.Tenant
		if err != nil {
			rec.Error = err.Error()
			break
		}
		rec.OK = true
		// A keyed outcome is retained for retried submitters.
		if j.key != "" {
			buf := bufpool.GetBytes(replyBytes(j.resp))
			raw, merr := appendResponse(buf[:0], j.resp)
			outcome := bytes.Clone(raw)
			bufpool.PutBytes(buf)
			if merr != nil {
				return rec, fmt.Errorf("serve: encode outcome: %w", merr)
			}
			rec.Key, rec.Outcome = j.key, outcome
		}
	case recCancel:
		rec.Error = err.Error()
	}
	return rec, nil
}

// logEdge emits e's log line for j. Callers check logOn first, so a
// server that does not log builds no record and no attribute slice.
func (s *Server) logEdge(j *job, e edge, err error) {
	r := &lifecycle[e]
	attrs := []any{"job", j.id, "tenant", j.req.Tenant, "key", j.key,
		"fingerprint", j.fingerprint, "attempt", j.attempt}
	switch e {
	case edgeSubmit:
		attrs = append(attrs, "cache_hit", j.cacheHit, "footprint", j.footprint)
	case edgeReplay, edgeDispatch:
		attrs = append(attrs, "resume", j.resume, "footprint", j.footprint)
	case edgeDedup, edgeReject:
	default:
		attrs = append(attrs, "outcome", outcomes[r.count].label)
		if err == nil && j.resp != nil {
			attrs = append(attrs, "sim_s", j.resp.SimSeconds, "attempts", j.resp.Attempts, "resumed", j.resp.Resumed)
		}
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	s.log.Log(context.Background(), r.level, r.msg, attrs...)
}

// logOn reports whether the server logs at level. Without a Logger the
// server's handler is discard, which turns everything down, so no record
// is built only to be thrown away (slog.DiscardHandler is newer than the
// module's Go).
func (s *Server) logOn(level slog.Level) bool {
	return s.log != nil && s.log.Enabled(context.Background(), level)
}

// discard is the handler of a server without a Logger.
type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }

// outcome is one job counter. Every submit lands in exactly one of
// submitted, deduplicated and the rejections; every submitted job ends in
// exactly one of completed, failed, cancelled and orphaned.
type outcome uint8

const (
	submitted outcome = iota
	completed
	failed
	cancelled
	orphaned
	deduplicated
	rejectedOversize
	rejectedBusy
	rejectedDraining
	rejectedInvalid
	uncounted
)

// outcomes names where each counter shows: its field of tenantCounters
// (and so of Metrics, which embeds the tenants' sum) and its label,
// outcome="…" in passion_serve_jobs_total and
// passion_serve_tenant_jobs_total, or reason="…" in
// passion_serve_rejected_total for a rejection.
var outcomes = [uncounted]struct {
	label  string
	reject bool
	field  func(*tenantCounters) *int64
}{
	submitted:        {"submitted", false, func(c *tenantCounters) *int64 { return &c.Submitted }},
	completed:        {"completed", false, func(c *tenantCounters) *int64 { return &c.Completed }},
	failed:           {"failed", false, func(c *tenantCounters) *int64 { return &c.Failed }},
	cancelled:        {"cancelled", false, func(c *tenantCounters) *int64 { return &c.Cancelled }},
	orphaned:         {"orphaned", false, func(c *tenantCounters) *int64 { return &c.Orphaned }},
	deduplicated:     {"deduplicated", false, func(c *tenantCounters) *int64 { return &c.Deduplicated }},
	rejectedOversize: {"oversize", true, func(c *tenantCounters) *int64 { return &c.RejectedOversize }},
	rejectedBusy:     {"busy", true, func(c *tenantCounters) *int64 { return &c.RejectedBusy }},
	rejectedDraining: {"draining", true, func(c *tenantCounters) *int64 { return &c.RejectedDraining }},
	rejectedInvalid:  {"invalid", true, func(c *tenantCounters) *int64 { return &c.RejectedInvalid }},
}

// errClass is what an error means to the lifecycle and to the submitter:
// the HTTP status it answers, the backoff advised before a retry (zero:
// not worth retrying as is), the counter of a submit it turns away and
// the edge a job it ends takes.
type errClass struct {
	status int
	retry  time.Duration
	reject outcome
	end    edge
}

// errClasses are the errors the server itself ends or turns jobs away
// with. A server not taking jobs — draining, closed, crashed or degraded —
// counts a rejection as draining.
var errClasses = []struct {
	err error
	errClass
}{
	{ErrBusy, errClass{http.StatusTooManyRequests, 10 * time.Millisecond, rejectedBusy, edgeFail}},
	{ErrOversize, errClass{http.StatusTooManyRequests, 0, rejectedOversize, edgeFail}},
	{ErrDegraded, errClass{http.StatusServiceUnavailable, 5 * time.Second, rejectedDraining, edgeFail}},
	{ErrDraining, errClass{http.StatusServiceUnavailable, time.Second, rejectedDraining, edgeOrphan}},
	{ErrCrashed, errClass{http.StatusServiceUnavailable, time.Second, rejectedDraining, edgeCrash}},
	{context.DeadlineExceeded, errClass{http.StatusGatewayTimeout, 0, rejectedInvalid, edgeCancel}},
	{context.Canceled, errClass{http.StatusRequestTimeout, 0, rejectedInvalid, edgeCancel}},
}

// classOf classifies err. Anything not in errClasses is the job's own
// failure, and the client's fault (400) when it is a compileError.
func classOf(err error) errClass {
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c.errClass
		}
	}
	if ce := (*compileError)(nil); errors.As(err, &ce) {
		return errClass{http.StatusBadRequest, 0, rejectedInvalid, edgeFail}
	}
	return errClass{http.StatusInternalServerError, 0, rejectedInvalid, edgeFail}
}

// tenantCounters is one account of job outcomes. The server keeps one per
// tenant; Metrics embeds their sum, so every global counter is the sum of
// the per-tenant ones by construction.
type tenantCounters struct {
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Cancelled    int64 `json:"cancelled"`
	Orphaned     int64 `json:"orphaned"`
	Deduplicated int64 `json:"deduplicated,omitempty"`
	// Rejected is the sum of the four reasons after it.
	Rejected         int64 `json:"rejected"`
	RejectedOversize int64 `json:"rejected_oversize"`
	RejectedBusy     int64 `json:"rejected_busy"`
	RejectedDraining int64 `json:"rejected_draining"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
}

func (c *tenantCounters) add(o outcome) {
	*outcomes[o].field(c)++
	if outcomes[o].reject {
		c.Rejected++
	}
}

func (c *tenantCounters) addAll(d *tenantCounters) {
	for _, o := range outcomes {
		*o.field(c) += *o.field(d)
	}
	c.Rejected += d.Rejected
}
