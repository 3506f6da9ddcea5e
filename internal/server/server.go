package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/workload"
)

// Config parameterizes the daemon.
type Config struct {
	// Policy makes admission decisions; nil means &admission.Rota{},
	// which is what rotad passes. It is a Rota by type: the live ledger
	// reserves the witness plan every Rota admit carries, and a policy
	// that admits without one cannot be held to Theorem 4.
	Policy *admission.Rota
	// Theta is the initial availability.
	Theta resource.Set
	// Now is the initial ledger clock.
	Now interval.Time
	// Workers is the number of decision slots: at most this many admits
	// decide at once, each on its own request goroutine, and the rest
	// wait for a slot until their deadline. Default GOMAXPROCS.
	Workers int
	// DecisionTimeout bounds one admit's slot wait plus decision; default
	// 2s. It bounds the wait, not the plan search, which is bounded by
	// itself: a plan found after the deadline is refused at reserve and
	// never applied, so a timed-out client never holds resources.
	DecisionTimeout time.Duration
	// Owned restricts the ledger to these locations (cluster mode):
	// admissions and prepares naming any other location are rejected
	// with ErrNotOwned. Nil means standalone — own everything. A
	// non-nil empty slice means "own nothing yet": a node joining a
	// cluster starts that way and gains locations via handoff.
	Owned []resource.Location
	// Obs is the observability sink: structured event logging, trace
	// correlation and the slow-decision tracer. Nil disables event
	// logging; the /metrics exposition is always served.
	Obs *obs.Observer
	// Spans is the hierarchical span store: every admission phase is
	// recorded as a span and served by GET /debug/rota/trace/{id}. Nil
	// disables span tracing.
	Spans *span.Store
	// Assure is the deadline-assurance promise ledger: every admitted
	// job's promised window is tracked to a terminal outcome and served
	// on GET /v1/assure. Nil disables promise tracking.
	Assure *assure.Ledger
	// FlightRec is the anomaly flight recorder: recent events and spans
	// frozen into snapshots when a trigger fires, served under
	// GET /debug/rota/flightrec. Nil disables snapshot capture.
	FlightRec *flightrec.Recorder
}

func (c *Config) fill() {
	if c.Policy == nil {
		c.Policy = &admission.Rota{}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DecisionTimeout <= 0 {
		c.DecisionTimeout = 2 * time.Second
	}
}

// Server is the rotad daemon core: ledger + decision slots + HTTP
// handler. Create with New, serve via the http.Handler interface, stop
// with Shutdown.
type Server struct {
	cfg    Config
	ledger *Ledger
	mux    *http.ServeMux

	// slots is the decision semaphore: an admit holds one of its
	// cfg.Workers slots while it decides on its own goroutine; waiting
	// counts the admits blocked on a full semaphore.
	slots   chan struct{}
	waiting atomic.Int64

	// drainMu serializes the draining flag against inflight.Add: admits
	// hold it shared to check and Add, Shutdown exclusively to flip the
	// flag, so no admit can start after a drain has begun waiting.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	started       time.Time
	admitted      atomic.Uint64
	rejected      atomic.Uint64
	errored       atomic.Uint64
	timedOut      atomic.Uint64
	released      atomic.Uint64
	lateDecisions atomic.Uint64
	latencyUS     *metrics.Histogram

	obs       *obs.Observer
	httpStats map[string]*obs.EndpointStats

	// snapshot is the query-snapshot hook every query evaluation reads
	// through (ledgerSnapshot unless SetQuerySnapshot replaced it), and
	// queries the temporal-query subscription manager: standing queries
	// re-evaluated on every ledger epoch bump.
	snapshot       QuerySnapshot
	queries        *query.Manager
	queryCount     atomic.Uint64
	queryLatencyUS *metrics.Histogram
	webhookMu      sync.Mutex
	webhooks       map[uint64]*query.Subscription
}

// New builds a daemon core (no listener — the caller attaches it to an
// http.Server or httptest).
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:            cfg,
		slots:          make(chan struct{}, cfg.Workers),
		started:        time.Now(),
		latencyUS:      metrics.NewHistogram(),
		queryLatencyUS: metrics.NewHistogram(),
		obs:            cfg.Obs,
		httpStats:      make(map[string]*obs.EndpointStats),
		webhooks:       make(map[uint64]*query.Subscription),
	}
	// The method value is taken once: one per evaluation would allocate.
	s.snapshot = s.ledgerSnapshot
	// The manager evaluates through s.ledger only once a subscription
	// exists, so it can be built first and hand the ledger its notifier.
	s.queries = query.NewManager(s.watchEval, s.queryLog())
	s.ledger = NewLedger(cfg, func(epoch uint64, o op) {
		var took, gave []resource.Set
		if s.queries.Live() {
			took, gave = o.flow()
		}
		s.queries.BumpAt(epoch, o.reason(), o.locs, o.rec.name, took, gave)
	})
	s.mux = http.NewServeMux()
	s.route("POST /v1/admit", "admit", s.handleAdmit)
	s.route("POST /v1/release", "release", s.handleRelease)
	s.route("POST /v1/acquire", "acquire", s.handleAcquire)
	s.route("POST /v1/advance", "advance", s.handleAdvance)
	s.route("GET /v1/ledger", "ledger", s.handleLedger)
	s.route("GET /v1/query", "query", s.handleQuery)
	s.route("POST /v1/query", "query.eval", s.handleQueryPost)
	s.route("GET /v1/watch", "watch", s.handleWatch)
	s.route("POST /v1/watch", "watch.hook", s.handleWatchHook)
	s.route("DELETE /v1/watch", "watch.drop", s.handleWatchDrop)
	s.route("GET /v1/stats", "stats", s.handleStats)
	s.route("GET /v1/assure", "assure", s.handleAssure)
	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /debug/rota/trace/{id}", "trace", s.handleTraceDump)
	s.route("GET /debug/rota/flightrec", "flightrec", s.handleFlightRecIndex)
	s.route("GET /debug/rota/flightrec/{id}", "flightrec.get", s.handleFlightRecGet)
	s.mux.HandleFunc("GET /metrics", obs.Handler(s))
	// The node-local half of the federation protocol (internal/cluster
	// drives these on peers).
	s.route("POST /v1/cluster/prepare", "cluster.prepare", s.handlePrepare)
	s.route("POST /v1/cluster/commit", "cluster.commit", s.handleFinish("commit"))
	s.route("POST /v1/cluster/abort", "cluster.abort", s.handleFinish("abort"))
	s.route("GET /v1/cluster/free", "cluster.free", s.handleFree)
	return s, nil
}

// route registers an instrumented handler: per-endpoint request/latency
// /status counters plus trace-ID minting and propagation.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	es := obs.NewEndpointStats(endpoint)
	s.httpStats[endpoint] = es
	s.mux.HandleFunc(pattern, obs.Instrument(es, h))
}

// Ledger exposes the live ledger (selftest and tests).
func (s *Server) Ledger() *Ledger {
	return s.ledger
}

// Policy is the admission policy the server decides with; a cluster
// coordinator plans a spanning job with it too.
func (s *Server) Policy() *admission.Rota { return s.cfg.Policy }

// Assure exposes the promise ledger (nil when disabled). The cluster
// layer reaches it here so promises survive jobs changing owners.
func (s *Server) Assure() *assure.Ledger {
	return s.cfg.Assure
}

// FlightRecorder exposes the anomaly flight recorder (nil when
// disabled). The cluster layer fires membership triggers through it.
func (s *Server) FlightRecorder() *flightrec.Recorder {
	return s.cfg.FlightRec
}

// queryLog returns the structured-event sink handed to the query
// manager. With a flight recorder attached, a watch-queue overflow
// (the manager dropping a notification) freezes a snapshot: a consumer
// that missed a verdict flip is an anomaly someone will ask about.
func (s *Server) queryLog() func(event string, kv ...any) {
	if s.cfg.FlightRec == nil {
		return s.obs.Log
	}
	return func(event string, kv ...any) {
		if event == "query.drop" {
			s.cfg.FlightRec.Trigger(flightrec.TriggerWatchDrop, fmt.Sprint(kv...))
		}
		s.obs.Log(event, kv...)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// decide waits for a decision slot, at most until ctx is done, and then
// runs place on the calling goroutine. The slots bound how many
// Theorem-4 searches run at once however many requests are in flight,
// local or coordinated.
func (s *Server) decide(ctx context.Context, job workload.Job, trace string, place Placement) (admission.Decision, error) {
	waitStart := time.Now()
	s.waiting.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.waiting.Add(-1)
	case <-ctx.Done():
		s.waiting.Add(-1)
		return admission.Decision{}, ctx.Err()
	}
	start := time.Now()
	queued := start.Sub(waitStart)
	span.FromContext(ctx).Int("queue_wait_us", queued.Microseconds())
	dec, err := place(ctx)
	decided := time.Since(start)
	<-s.slots
	if err == nil {
		// Only genuine verdicts feed the decision-latency histogram;
		// duplicate names, timeouts and internal errors never reach one.
		s.latencyUS.Observe(float64(decided.Microseconds()))
	}
	if err == nil && dec.Admit {
		s.obs.Log("ledger.reserve",
			"trace", trace,
			"job", job.Dist.Name,
			"finish", dec.Plan.Finish,
			"deadline", job.Dist.Deadline)
	}
	if thr := s.obs.SlowThreshold(); thr > 0 && decided >= thr {
		s.traceSlowDecision(job, trace, dec, err, queued, decided)
	}
	return dec, err
}

// traceSlowDecision logs a decision that exceeded the slow threshold:
// the job, its resource footprint, and per-phase timings (slot wait vs
// ledger lock + policy search).
func (s *Server) traceSlowDecision(job workload.Job, trace string, dec admission.Decision, err error, queued, decided time.Duration) {
	locs := job.Dist.Locations()
	parts := make([]string, len(locs))
	for i, loc := range locs {
		parts[i] = string(loc)
	}
	s.obs.Log("admit.slow_decision",
		"trace", trace,
		"job", job.Dist.Name,
		"footprint", strings.Join(parts, ","),
		"admit", err == nil && dec.Admit,
		"queue_wait_us", queued.Microseconds(),
		"decision_us", decided.Microseconds(),
		"total_us", (queued + decided).Microseconds(),
		"policy_us", dec.Elapsed.Microseconds())
}

// Shutdown gracefully stops the daemon: new admissions are refused
// immediately, and admits already waiting or deciding finish (bounded by
// ctx) before the query manager closes. Every call waits, so a call
// whose ctx ran out can be followed by one that completes the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	s.queries.Close()
	return nil
}

// enter registers an admit with the drain, unless the daemon is
// draining; on true the caller must call s.inflight.Done.
func (s *Server) enter() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// API request/response bodies.

// AdmitResponse is the verdict returned by POST /v1/admit.
type AdmitResponse struct {
	Job    string `json:"job"`
	Admit  bool   `json:"admit"`
	Reason string `json:"reason,omitempty"`
	// Provenance is the structured decision provenance of a rejection:
	// which pipeline stage, constraint, resource term and window failed.
	Provenance *span.Provenance `json:"provenance,omitempty"`
	// Finish is the witness plan's completion time (admitted only).
	Finish interval.Time `json:"finish,omitempty"`
	// Deadline echoes the job's deadline.
	Deadline interval.Time `json:"deadline"`
	// ElapsedUS is the policy decision cost in microseconds, measured
	// uniformly by admission.Decide.
	ElapsedUS int64 `json:"elapsed_us"`
}

type releaseRequest struct {
	Name string `json:"name"`
}

type acquireRequest struct {
	// Theta is a compact resource-set literal, e.g. "5:cpu@l1:(0,100)".
	Theta string `json:"theta"`
}

type advanceRequest struct {
	Now interval.Time `json:"now"`
}

// StatsResponse is the digest returned by GET /v1/stats; its metric
// tags render the same snapshot as /metrics (obs.Exposition.Struct).
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds" metric:"rota_uptime_seconds" help:"Seconds since the daemon started."`
	// Build identifies the running binary so dashboards can detect
	// restarts and version skew across a cluster (rota_build_info).
	Build BuildInfo `json:"build"`
	Now   int64     `json:"now" metric:"rota_ledger_now" help:"The ledger clock, in ticks."`
	// LedgerEpoch is the ledger's mutation epoch (also under query.epoch;
	// surfaced at the top level so restart detection needs one field).
	LedgerEpoch uint64 `json:"ledger_epoch" metric:"rota_ledger_epoch" help:"Ledger mutation epoch; every bump wakes the standing queries whose read set it touched."`
	Shards      int    `json:"shards" metric:"rota_ledger_shards" help:"Location shards in the live ledger."`
	Commitments int    `json:"commitments" metric:"rota_ledger_commitments" help:"Live admitted commitments."`

	// Decisions = Admitted + Rejected, always.
	Decisions uint64 `json:"decisions" metric:"rota_decisions_total" help:"Admission verdicts reached, local or coordinated (admitted + rejected)."`
	Admitted  uint64 `json:"admitted" metric:"rota_admitted_total" help:"Jobs admitted with a reserved witness plan."`
	Rejected  uint64 `json:"rejected" metric:"rota_rejected_total" help:"Jobs refused by the Theorem-4 check."`
	Released  uint64 `json:"released" metric:"rota_released_total" help:"Commitments released via the API."`
	Errors    uint64 `json:"errors" metric:"rota_errors_total" help:"Requests that failed before a verdict."`
	TimedOut  uint64 `json:"timed_out" metric:"rota_timeouts_total" help:"Admissions, local or coordinated, that exceeded the decision deadline."`
	// LateDecisions counts the timed-out admits whose witness plan was
	// found but refused at reserve because the deadline had passed; they
	// reserved nothing (and are counted in TimedOut too).
	LateDecisions uint64 `json:"late_decisions" metric:"rota_late_decisions_total" help:"Plans found after their admit's deadline and refused at reserve (nothing reserved)."`

	// QueueDepth and InFlight are point-in-time gauges of the decision
	// slots: admits waiting for a slot and admits holding one. A
	// coordinated admit holds its slot through every two-phase round.
	QueueDepth int64 `json:"queue_depth" metric:"rota_queue_depth" help:"Admits, local or coordinated, waiting for a decision slot."`
	InFlight   int64 `json:"in_flight" metric:"rota_inflight_decisions" help:"Admits, local or coordinated, holding a decision slot mid-placement."`

	// Holds counts live leased two-phase holds; TwoPhase digests the
	// federation traffic this node served as a participant.
	Holds    int              `json:"holds" metric:"rota_ledger_holds" help:"Live leased two-phase holds."`
	TwoPhase TwoPhaseCounters `json:"two_phase"`

	// AdmitHot digests the admission hot path: reserve rounds, optimistic
	// retries and fallbacks, and free-view cache patches vs recomputes.
	AdmitHot AdmitHotCounters `json:"admit_hot"`

	// DecisionLatencyUS digests decision service time while holding a
	// slot in microseconds: plan search and reserve for a local admit,
	// the free, prepare and commit rounds too for a coordinated one.
	DecisionLatencyUS metrics.HistogramSummary `json:"decision_latency_us" metric:"rota_decision_latency_us" help:"Decision service time while holding a slot, local or coordinated, in microseconds."`

	// Spans digests the span store: ring-buffer bound, live records, and
	// the recorded/evicted totals that prove the store stays bounded.
	Spans span.Stats `json:"spans"`

	// Query digests the temporal-query layer: one-shot evaluations,
	// ledger epoch, subscription traffic and query latency.
	Query QueryStats `json:"query"`

	// Assure digests the deadline-assurance promise ledger: per-outcome
	// promise counts, SLO attainment, violation burn rate and slack
	// histograms. Zero when promise tracking is disabled.
	Assure assure.Stats `json:"assure"`

	// FlightRec digests the anomaly flight recorder: snapshots held,
	// triggers fired/deduped, ring occupancy. Zero when disabled.
	FlightRec flightrec.Stats `json:"flightrec"`
}

// QueryStats digests the temporal-query layer for /v1/stats.
type QueryStats struct {
	// Queries counts one-shot query evaluations served.
	Queries uint64 `json:"queries" metric:"rota_queries_total" help:"One-shot temporal queries evaluated."`
	// Epoch is the ledger's mutation epoch; every bump wakes the
	// standing queries whose read set it touched. Exposed once, as
	// LedgerEpoch.
	Epoch uint64 `json:"epoch" metric:"-"`
	// Subs digests the subscription manager.
	Subs query.ManagerStats `json:"subscriptions"`
	// LatencyUS digests one-shot query evaluation time in microseconds.
	LatencyUS metrics.HistogramSummary `json:"query_latency_us" metric:"rota_query_latency_us" help:"One-shot query evaluation time in microseconds."`
}

// DecodeAdmitRequest decodes and validates one job from an admit body.
// The decoded job does not alias body. Exported so the fuzz harness
// exercises exactly the wire path.
func DecodeAdmitRequest(body []byte) (workload.Job, error) {
	job, err := workload.UnmarshalJob(body)
	if err == nil {
		err = workload.ValidateJob(job)
	}
	if err != nil {
		return workload.Job{}, fmt.Errorf("server: bad admit body: %w", err)
	}
	return job, nil
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	err := s.serveAdmit(r.Context(), w, func() (workload.Job, error) {
		body, err := ReadBody(w, r)
		if err != nil {
			return workload.Job{}, err
		}
		defer body.Release()
		return DecodeAdmitRequest(body.Bytes())
	})
	if err != nil {
		// Only a cluster node owns less than everything, and its router
		// checks the footprint under the handoff freeze.
		s.errored.Add(1)
		HTTPError(w, http.StatusInternalServerError, err)
	}
}

// ServeAdmit admits a job a cluster router has already read, decoded
// and validated, on this node's ledger: the same admit and validate
// spans, envelope and verdict as POST /v1/admit. A placement refused
// with ErrNotOwned — the footprint moved — is returned with nothing
// written, for the router to re-route.
func (s *Server) ServeAdmit(ctx context.Context, w http.ResponseWriter, job workload.Job) error {
	return s.serveAdmit(ctx, w, func() (workload.Job, error) { return job, nil })
}

// serveAdmit runs one local admit. The admit span is the request's
// terminal span: validation — decode, which a 400 ends — plan search
// and reservation nest underneath it, and a reject's provenance lands on
// it.
func (s *Server) serveAdmit(ctx context.Context, w http.ResponseWriter, decode func() (workload.Job, error)) error {
	sctx, adSpan := s.cfg.Spans.Start(ctx, span.KindAdmit)
	defer adSpan.End()
	_, vSpan := s.cfg.Spans.Start(sctx, span.KindValidate)
	job, err := decode()
	if err != nil {
		vSpan.Attr("error", err)
		vSpan.SetStatus(span.StatusError)
		vSpan.End()
		adSpan.SetStatus(span.StatusError)
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return nil
	}
	vSpan.Str("job", job.Dist.Name)
	vSpan.End()
	err = s.Admit(sctx, w, adSpan, job, func(ctx context.Context) (admission.Decision, error) {
		return s.ledger.AdmitCtx(ctx, s.cfg.Policy, job)
	})
	if err != nil {
		adSpan.SetStatus(span.StatusError)
	}
	return err
}

// A Placement decides one admit and places its witness plan: the
// daemon's own is Ledger.AdmitCtx, a cluster coordinator's runs the
// two-phase rounds across the owners. Once ctx is done it must hold
// nothing.
type Placement func(ctx context.Context) (admission.Decision, error)

// Unavailable marks a placement failure the client may retry later, a
// peer that did not answer or a drain: Admit answers it 503, not 500.
func Unavailable(err error) error { return unavailable{err} }

type unavailable struct{ error }

func (u unavailable) Unwrap() error { return u.error }

// Expired reports whether ctx's window has closed: ctx.Err() once ctx is
// done, or context.DeadlineExceeded once its deadline has passed even
// if the timer that will cancel it has not fired yet. nil while the
// window is open. A verdict reached in a closed window reserves nothing.
func Expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Admit is the one admit envelope, local or coordinated: the drain
// gate, a decision slot held for the whole placement, DecisionTimeout,
// the decision counters, the log line and the verdict. sctx carries
// sp, the request's terminal span, which Admit annotates. A placement
// error wrapping ErrNotOwned — the footprint moved — is returned with
// nothing written, for the caller to re-route; otherwise Admit answers
// and returns nil.
func (s *Server) Admit(sctx context.Context, w http.ResponseWriter, sp *span.Span, job workload.Job, place Placement) error {
	sp.Str("job", job.Dist.Name)
	sp.Int("deadline", job.Dist.Deadline)
	if !s.enter() {
		sp.SetStatus(span.StatusError)
		HTTPError(w, http.StatusServiceUnavailable, errors.New("server: draining, not accepting new admissions"))
		return nil
	}
	defer s.inflight.Done()

	ctx, cancel := context.WithTimeout(sctx, s.cfg.DecisionTimeout)
	defer cancel()
	trace := obs.Trace(sctx)
	dec, err := s.decide(ctx, job, trace, place)
	switch {
	case errors.Is(err, ErrNotOwned):
		return err
	case err != nil && errors.Is(err, Expired(ctx)):
		// The deadline passed before a verdict was applied, and the
		// ledger reserves nothing once it has: the 503 is the whole truth.
		late := errors.Is(err, errLate)
		s.timedOut.Add(1)
		if late {
			s.lateDecisions.Add(1)
		}
		sp.SetStatus(span.StatusError)
		sp.Attr("error", "decision timeout")
		s.obs.Log("admit.timeout", "trace", trace, "job", job.Dist.Name,
			"timeout_ms", s.cfg.DecisionTimeout.Milliseconds(), "late", late)
		HTTPError(w, http.StatusServiceUnavailable,
			fmt.Errorf("server: decision for %s exceeded %v", job.Dist.Name, s.cfg.DecisionTimeout))
		return nil
	case err != nil:
		status := http.StatusInternalServerError
		var u unavailable
		switch {
		case errors.As(err, &u):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrDuplicate):
			status = http.StatusConflict
		}
		s.errored.Add(1)
		s.obs.Log("admit.error", "trace", trace, "job", job.Dist.Name, "error", err)
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		HTTPError(w, status, err)
		return nil
	}
	if dec.Admit {
		s.admitted.Add(1)
	} else {
		s.rejected.Add(1)
	}
	s.obs.Log("admit.decision",
		"trace", trace,
		"job", job.Dist.Name,
		"admit", dec.Admit,
		"reason", dec.Reason,
		"deadline", job.Dist.Deadline,
		"decision_us", dec.Elapsed.Microseconds())
	// The verdict: a rejection carries the provenance admission.Explain
	// derives from its typed refusal.
	resp := AdmitResponse{Job: job.Dist.Name, Admit: dec.Admit, Reason: dec.Reason,
		Deadline: job.Dist.Deadline, ElapsedUS: dec.Elapsed.Microseconds()}
	if dec.Plan != nil {
		resp.Finish = dec.Plan.Finish
	}
	sp.Attr("admit", dec.Admit)
	if dec.Admit {
		sp.Int("finish", resp.Finish)
	} else {
		resp.Provenance = admission.Explain(dec.Refusal)
		sp.SetStatus(span.StatusReject)
		sp.SetProvenance(resp.Provenance)
	}
	WriteJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	name, err := DecodeReleaseRequest(body.Bytes())
	body.Release()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.ServeRelease(w, name)
}

// DecodeReleaseRequest decodes one release body to the name it frees.
func DecodeReleaseRequest(body []byte) (string, error) {
	var req releaseRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", fmt.Errorf("server: bad request body: %w", err)
	}
	if req.Name == "" {
		return "", errors.New("server: release needs a name")
	}
	return req.Name, nil
}

// Release frees name's commitment on this node and counts it: the one
// release path, for a client's request and for each node's leg of a
// cluster-wide release alike.
func (s *Server) Release(name string) error {
	if err := s.ledger.Release(name); err != nil {
		return err
	}
	s.released.Add(1)
	return nil
}

// ServeRelease releases name and answers the request.
func (s *Server) ServeRelease(w http.ResponseWriter, name string) {
	if err := s.Release(name); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknown) {
			status = http.StatusNotFound
		}
		HTTPError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, releasedBody{Released: name})
}

// releasedBody is a successful release's answer: {"released": name}.
type releasedBody struct {
	Released string `json:"released"`
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if err := decodeInto(w, r, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	set, err := resource.ParseSet(req.Theta)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.ledger.Acquire(set); err != nil {
		// Acquire fails only with ErrNotOwned, and then applies nothing.
		HTTPError(w, http.StatusUnprocessableEntity, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"acquired": set.Compact()})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if err := decodeInto(w, r, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	completed, err := s.ledger.Advance(req.Now)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClockBackward) {
			status = http.StatusBadRequest
		}
		HTTPError(w, status, err)
		return
	}
	if completed == nil {
		completed = []string{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"now": s.ledger.Now(), "completed": completed})
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.ledger.Snapshot())
}

// Stats returns the daemon's counters and latency digest. Each counter
// is loaded once and every derived field comes from that one read, so
// a response never contradicts itself under concurrent admits.
func (s *Server) Stats() StatsResponse {
	admitted, rejected, epoch := s.admitted.Load(), s.rejected.Load(), s.ledger.Epoch()
	return StatsResponse{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Build:             buildInfo(),
		Now:               s.ledger.Now(),
		LedgerEpoch:       epoch,
		Shards:            s.ledger.NumShards(),
		Commitments:       s.ledger.NumCommitments(),
		Decisions:         admitted + rejected,
		Admitted:          admitted,
		Rejected:          rejected,
		Released:          s.released.Load(),
		Errors:            s.errored.Load(),
		TimedOut:          s.timedOut.Load(),
		LateDecisions:     s.lateDecisions.Load(),
		QueueDepth:        s.waiting.Load(),
		InFlight:          int64(len(s.slots)),
		Holds:             s.ledger.NumHolds(),
		TwoPhase:          s.ledger.TwoPhase(),
		AdmitHot:          s.ledger.AdmitHot(),
		DecisionLatencyUS: s.latencyUS.Summary(),
		Spans:             s.cfg.Spans.Stats(),
		Query: QueryStats{
			Queries:   s.queryCount.Load(),
			Epoch:     epoch,
			Subs:      s.queries.Stats(),
			LatencyUS: s.queryLatencyUS.Summary(),
		},
		Assure:    s.cfg.Assure.Stats(),
		FlightRec: s.cfg.FlightRec.Stats(),
	}
}

// handleTraceDump serves GET /debug/rota/trace/{id}: every span this
// node recorded for the trace, as a span.Dump. A node that saw nothing
// of the trace returns an empty span list, so cross-node collectors can
// fetch from every node and merge without special cases.
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Spans == nil {
		HTTPError(w, http.StatusNotFound, errors.New("server: span store disabled (start with -span-store)"))
		return
	}
	id := r.PathValue("id")
	if id == "" || len(id) > 128 {
		HTTPError(w, http.StatusBadRequest, errors.New("server: trace id must be 1..128 bytes"))
		return
	}
	recs := s.cfg.Spans.Trace(id)
	if recs == nil {
		recs = []span.Record{}
	}
	WriteJSON(w, http.StatusOK, span.Dump{Trace: id, Spans: recs})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		HTTPError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HTTP helpers.

// A Body is a request body read into a pooled buffer. Its bytes are
// valid until Release, after which the buffer serves another request: a
// handler releases it once nothing reads the bytes any more, and never
// releases one it handed to an outgoing request, which the transport may
// still read after the round trip returns.
type Body struct{ buf bytes.Buffer }

// maxPooledBody is the largest buffer Release returns to the pool: a
// rare large body is left to the collector rather than kept for every
// small one after it.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// maxBodyBytes bounds every request body a node reads, the cluster
// layer's included: 1 MiB.
const maxBodyBytes = 1 << 20

// ReadBody reads r's body, at most maxBodyBytes, into a pooled buffer.
func ReadBody(w http.ResponseWriter, r *http.Request) (*Body, error) {
	defer r.Body.Close()
	b := bodyPool.Get().(*Body)
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		b.Release()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("server: body exceeds %d bytes", maxBodyBytes)
		}
		return nil, err
	}
	return b, nil
}

// Bytes returns the body, valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release returns the buffer to the pool.
func (b *Body) Release() {
	if b.buf.Cap() > maxPooledBody {
		return
	}
	b.buf.Reset()
	bodyPool.Put(b)
}

func decodeInto(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	defer body.Release()
	if err := json.Unmarshal(body.Bytes(), dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// WriteJSON answers status with v as its JSON body: every response the
// daemon and a cluster node write goes through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// HTTPError answers status with err's text as an {"error": …} body.
func HTTPError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}

// errorBody is HTTPError's answer: {"error": text}.
type errorBody struct {
	Error string `json:"error"`
}
