// Package ctlplane is the experiment control plane: a long-lived service
// that accepts api.ExperimentSpec submissions over HTTP/JSON, queues them,
// runs them with bounded concurrency across the simulator and the live
// runtime, streams per-iteration metrics to subscribers, and persists every
// result as a JSON artifact that survives service restarts.
package ctlplane

import (
	"context"
	"fmt"
	"sync"
	"time"

	"disttrain/internal/api"
)

// metricHub fans one experiment's metric stream out to any number of
// subscribers with lossless replay: every published point is retained, a
// subscriber starting late reads the backlog first and then follows live.
type metricHub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	points []api.MetricPoint
	closed bool
}

func newMetricHub() *metricHub {
	h := &metricHub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Publish appends a point and wakes subscribers. Safe for concurrent use
// (live workers publish from many goroutines).
func (h *metricHub) Publish(p api.MetricPoint) {
	h.mu.Lock()
	h.points = append(h.points, p)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// CloseHub marks the stream complete and wakes subscribers so they can
// drain and finish.
func (h *metricHub) CloseHub() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Next blocks until points beyond index n exist, the stream closes, or ctx
// is cancelled; it returns the new points and whether the stream is still
// open. (nil, false) with no points means the subscriber should stop.
func (h *metricHub) Next(ctx context.Context, n int) ([]api.MetricPoint, bool) {
	// A cond has no channel to select on, so a per-call waker turns
	// context cancellation into a broadcast.
	stop := context.AfterFunc(ctx, h.cond.Broadcast)
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.points) <= n && !h.closed && ctx.Err() == nil {
		h.cond.Wait()
	}
	if ctx.Err() != nil {
		return nil, false
	}
	pts := append([]api.MetricPoint(nil), h.points[n:]...)
	return pts, !h.closed
}

// experiment pairs a status record with its metric hub.
type experiment struct {
	mu     sync.Mutex
	status api.ExperimentStatus
	hub    *metricHub
}

func (e *experiment) snapshot() *api.ExperimentStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.status
	return &st
}

// Service is the experiment control plane core: it accepts validated
// submissions, queues them, runs them with bounded concurrency across the
// simulator and live backends, streams metrics, and persists results via a
// Store. Start launches the worker pool; shutdown (context cancellation)
// lets in-flight experiments finish and leaves queued ones persisted for the
// next incarnation to resume.
type Service struct {
	store *Store
	conc  int

	mu     sync.Mutex
	exps   map[string]*experiment
	order  []string
	nextID int

	queue chan *experiment
	wg    sync.WaitGroup
	done  chan struct{} // closed after the last worker exits
	now   func() time.Time
}

// ServiceOptions configures NewService.
type ServiceOptions struct {
	// StateDir persists experiment artifacts; empty runs in-memory only.
	StateDir string
	// Concurrency bounds simultaneously running experiments (default 4).
	Concurrency int
	// QueueDepth bounds accepted-but-not-started experiments (default 256);
	// submissions beyond it are rejected.
	QueueDepth int
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// NewService builds the service, reloading every persisted experiment from
// the state directory: terminal ones become immediately queryable (their
// metric streams replay empty — metrics are not persisted, results are),
// and queued or interrupted-while-running ones are re-enqueued to run
// again once Start brings the worker pool up.
func NewService(o ServiceOptions) (*Service, error) {
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	store, err := NewStore(o.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		store: store,
		conc:  o.Concurrency,
		exps:  make(map[string]*experiment),
		queue: make(chan *experiment, o.QueueDepth),
		done:  make(chan struct{}),
		now:   o.Now,
	}
	prior, err := store.Load()
	if err != nil {
		return nil, err
	}
	for _, st := range prior {
		e := &experiment{status: *st, hub: newMetricHub()}
		var n int
		if _, err := fmt.Sscanf(st.ID, "exp-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if api.TerminalState(st.State) {
			e.hub.CloseHub()
		} else {
			// The previous incarnation stopped before this experiment
			// finished; run it afresh.
			e.status.State = api.StateQueued
			e.status.StartedAt = time.Time{}
			select {
			case s.queue <- e:
			default:
				return nil, fmt.Errorf("ctlplane: queue depth %d too small for %d resumed experiments", o.QueueDepth, len(prior))
			}
		}
		s.exps[st.ID] = e
		s.order = append(s.order, st.ID)
	}
	return s, nil
}

// Start launches the worker pool. Workers exit once ctx is cancelled AND
// their current experiment (if any) has finished; Done closes after the
// last worker exits.
func (s *Service) Start(ctx context.Context) {
	for i := 0; i < s.conc; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	go func() {
		s.wg.Wait()
		close(s.done)
	}()
}

// Done closes once the service has shut down: Start's context is cancelled
// and every in-flight experiment has finished.
func (s *Service) Done() <-chan struct{} { return s.done }

// Submit validates the spec (rejecting bad specs before anything is
// queued), assigns an ID, persists the queued record, and enqueues it.
func (s *Service) Submit(spec api.ExperimentSpec) (*api.ExperimentStatus, error) {
	if _, err := spec.Validated(); err != nil {
		return nil, err
	}
	e := &experiment{hub: newMetricHub()}
	s.mu.Lock()
	id := fmt.Sprintf("exp-%06d", s.nextID)
	s.nextID++
	e.status = api.ExperimentStatus{
		ID:          id,
		Spec:        spec,
		State:       api.StateQueued,
		SubmittedAt: s.now().UTC(),
	}
	// A worker may take the experiment as soon as it is queued; holding e.mu
	// until the queued record is saved keeps that save from landing on top
	// of the worker's running or done record.
	e.mu.Lock()
	select {
	case s.queue <- e:
	default:
		e.mu.Unlock()
		s.nextID--
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.exps[id] = e
	s.order = append(s.order, id)
	s.mu.Unlock()
	st := e.status
	err := s.store.Save(&st)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Get returns a snapshot of one experiment's status, or nil if unknown.
func (s *Service) Get(id string) *api.ExperimentStatus {
	s.mu.Lock()
	e := s.exps[id]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.snapshot()
}

// List returns snapshots of every experiment in submission order,
// optionally filtered to one lifecycle state.
func (s *Service) List(state string) []*api.ExperimentStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := []*api.ExperimentStatus{}
	for _, id := range ids {
		st := s.Get(id)
		if st != nil && (state == "" || st.State == state) {
			out = append(out, st)
		}
	}
	return out
}

// ServiceMetrics is one point-in-time snapshot of the service's operational
// state, rendered by the HTTP layer's /metrics endpoint.
type ServiceMetrics struct {
	// QueueDepth is how many accepted experiments are waiting for a worker.
	QueueDepth int
	// Concurrency is the size of the experiment worker pool.
	Concurrency int
	// Submitted counts every experiment this incarnation knows about,
	// including ones reloaded from the state directory.
	Submitted int
	// States maps each lifecycle state to its current experiment count;
	// all four states are always present.
	States map[string]int
}

// Metrics snapshots the service's operational state for a scrape.
func (s *Service) Metrics() ServiceMetrics {
	s.mu.Lock()
	exps := make([]*experiment, 0, len(s.exps))
	for _, e := range s.exps {
		exps = append(exps, e)
	}
	submitted := len(s.order)
	s.mu.Unlock()
	m := ServiceMetrics{
		QueueDepth:  len(s.queue),
		Concurrency: s.conc,
		Submitted:   submitted,
		States: map[string]int{
			api.StateQueued: 0, api.StateRunning: 0,
			api.StateDone: 0, api.StateFailed: 0,
		},
	}
	for _, e := range exps {
		m.States[e.snapshot().State]++
	}
	return m
}

// Hub returns the experiment's metric hub for streaming, or nil if the
// experiment is unknown.
func (s *Service) Hub(id string) *metricHub {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.exps[id]; e != nil {
		return e.hub
	}
	return nil
}

func (s *Service) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case e := <-s.queue:
			s.runOne(ctx, e)
		}
	}
}

func (s *Service) runOne(ctx context.Context, e *experiment) {
	if ctx.Err() != nil {
		// Shutdown raced the dequeue: leave the experiment queued (and
		// persisted as such) for the next incarnation to resume.
		return
	}
	e.mu.Lock()
	e.status.State = api.StateRunning
	e.status.StartedAt = s.now().UTC()
	spec := e.status.Spec
	e.mu.Unlock()
	s.persist(e)

	res, err := api.Run(ctx, spec, &api.RunOptions{OnMetric: e.hub.Publish})

	e.mu.Lock()
	e.status.FinishedAt = s.now().UTC()
	if err != nil {
		e.status.State = api.StateFailed
		e.status.Error = err.Error()
	} else {
		e.status.State = api.StateDone
		e.status.Result = res
	}
	e.mu.Unlock()
	s.persist(e)
	e.hub.CloseHub()
}

// persist best-effort saves a snapshot; a storage failure downgrades the
// service to in-memory for that record rather than killing the run.
func (s *Service) persist(e *experiment) {
	if err := s.store.Save(e.snapshot()); err != nil {
		e.mu.Lock()
		if e.status.Error == "" {
			e.status.Error = fmt.Sprintf("persist: %v", err)
		}
		e.mu.Unlock()
	}
}
