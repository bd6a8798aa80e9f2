// Package trace records simulation timelines in the Chrome Trace Event
// format (the JSON consumed by chrome://tracing and https://ui.perfetto.dev),
// so a simulated training schedule — step spans per worker, message spans
// per NIC — can be inspected visually. One glance at an ASP trace
// shows the PS ingress serialization the paper's Figure 3 quantifies.
//
// Two time sources feed one exporter: the DES records virtual-time spans
// via Span (startSec/endSec are simulator seconds), while the live runtime
// records wall-clock spans via StartSpan/End, or via Span between two
// readings of Now (real time, anchored to the tracer's epoch). Both end up
// as the same Event shape, so one WriteJSON serves both runtimes.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one complete ("X" phase) trace event. Times are microseconds of
// virtual time (Span) or wall time since the tracer's epoch (StartSpan).
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// Tracer accumulates events. Methods are safe for concurrent use: the
// single-threaded simulation and the many-goroutine live runtime share
// this type.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	epoch  time.Time // wall-clock zero for Now; set on first use
}

// New creates an empty tracer.
func New() *Tracer { return &Tracer{} }

// Span records a complete event covering [startSec, endSec) of virtual
// time. pid groups tracks (machine), tid is the track (worker/NIC id).
func (t *Tracer) Span(name, cat string, startSec, endSec float64, pid, tid int) {
	if t == nil || endSec < startSec {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "X",
		Ts: startSec * 1e6, Dur: (endSec - startSec) * 1e6,
		Pid: pid, Tid: tid,
	})
	t.mu.Unlock()
}

// WallSpan is an in-progress wall-clock span opened by StartSpan and
// recorded when End is called. A nil WallSpan (from a nil tracer) is a
// no-op, so call sites never need to guard on tracing being enabled.
type WallSpan struct {
	t         *Tracer
	name, cat string
	pid, tid  int
	start     float64
}

// StartSpan opens a wall-clock span on the (pid, tid) track, starting Now.
func (t *Tracer) StartSpan(name, cat string, pid, tid int) *WallSpan {
	if t == nil {
		return nil
	}
	return &WallSpan{t: t, name: name, cat: cat, pid: pid, tid: tid, start: t.Now()}
}

// End records the span as a complete event from its start to Now.
func (s *WallSpan) End() {
	if s != nil {
		s.t.Span(s.name, s.cat, s.start, s.t.Now(), s.pid, s.tid)
	}
}

// Mark records an instantaneous wall-clock event (a zero-duration span) at
// the current time — heartbeats, rejoin admissions, and other point events.
func (t *Tracer) Mark(name, cat string, pid, tid int) {
	if t != nil {
		now := t.Now()
		t.Span(name, cat, now, now, pid, tid)
	}
}

// processStart is where a nil tracer's wall clock counts from.
var processStart = time.Now()

// Now is the tracer's wall clock: seconds since the epoch, ts 0, which the
// first call anchors so that timestamps are relative to the start of the run.
// A nil tracer counts from the start of the process.
func (t *Tracer) Now() float64 {
	now := time.Now()
	if t == nil {
		return now.Sub(processStart).Seconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	return now.Sub(t.epoch).Seconds()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON emits the events as a Chrome trace array in a canonical order.
// The sort is stable with a full (Ts, Pid, Tid, Name, Cat, Dur) key:
// equal-timestamp events (every worker's iteration-0 spans start at ts 0,
// and live goroutines append in scheduler order) would otherwise reorder
// between runs, breaking the repo's byte-reproducibility contracts.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	evs := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		switch {
		case a.Ts != b.Ts:
			return a.Ts < b.Ts
		case a.Pid != b.Pid:
			return a.Pid < b.Pid
		case a.Tid != b.Tid:
			return a.Tid < b.Tid
		case a.Name != b.Name:
			return a.Name < b.Name
		case a.Cat != b.Cat:
			return a.Cat < b.Cat
		default:
			return a.Dur < b.Dur
		}
	})
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}
