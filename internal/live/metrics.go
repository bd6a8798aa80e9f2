package live

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"disttrain/internal/metrics"
	"disttrain/internal/xport"
)

// coordSnapshot is the coordinator's contribution to a metrics scrape.
type coordSnapshot struct {
	deaths, rejoins int64
	done            int64
}

// Metrics aggregates one live run's observable state and serves it in the
// Prometheus text exposition format. Pass one instance to every in-process
// participant via WithMetrics: workers register their mesh transport
// counters and iteration progress, the coordinator registers the PS
// endpoint and the death/rejoin accounting, and GET /metrics (Metrics is an
// http.Handler) renders the union. In a multi-process deployment each
// process serves its own ranks.
//
// Transport counters stay monotonic across worker incarnations: when a
// restarted worker re-registers its rank, the dying incarnation's final
// counters are folded into a per-rank base that every later scrape includes.
type Metrics struct {
	mu        sync.Mutex
	stats     map[int]func() xport.Stats
	base      map[int]xport.Stats
	progress  map[int]func() int64
	saved     map[int]func() int64
	savedBase map[int]int64
	coord     func() coordSnapshot
	restores  atomic.Int64
}

// NewMetrics returns an empty collector ready to be passed via WithMetrics.
func NewMetrics() *Metrics {
	return &Metrics{
		stats:     make(map[int]func() xport.Stats),
		base:      make(map[int]xport.Stats),
		progress:  make(map[int]func() int64),
		saved:     make(map[int]func() int64),
		savedBase: make(map[int]int64),
	}
}

// registerStats installs rank's transport-counter snapshot function. A
// re-registration (a restarted incarnation's fresh mesh) folds the previous
// incarnation's final counters into the rank's base first, keeping scraped
// counters monotonic.
func (m *Metrics) registerStats(rank int, fn func() xport.Stats) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if old := m.stats[rank]; old != nil {
		b := m.base[rank]
		b.Add(old())
		m.base[rank] = b
	}
	m.stats[rank] = fn
	m.mu.Unlock()
}

// registerProgress installs rank's completed-iteration gauge source.
func (m *Metrics) registerProgress(rank int, fn func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.progress[rank] = fn
	m.mu.Unlock()
}

// registerSaved installs rank's compressed-bytes-saved counter source: wire
// bytes gradient quantization saved versus dense float32 frames. Like
// registerStats, a re-registration folds the previous incarnation's final
// count into the rank's base to keep the scraped counter monotonic.
func (m *Metrics) registerSaved(rank int, fn func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if old := m.saved[rank]; old != nil {
		m.savedBase[rank] += old()
	}
	m.saved[rank] = fn
	m.mu.Unlock()
}

// registerCoord installs the coordinator's death/rejoin/done snapshot.
func (m *Metrics) registerCoord(fn func() coordSnapshot) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.coord = fn
	m.mu.Unlock()
}

// addRestore counts one successful checkpoint restore in this process.
func (m *Metrics) addRestore() {
	if m == nil {
		return
	}
	m.restores.Add(1)
}

// xportFamily describes one exported transport counter.
type xportFamily struct {
	name, help string
	value      func(xport.Stats) float64
}

var xportFamilies = []xportFamily{
	{"disttrain_xport_frames_sent_total", "Frames written to the wire, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.FramesSent) }},
	{"disttrain_xport_frames_recv_total", "Frames received from the wire, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.FramesRecv) }},
	{"disttrain_xport_bytes_sent_total", "Payload bytes sent, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.BytesSent) }},
	{"disttrain_xport_bytes_recv_total", "Payload bytes received, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.BytesRecv) }},
	{"disttrain_xport_redials_total", "Peer connections re-established after a failure, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.Redials) }},
	{"disttrain_xport_kills_total", "Connections severed by injected kill windows, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.Kills) }},
	{"disttrain_xport_partitioned_total", "Sends that blocked on an active partition window, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.Partitioned) }},
	{"disttrain_xport_send_delay_seconds_total", "Injected send latency from slow/degrade windows, per mesh rank.",
		func(s xport.Stats) float64 { return float64(s.DelayNanos) / 1e9 }},
}

// WriteProm renders the current state in the Prometheus text format.
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	ranks := make([]int, 0, len(m.stats))
	snaps := make(map[int]xport.Stats, len(m.stats))
	for r, fn := range m.stats {
		ranks = append(ranks, r)
		s := m.base[r]
		s.Add(fn())
		snaps[r] = s
	}
	progRanks := make([]int, 0, len(m.progress))
	prog := make(map[int]int64, len(m.progress))
	for r, fn := range m.progress {
		progRanks = append(progRanks, r)
		prog[r] = fn()
	}
	savedRanks := make([]int, 0, len(m.saved))
	saved := make(map[int]int64, len(m.saved))
	for r, fn := range m.saved {
		savedRanks = append(savedRanks, r)
		saved[r] = m.savedBase[r] + fn()
	}
	coordFn := m.coord
	m.mu.Unlock()
	sort.Ints(ranks)
	sort.Ints(progRanks)
	sort.Ints(savedRanks)

	e := metrics.NewPromEncoder(w)
	for _, fam := range xportFamilies {
		e.Family(fam.name, fam.help, "counter")
		for _, r := range ranks {
			e.Sample(fam.name, rankLabel(r), fam.value(snaps[r]))
		}
	}
	e.Family("disttrain_live_worker_iterations", "Completed training iterations, per worker rank.", "gauge")
	for _, r := range progRanks {
		e.Sample("disttrain_live_worker_iterations", rankLabel(r), float64(prog[r]))
	}
	e.Family("disttrain_live_compressed_bytes_saved_total",
		"Wire bytes gradient quantization saved versus dense float32 frames, per mesh rank.", "counter")
	for _, r := range savedRanks {
		e.Sample("disttrain_live_compressed_bytes_saved_total", rankLabel(r), float64(saved[r]))
	}
	var cs coordSnapshot
	if coordFn != nil {
		cs = coordFn()
	}
	e.Family("disttrain_live_deaths_total", "Scheduled worker deaths observed by the coordinator.", "counter")
	e.Sample("disttrain_live_deaths_total", nil, float64(cs.deaths))
	e.Family("disttrain_live_rejoins_total", "REJOIN handshakes the coordinator accepted.", "counter")
	e.Sample("disttrain_live_rejoins_total", nil, float64(cs.rejoins))
	e.Family("disttrain_live_restores_total", "Checkpoint restores performed by workers in this process.", "counter")
	e.Sample("disttrain_live_restores_total", nil, float64(m.restores.Load()))
	e.Family("disttrain_live_workers_done", "Worker ranks whose DONE report the coordinator holds.", "gauge")
	e.Sample("disttrain_live_workers_done", nil, float64(cs.done))
	return e.Err()
}

func rankLabel(r int) []metrics.PromLabel {
	return []metrics.PromLabel{{Name: "rank", Value: fmt.Sprintf("%d", r)}}
}

// ServeHTTP serves the text exposition format, making Metrics mountable
// directly as a GET /metrics handler.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	m.WriteProm(w)
}
