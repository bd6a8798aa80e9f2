package core

import (
	"encoding/json"
	"io"

	"disttrain/internal/metrics"
)

// Summary is a JSON-serializable digest of a Result, for piping experiment
// outcomes into external plotting/analysis tooling.
type Summary struct {
	Algo        string  `json:"algo"`
	Workers     int     `json:"workers"`
	Machines    int     `json:"machines"`
	Model       string  `json:"model"`
	InterGbps   float64 `json:"inter_gbps"`
	Iters       int     `json:"iters"`
	Seed        uint64  `json:"seed"`
	Sharding    string  `json:"sharding,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	WaitFreeBP  bool    `json:"wait_free_bp,omitempty"`
	DGC         bool    `json:"dgc,omitempty"`
	Quantize8   bool    `json:"quantize8,omitempty"`
	QuantizeF16 bool    `json:"quantize_f16,omitempty"`
	LocalAgg    bool    `json:"local_agg,omitempty"`

	VirtualSec            float64 `json:"virtual_sec"`
	Throughput            float64 `json:"throughput_samples_per_sec"`
	TotalBytes            int64   `json:"total_bytes"`
	CrossMachineBytes     int64   `json:"cross_machine_bytes"`
	BytesPerIterPerWorker float64 `json:"bytes_per_iter_per_worker"`
	MaxIterSpread         int     `json:"max_iter_spread"`
	ReplicaSpreadL2       float64 `json:"replica_spread_l2,omitempty"`

	ComputeSec   float64 `json:"compute_sec"`
	LocalAggSec  float64 `json:"local_agg_sec"`
	GlobalAggSec float64 `json:"global_agg_sec"`
	NetworkSec   float64 `json:"network_sec"`

	FinalTestAcc   float64              `json:"final_test_acc,omitempty"`
	FinalTrainLoss float64              `json:"final_train_loss,omitempty"`
	Trace          []metrics.TracePoint `json:"trace,omitempty"`

	// Fault-injection outcomes (all zero / absent without a fault schedule).
	Elastic        bool               `json:"elastic,omitempty"`
	Faults         metrics.FaultStats `json:"faults,omitzero"`
	DroppedMsgs    int64              `json:"dropped_msgs,omitempty"`
	DroppedBytes   int64              `json:"dropped_bytes,omitempty"`
	StalledWorkers int                `json:"stalled_workers,omitempty"`
}

// Echo returns the Summary of a run of c before anything is measured: its
// configuration fields filled, every other field zero. Both runtimes'
// summaries start from it, so a live run echoes its configuration exactly as
// the simulator does.
func (c *Config) Echo() Summary {
	return Summary{
		Algo:        string(c.Algo),
		Workers:     c.Workers,
		Machines:    c.Cluster.Machines,
		Model:       c.Workload.Profile.Name,
		InterGbps:   c.Cluster.InterBytesPerSec * 8 / 1e9,
		Iters:       c.Iters,
		Seed:        c.Seed,
		Sharding:    string(c.Sharding),
		Shards:      c.Shards,
		WaitFreeBP:  c.WaitFreeBP,
		DGC:         c.DGC != nil,
		Quantize8:   c.Quantize8,
		QuantizeF16: c.QuantizeF16,
		LocalAgg:    c.LocalAgg,
		Elastic:     c.Elastic,
	}
}

// SetBreakdown fills the four time-breakdown fields from b.
func (s *Summary) SetBreakdown(b metrics.Breakdown) {
	s.ComputeSec = b[metrics.Compute]
	s.LocalAggSec = b[metrics.LocalAgg]
	s.GlobalAggSec = b[metrics.GlobalAgg]
	s.NetworkSec = b[metrics.Network]
}

// Summary builds the digest.
func (r *Result) Summary() Summary {
	s := r.Config.Echo()
	s.VirtualSec = r.VirtualSec
	s.Throughput = r.Throughput
	s.TotalBytes = r.Net.TotalBytes
	s.CrossMachineBytes = r.Net.CrossMachineBytes
	s.BytesPerIterPerWorker = r.BytesPerIterPerWorker
	s.MaxIterSpread = r.Metrics.MaxSpread
	s.ReplicaSpreadL2 = r.ReplicaSpreadL2
	s.SetBreakdown(r.Metrics.MeanBreakdown())

	s.FinalTestAcc = r.FinalTestAcc
	s.FinalTrainLoss = r.FinalTrainLoss
	s.Trace = r.Metrics.Trace

	s.Faults = r.Metrics.Faults
	s.DroppedMsgs = r.Net.DroppedMsgs
	s.DroppedBytes = r.Net.DroppedBytes
	s.StalledWorkers = r.StalledWorkers
	return s
}

// WriteJSON writes the summary as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Summary())
}
