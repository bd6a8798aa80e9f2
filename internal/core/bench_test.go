package core

import (
	"context"
	"fmt"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
)

// BenchmarkAblationPSRatio reproduces the paper's PS:worker ratio profiling
// (Section VI-D): 1, 2 or 4 PS shards per 4-GPU machine, balanced
// partitioning, cost-only ASP on VGG-16. It reports virtual throughput, not
// host speed; no paperbench preset or bench/ rung varies the shard count per
// machine, which is why it outlived the root benchmark file.
func BenchmarkAblationPSRatio(b *testing.B) {
	for _, perMachine := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d:4", perMachine), func(b *testing.B) {
			cfg := costConfig(ASP, 16, 15)
			cfg.Seed = 1
			// On the fast network the PS aggregation rate, not the NIC, is
			// the contended resource — the regime where the ratio matters.
			cfg.Cluster = cluster.Paper56G(16)
			cfg.Workload = costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 96)
			cfg.Sharding = ShardBalanced
			cfg.Shards = perMachine * cfg.Cluster.Machines
			var last *Result
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Throughput, "virt-samples/s")
			b.ReportMetric(last.VirtualSec, "virt-sec")
		})
	}
}
