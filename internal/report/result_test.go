package report

import (
	"context"
	"strings"
	"testing"

	"disttrain/internal/api"
)

// TestResultTableLiveBreakdown: a live run books the paper's time breakdown
// in wall seconds, so its table carries the four time rows the simulator's
// does, and the per-worker traffic row.
func TestResultTableLiveBreakdown(t *testing.T) {
	spec := api.ExperimentSpec{Algo: "bsp", Workers: 2, Iters: 3, Transport: api.TransportTCP,
		Real: &api.RealSpec{Net: "mlp", Dataset: "gauss"}}
	res, err := api.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ResultTable(res, 0).String()
	for _, row := range []string{"time: compute", "time: local-agg", "time: global-agg", "time: network",
		"bytes/iter/worker"} {
		if !strings.Contains(out, row) {
			t.Errorf("live table has no %q row:\n%s", row, out)
		}
	}
}
