package live

import (
	"strings"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/xport"
)

// TestServerRejectsShortGradient sends the parameter server one dense
// gradient frame shorter than the model: ps.Serve must end with the shard's
// protocol error, not a panic on the server goroutine.
func TestServerRejectsShortGradient(t *testing.T) {
	cfg := liveConfig(core.ASP, 1, 2, 7)
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	cn := xport.NewChanNet(meshSize(&cfg))
	wait := startServer(&cfg, cn.Endpoint(cfg.Workers), &Options{})
	f := &xport.Frame{Kind: kindGrad, Clock: 1, Vec: []float32{1, 2}}
	if err := cn.Endpoint(0).Send(cfg.Workers, f); err != nil {
		t.Fatal(err)
	}
	if _, err := wait(); err == nil || !strings.Contains(err.Error(), "holds 2 elements") {
		t.Fatalf("server ended with %v", err)
	}
}
