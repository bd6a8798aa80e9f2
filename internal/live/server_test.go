package live

import (
	"slices"
	"strings"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/ps"
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
	sv := newServer(&cfg, cn.Endpoint(cfg.Workers), buildOptions(&cfg, nil, 1))
	f := &xport.Frame{Kind: kindGrad, Clock: 1, Vec: []float32{1, 2}}
	if err := cn.Endpoint(0).Send(cfg.Workers, f); err != nil {
		t.Fatal(err)
	}
	if err := ps.Serve(sv.shard, sv); err == nil || !strings.Contains(err.Error(), "holds 2 elements") {
		t.Fatalf("server ended with %v", err)
	}
}

// TestServerDropsConnectionAtResume: the PS takes a RESUME as the sign that
// its sender is a new incarnation — it drops its cached connection to it and
// goes on to the next frame, which it serves.
func TestServerDropsConnectionAtResume(t *testing.T) {
	cfg := resumeConfig(t, core.BSP)
	grad := xport.Frame{Kind: kindGrad, From: 1, Clock: 7, Vec: make([]float32, 3)}
	ep := &gateEndpoint{in: []xport.Frame{{Kind: kindResume, From: 1, Clock: 7, Seg: 1}, grad}}
	sv := newServer(&cfg, ep, buildOptions(&cfg, nil, 1))
	m, ok, err := sv.Recv(false)
	if !ok || err != nil || m.From != 1 || m.Kind != ps.Grad || m.Clock != 7 {
		t.Fatalf("Recv = %+v, %v, %v; want rank 1's gradient of round 7", m, ok, err)
	}
	if want := []string{"recv 111 from 1", "drop 1", "recv 1 from 1"}; !slices.Equal(ep.log, want) {
		t.Fatalf("endpoint log %q, want %q", ep.log, want)
	}
}
