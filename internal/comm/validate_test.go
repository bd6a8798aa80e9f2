package comm

import (
	"fmt"
	"strings"
	"testing"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
)

// TestCollectiveRejects drives every validation rule: a malformed opts must
// come back as an error from Collective before any message moves, for every
// op it applies to.
func TestCollectiveRejects(t *testing.T) {
	eng, net, ids := buildNet(3, 1)
	vec3 := []float32{1, 2, 3}
	cases := []struct {
		name string
		opts CollectiveOpts
		want string
	}{
		{"nil net",
			CollectiveOpts{Op: OpRingAllReduce, Nodes: ids, Vec: vec3},
			"needs a network"},
		{"no participants",
			CollectiveOpts{Op: OpRingAllReduce, Net: net, Vec: vec3},
			"no participants"},
		{"self negative",
			CollectiveOpts{Op: OpGather, Net: net, Nodes: ids, Self: -1, Vec: vec3},
			"self index"},
		{"self past end",
			CollectiveOpts{Op: OpBroadcast, Net: net, Nodes: ids, Self: 3, Vec: vec3},
			"self index"},
		{"negative bytes",
			CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Vec: vec3, Bytes: -4},
			"negative wire size"},
		{"ring cost-only without length",
			CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Bytes: 12},
			"positive VirtualLen"},
		{"tree cost-only without length",
			CollectiveOpts{Op: OpTreeAllReduce, Net: net, Nodes: ids, Bytes: 12},
			"positive VirtualLen"},
		{"ring empty payload",
			CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Vec: []float32{}, VirtualLen: 3},
			"empty payload"},
		{"virtual length disagrees with payload",
			CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Vec: vec3, VirtualLen: 7},
			"disagrees with payload length"},
		{"unknown op",
			CollectiveOpts{Op: Op(99), Net: net, Nodes: ids, Vec: vec3},
			"unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			eng.Spawn("w", func(p *des.Proc) {
				_, _, err = Collective(p, tc.opts)
			})
			eng.Run(0)
			if err == nil {
				t.Fatalf("opts accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if n := net.Stats().TotalMsgs; n != 0 {
		t.Fatalf("rejected collectives sent %d messages", n)
	}
}

// TestCollectiveStrictMismatchErrors checks the stash-less discipline: an
// unexpected message aborts the collective with an error instead of
// panicking the process.
func TestCollectiveStrictMismatchErrors(t *testing.T) {
	eng, net, ids := buildNet(2, 1)
	var err error
	eng.Spawn("stray", func(p *des.Proc) {
		net.Send(simnet.Msg{From: ids[0], To: ids[1], Kind: testKind + 1, Bytes: 4})
	})
	eng.Spawn("member", func(p *des.Proc) {
		_, _, err = Collective(p, CollectiveOpts{Op: OpBroadcast, Net: net, Nodes: ids, Self: 1,
			Vec: []float32{0}, Bytes: 4, Kind: testKind})
	})
	eng.Run(0)
	if err == nil || !strings.Contains(err.Error(), "got kind") {
		t.Fatalf("strict mismatch: got %v, want protocol error", err)
	}
}

// TestCollectiveForeignBodyErrors: a message of the collective's own kind
// whose body is none of Collective's chunks — no body, or another package's —
// aborts the collective with a protocol error that names the body's type,
// instead of panicking the process in a type assertion.
func TestCollectiveForeignBodyErrors(t *testing.T) {
	type foreign struct{ clock, seg int }
	for _, body := range []any{nil, &foreign{}, []float32{0}} {
		eng, net, ids := buildNet(2, 1)
		var err error
		eng.Spawn("stray", func(p *des.Proc) {
			net.Send(simnet.Msg{From: ids[0], To: ids[1], Kind: testKind, Bytes: 4, Body: body})
		})
		eng.Spawn("member", func(p *des.Proc) {
			_, _, err = Collective(p, CollectiveOpts{Op: OpBroadcast, Net: net, Nodes: ids, Self: 1,
				Vec: []float32{0}, Bytes: 4, Kind: testKind})
		})
		eng.Run(0)
		if err == nil || !strings.Contains(err.Error(), "got kind") || !strings.Contains(err.Error(), fmt.Sprintf("%T", body)) {
			t.Fatalf("body %T: got %v, want a protocol error naming it", body, err)
		}
	}
}
