package live

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/xport"
)

// step is one move of a scripted control-plane peer: read a frame of kind
// want, or, with want 0, write f.
type step struct {
	want uint16
	f    xport.Frame
}

// readCtl reads one control frame, requiring the given kind.
func readCtl(c net.Conn, want uint16) (xport.Frame, error) {
	f, err := readAnyCtl(c, ctlTimeout)
	if err == nil && f.Kind != want {
		err = fmt.Errorf("control frame kind %d, want %d", f.Kind, want)
	}
	return f, err
}

// readAnyCtl reads one control frame of any kind with the given deadline.
func readAnyCtl(c net.Conn, d time.Duration) (xport.Frame, error) {
	c.SetReadDeadline(time.Now().Add(d))
	return xport.ReadFrame(c, xport.MaxFrameBytes)
}

// play runs steps on c in order and stops at the first failure — typically
// the other side refusing what it was sent and hanging up.
func play(c net.Conn, steps ...step) error {
	for _, s := range steps {
		var err error
		if s.want != 0 {
			_, err = readCtl(c, s.want)
		} else {
			err = writeCtl(c, &s.f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// admit dials the coordinator as a scripted worker and plays HELLO and
// ASSIGN, so scripted workers admitted one after another hold ranks 0, 1, ...
func admit(t *testing.T, ln net.Listener, cfg *core.Config) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := play(c, step{f: xport.Frame{Kind: kindHello, Data: []byte(fingerprint(cfg))}},
		step{want: kindAssign}); err != nil {
		t.Fatal(err)
	}
	return c
}

// toStart plays the rest of a worker's rendezvous after ASSIGN, announcing
// addr, and reports on done whether START arrived.
func toStart(c net.Conn, addr xport.Frame, done chan<- error) {
	done <- play(c, step{f: addr}, step{want: kindPeers},
		step{f: xport.Frame{Kind: kindReady, From: addr.From}}, step{want: kindStart})
}

// startCoordinator starts the coordinator of cfg on a loopback listener and
// returns the listener and where its error arrives.
func startCoordinator(t *testing.T, cfg *core.Config) (net.Listener, <-chan error) {
	t.Helper()
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := coordinate(cfg, ln, buildOptions(cfg, nil, 1))
		done <- err
	}()
	return ln, done
}

// within waits for the coordinator's error, failing the test if the
// coordinator is still running after d.
func within(t *testing.T, d time.Duration, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("coordinator still running after %v", d)
		return nil
	}
}

func addrFrame(rank int32, addr string) xport.Frame {
	return xport.Frame{Kind: kindAddr, From: rank, Data: []byte(addr)}
}

// TestRendezvousWorkerErrorEndsRun: a worker whose training fails reports it
// in an error DONE (negative tag), and the run ends with that worker's text.
// A checkpoint directory that is a file fails every worker's first save.
func TestRendezvousWorkerErrorEndsRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunLoopback(liveConfig(core.ARSGD, 2, 4, 1), WithCheckpoints(file, 1))
	if err == nil || !strings.Contains(err.Error(), "failed: live: worker") ||
		!strings.Contains(err.Error(), file) {
		t.Fatalf("run ended with %v, want the failed worker's checkpoint error", err)
	}
}

// TestRendezvousLostControlConnectionEndsRun: without a crash schedule a
// control connection that drops after START is a failure, and the
// coordinator ends within seconds naming the rank — not after ctlTimeout.
func TestRendezvousLostControlConnectionEndsRun(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 2, 4, 1)
	ln, coordErr := startCoordinator(t, &cfg)
	c0, c1 := admit(t, ln, &cfg), admit(t, ln, &cfg)
	started := make(chan error, 2)
	go toStart(c0, addrFrame(0, "127.0.0.1:1"), started)
	go toStart(c1, addrFrame(1, "127.0.0.1:2"), started)
	for i := 0; i < 2; i++ {
		if err := <-started; err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()
	err := within(t, 5*time.Second, coordErr)
	if err == nil || !strings.Contains(err.Error(), "worker 1 control connection lost") {
		t.Fatalf("coordinator: %v, want worker 1's lost control connection", err)
	}
}

// TestControlPayloadsRejected: a scripted peer over loopback sends each
// control payload that does not fit the run — a rank outside it, a mesh size
// other than the config's, a peer table of the wrong length, an ADDR naming
// another rank — and the other side ends with a pointed error instead of
// indexing or allocating with it.
func TestControlPayloadsRejected(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 2, 4, 1)
	ok := "127.0.0.1:1,127.0.0.1:2"
	for _, tc := range []struct {
		name          string
		assign, peers xport.Frame
		want          string
	}{
		{"negative rank", xport.Frame{From: -1, Clock: 2}, xport.Frame{}, "live: assign: rank -1 outside [0, 2)"},
		{"rank past the run", xport.Frame{From: 2, Clock: 2}, xport.Frame{}, "live: assign: rank 2 outside [0, 2)"},
		{"negative mesh", xport.Frame{From: 0, Clock: -1}, xport.Frame{}, "live: assign: mesh size -1, this config needs 2"},
		{"huge mesh", xport.Frame{From: 0, Clock: 1 << 30}, xport.Frame{}, "live: assign: mesh size 1073741824"},
		{"short peer table", xport.Frame{From: 1, Clock: 2}, xport.Frame{Data: []byte("127.0.0.1:1")},
			"live: worker 1 peers: peer table of 1 addresses, want 2"},
		{"long peer table", xport.Frame{From: 1, Clock: 2}, xport.Frame{Data: []byte(ok + ",x")},
			"live: worker 1 peers: peer table of 3 addresses, want 2"},
	} {
		t.Run("worker "+tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				tc.assign.Kind, tc.peers.Kind = kindAssign, kindPeers
				play(c, step{want: kindHello}, step{f: tc.assign}, step{want: kindAddr}, step{f: tc.peers},
					step{want: kindReady}, step{f: xport.Frame{Kind: kindStart}})
			}()
			err = RunWorker(cfg, ln.Addr().String(), "")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("worker: %v, want %q", err, tc.want)
			}
		})
	}

	t.Run("rejoining worker short peer table", func(t *testing.T) {
		ecfg := cfg
		ecfg.Elastic = true
		ecfg.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 2, Worker: 1, Restart: 0.1}}}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			play(c, step{want: kindRejoin}, step{f: xport.Frame{Kind: kindRejoinOK, Data: []byte("127.0.0.1:1")}})
		}()
		err = RunWorkerRejoin(ecfg, ln.Addr().String(), 1, WithCheckpoints(t.TempDir(), 1))
		want := "live: worker 1 rejoin-ok: peer table of 1 addresses, want 2"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("rejoining worker: %v, want %q", err, want)
		}
	})

	for _, tc := range []struct {
		name string
		addr func(rank int32) xport.Frame
		want string
	}{
		{"another rank", func(r int32) xport.Frame { return addrFrame(1-r, "127.0.0.1:1") },
			"live: addr from worker 0: ADDR names rank 1 on the connection of rank 0"},
		{"a rank past the run", func(r int32) xport.Frame { return addrFrame(99, "127.0.0.1:1") },
			"live: addr from worker 0: ADDR names rank 99"},
		{"a negative rank", func(r int32) xport.Frame { return addrFrame(-1, "127.0.0.1:1") },
			"live: addr from worker 0: ADDR names rank -1"},
		{"a list for an address", func(r int32) xport.Frame { return addrFrame(r, ok) },
			`live: addr from worker 0: mesh address "127.0.0.1:1,127.0.0.1:2"`},
		{"no address", func(r int32) xport.Frame { return addrFrame(r, "") },
			`live: addr from worker 0: mesh address ""`},
	} {
		t.Run("coordinator ADDR naming "+tc.name, func(t *testing.T) {
			ln, coordErr := startCoordinator(t, &cfg)
			started := make(chan error, 2)
			for r := int32(0); r < 2; r++ {
				go toStart(admit(t, ln, &cfg), tc.addr(r), started)
			}
			err := within(t, 5*time.Second, coordErr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("coordinator: %v, want %q", err, tc.want)
			}
		})
	}
}

// allocatedBy returns the bytes allocated while fn runs, as the heap counts
// them.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// FuzzControlPayloads feeds arbitrary fields to the parsers of every control
// payload a peer supplies — ASSIGN, ADDR, a PEERS or REJOIN-OK table, a DONE
// and its stats JSON. The contract under fuzz: no panic, allocation bounded
// by the input's length (never by a count it claims), every accepted payload
// fits the run, and an accepted DONE re-encodes to the same report.
func FuzzControlPayloads(f *testing.F) {
	cfg := liveConfig(core.BSP, 4, 8, 1)
	n := meshSize(&cfg) // 5: four workers and the PS
	f.Add(int32(1), int32(5), int32(0), 0.0, []byte("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3,127.0.0.1:4,127.0.0.1:5"))
	f.Add(int32(2), int32(8), int32(1), 0.75, []byte(`{"FramesSent":3,"BytesSent":96,"DelayNanos":-1,"restores":2}`))
	f.Add(int32(3), int32(0), int32(-1), 0.0, []byte("live: worker 3 (bsp): boom"))
	f.Add(int32(-1), int32(-1), int32(0), math.NaN(), []byte{})
	f.Add(int32(1<<30), int32(1<<30), int32(2), math.Inf(1), []byte(",,,,"))
	f.Add(int32(1), int32(5), int32(0), 0.0, bytes.Repeat([]byte("["), 1<<14)) // past JSON's nesting limit
	f.Add(int32(1), int32(5), int32(1), 0.0, []byte(`{"FramesSent":1e400,"Kills":"x"}`))
	f.Fuzz(func(t *testing.T, from, clock, seg int32, aux float64, data []byte) {
		fr := xport.Frame{From: from, Clock: clock, Seg: seg, Aux: aux, Data: data}
		var (
			rank                   int
			addr                   string
			peers                  []string
			rep                    doneInfo
			errA, errR, errP, errD error
		)
		allocated := allocatedBy(func() {
			rank, errA = parseAssign(&cfg, fr)
			addr, errR = parseAddr(fr, 1)
			peers, errP = parsePeers(data, n)
			rep, errD = parseDone(fr)
		})
		if bound := allocSlack + 32*uint64(len(data)); allocated > bound {
			t.Fatalf("parsers allocated %d bytes for %d input bytes, bound %d", allocated, len(data), bound)
		}
		if errA == nil && (rank < 0 || rank >= cfg.Workers || int(clock) != n) {
			t.Fatalf("ASSIGN accepted rank %d of a %d-rank mesh", rank, clock)
		}
		if errR == nil && (from != 1 || addr == "" || strings.Contains(addr, ",")) {
			t.Fatalf("ADDR from %d accepted on rank 1's connection: %q", from, addr)
		}
		if errP == nil && (len(peers) != n || strings.Join(peers, ",") != string(data)) {
			t.Fatalf("peer table %q accepted as %q", data, peers)
		}
		if errD != nil {
			return
		}
		again, err := parseDone(*rep.frame(int(from)))
		if err != nil {
			t.Fatalf("accepted DONE failed its re-decode: %v", err)
		}
		if again.iters != rep.iters || math.Float64bits(again.loss) != math.Float64bits(rep.loss) ||
			again.lossInit != rep.lossInit || again.stats != rep.stats {
			t.Fatalf("DONE re-encode changed the report: %+v vs %+v", rep, again)
		}
	})
}

// allocSlack is what an allocation bound forgives: the parsers' own small
// change (a split, an error message) and whatever the test binary's other
// goroutines allocate meanwhile.
const allocSlack = 64 << 10

// TestRendezvousRunCoordinator drives the multi-process entry points in one
// process: RunCoordinator on a loopback port and four RunWorker goroutines
// dialing it train BSP to the same bits as RunLoopback. A port already in
// use comes back as the coordinator's listen error.
func TestRendezvousRunCoordinator(t *testing.T) {
	cfg := liveConfig(core.BSP, 4, 6, 3)
	want, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if _, err := RunCoordinator(cfg, addr); err == nil || !strings.Contains(err.Error(), "live: coordinator listen "+addr) {
		t.Fatalf("coordinator on a port in use: %v, want its listen error", err)
	}
	ln.Close()

	workerErrs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() { workerErrs <- RunWorker(cfg, addr, "") }()
	}
	got, err := RunCoordinator(cfg, addr)
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-workerErrs; werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want.WorkerParams, got.WorkerParams)
	if math.Float64bits(want.FinalTestAcc) != math.Float64bits(got.FinalTestAcc) {
		t.Fatalf("final test accuracy: RunLoopback %v, RunCoordinator %v", want.FinalTestAcc, got.FinalTestAcc)
	}
}

// TestRendezvousClosesExtraHellos: a HELLO past the W-th, and one after
// START, are closed unanswered within seconds, and the run completes.
func TestRendezvousClosesExtraHellos(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 4, 4, 1)
	ln, coordErr := startCoordinator(t, &cfg)
	conns := make([]net.Conn, cfg.Workers)
	for r := range conns {
		conns[r] = admit(t, ln, &cfg)
	}
	refused := func(what string) {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := writeCtl(c, &xport.Frame{Kind: kindHello, Data: []byte(fingerprint(&cfg))}); err != nil {
			t.Fatal(err)
		}
		f, err := readAnyCtl(c, 5*time.Second)
		if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
			t.Fatalf("%s: read %+v, %v; want the connection closed", what, f, err)
		}
	}
	refused("a fifth HELLO")

	started := make(chan error, len(conns))
	for r, c := range conns {
		go toStart(c, addrFrame(int32(r), fmt.Sprintf("127.0.0.1:%d", r+1)), started)
	}
	for range conns {
		if err := <-started; err != nil {
			t.Fatal(err)
		}
	}
	refused("a HELLO after START")

	for r, c := range conns {
		if err := writeCtl(c, (&doneInfo{iters: cfg.Iters}).frame(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conns {
		if _, err := readCtl(c, kindBye); err != nil {
			t.Fatal(err)
		}
	}
	if err := within(t, 5*time.Second, coordErr); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
}

// TestRendezvousNamesThePSWhereTheWorkerReachedIt: a coordinator on the
// wildcard address hosts the PS on the wildcard too, and the PEERS a worker
// gets names the PS at the address that worker dialed — here 127.0.0.2,
// which Linux routes to loopback — where it accepts a connection.
func TestRendezvousNamesThePSWhereTheWorkerReachedIt(t *testing.T) {
	cfg := liveConfig(core.BSP, 1, 4, 1)
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "0.0.0.0:0")
	if err != nil {
		t.Fatal(err)
	}
	coordErr := make(chan error, 1)
	go func() {
		_, err := coordinate(&cfg, ln, buildOptions(&cfg, nil, 1))
		coordErr <- err
	}()
	_, port, _ := net.SplitHostPort(ln.Addr().String())
	c, err := net.Dial("tcp", net.JoinHostPort("127.0.0.2", port))
	if err != nil {
		t.Skipf("127.0.0.2 is not routed to loopback: %v", err)
	}
	defer c.Close()
	err = play(c, step{f: xport.Frame{Kind: kindHello, Data: []byte(fingerprint(&cfg))}},
		step{want: kindAssign}, step{f: addrFrame(0, "127.0.0.2:1")})
	var peers []string
	if err == nil {
		var f xport.Frame
		if f, err = readCtl(c, kindPeers); err == nil {
			peers, err = parsePeers(f.Data, meshSize(&cfg))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if host, _, _ := net.SplitHostPort(peers[1]); host != "127.0.0.2" {
		t.Fatalf("PEERS names the PS at %s, want the host the worker dialed, 127.0.0.2", peers[1])
	}
	ps, err := net.DialTimeout("tcp", peers[1], 2*time.Second)
	if err != nil {
		t.Fatalf("the PS does not accept at %s: %v", peers[1], err)
	}
	ps.Close()
	c.Close()
	if err := within(t, 5*time.Second, coordErr); err == nil {
		t.Fatal("the run went on without its only worker")
	}
}
