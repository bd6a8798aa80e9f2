package live

import (
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/ps"
	"disttrain/internal/xport"
)

// TestPostWithdrawal holds a worker's posted PS reply to the withdrawal
// contract, under the race detector in CI: an SSP worker over loopback TCP
// posts its parameter store with each pull, and its PS is a raw connection
// that writes reply bytes when the test says. A wait that gives up before
// any reply came takes the post back: the reply that arrives late is lent,
// and the store keeps its values. A wait that gives up while a reply is
// mid-read — the reply has claimed the post — takes that reply, in the
// store, once it has landed.
func TestPostWithdrawal(t *testing.T) {
	cfg := liveConfig(core.SSP, 1, 4, 3)
	eps := make([]*xport.TCPNet, 2)
	addrs := make([]string, 2)
	for i := range eps {
		ep, err := xport.ListenTCP(i, 2, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i], addrs[i] = ep, ep.Addr()
	}
	eps[0].SetPeers(addrs)
	w := newWorker(&cfg, 0, eps[0], buildOptions(&cfg, nil, 1))
	store := w.rep.Weights()
	conn, err := net.Dial("tcp", eps[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reply := func(clock int) ([]float32, []byte) {
		vec := make([]float32, len(store))
		for i := range vec {
			vec[i] = float32(100*clock + i)
		}
		return vec, (&xport.Frame{Kind: uint16(ps.Params), From: 1, Clock: int32(clock), Vec: vec}).AppendEncode(nil)
	}
	pull := func(clock int) {
		t.Helper()
		if _, err := w.Send(1, &core.Msg{Kind: int(ps.Pull), Clock: clock}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(b []byte) {
		if _, err := conn.Write(b); err != nil {
			t.Error(err)
		}
	}

	keep := slices.Clone(store)
	pull(3)
	if _, ok, err := w.next(time.Now().Add(20*time.Millisecond), false); ok || err != nil {
		t.Fatalf("a wait with no reply coming: ok %v, err %v", ok, err)
	}
	_, late := reply(3)
	write(late)
	f, ok, err := w.next(time.Now().Add(5*time.Second), false)
	if !ok || err != nil {
		t.Fatalf("the late reply: ok %v, err %v", ok, err)
	}
	if w.isStore(f.Vec) || !slices.Equal(store, keep) {
		t.Fatal("a reply that came after its wait gave up landed in the parameter store")
	}
	f.Release()

	pull(4)
	want, b := reply(4)
	cut := len(b) - 16
	write(b[:cut])
	time.Sleep(200 * time.Millisecond) // the reader claims the post once the header is in
	go func() {
		time.Sleep(100 * time.Millisecond)
		write(b[cut:])
	}()
	f, ok, err = w.next(time.Now(), false)
	if !ok || err != nil {
		t.Fatalf("a wait that gave up mid-read: ok %v, err %v", ok, err)
	}
	if !w.isStore(f.Vec) {
		t.Fatal("the reply that was landing when the wait gave up was lent")
	}
	for i, v := range store {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("store element %d = %v, want the reply's %v", i, v, want[i])
		}
	}
}

// TestInt8CodesWrittenOnce: an int8 worker's replica writes its codes into
// the code region of the payload a whole-vector contribution ships in — the
// worker binds the two as run does —, so that payload goes out as it lies;
// an AllReduce chunk's codes are copied into a payload of their own, so that
// encoding one chunk leaves the codes of the chunks still to be sent as they
// were.
func TestInt8CodesWrittenOnce(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 2, 4, 3)
	cfg.Quantize8 = true
	w := newWorker(&cfg, 0, xport.NewChanNet(2).Endpoint(0), buildOptions(&cfg, nil, 1))
	n := len(w.rep.Weights())
	w.enc, w.codes = xport.Int8Payload(nil, n)
	w.rep.SetCodes(w.codes)
	for i := range w.codes {
		w.codes[i] = int8(i%255 - 127)
	}
	want := slices.Clone(w.codes)
	encode := func(lo, hi int) []byte {
		t.Helper()
		f := &xport.Frame{}
		w.encodeChunk(&core.Msg{Own: true, Vec: make([]float32, hi-lo), Codes: w.codes[lo:hi], Aux: 0.5}, f)
		q, err := xport.DecodeQuantVec(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if q.Scale != 0.5 || !slices.Equal(q.I8, want[lo:hi]) {
			t.Fatalf("the payload of [%d, %d) does not carry its codes", lo, hi)
		}
		return f.Data
	}
	if data := encode(0, n); &data[0] != &w.enc[0] {
		t.Fatal("a whole vector's codes were copied into another payload")
	}
	for _, c := range [][2]int{{n / 2, n}, {n / 4, n / 2}, {0, n / 4}} {
		if data := encode(c[0], c[1]); &data[0] == &w.enc[0] {
			t.Fatalf("chunk [%d, %d) was encoded into the whole vector's payload", c[0], c[1])
		}
	}
}
