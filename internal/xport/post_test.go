package xport

import (
	"errors"
	"net"
	"testing"
	"time"

	"disttrain/internal/tensor"
)

// TestPostedFrameLandsInPlace: on both meshes, a frame from another sender,
// kind or clock than the post names, or with a Vec of another length, is
// lent as ever; the one posted for arrives with its Vec in the destination,
// which Release leaves alone — with released vectors poisoned, the
// destination keeps the frame's values — and the post is then used up. A
// withdrawn post is used by nothing: the frame it was for is lent.
func TestPostedFrameLandsInPlace(t *testing.T) {
	defer tensor.PoisonReleased.Store(tensor.PoisonReleased.Swap(true))
	n := vecs.minPooled() + 5
	vec := func(v float32, n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = v + float32(i)
		}
		return s
	}
	tcp := tcpMesh(t, 3)
	cn := NewChanNet(3)
	for _, mesh := range []struct {
		name string
		eps  []Endpoint
	}{
		{"tcp", []Endpoint{tcp[0], tcp[1], tcp[2]}},
		{"chan", []Endpoint{cn.Endpoint(0), cn.Endpoint(1), cn.Endpoint(2)}},
	} {
		t.Run(mesh.name, func(t *testing.T) {
			rx, ps, other := mesh.eps[0], mesh.eps[1], mesh.eps[2]
			dst := make([]float32, n)
			rx.Post(&Frame{From: 1, Kind: 3, Clock: 7, Vec: dst})
			send := func(from Endpoint, f Frame) Frame {
				t.Helper()
				f.From = int32(from.Rank())
				if err := from.Send(0, &f); err != nil {
					t.Fatal(err)
				}
				got, err := rx.Recv(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			for _, f := range []struct {
				from Endpoint
				fr   Frame
			}{
				{other, Frame{Kind: 3, Clock: 7, Vec: vec(1, n)}},
				{ps, Frame{Kind: 4, Clock: 7, Vec: vec(2, n)}},
				{ps, Frame{Kind: 3, Clock: 6, Vec: vec(3, n)}},
				{ps, Frame{Kind: 3, Clock: 7, Vec: vec(4, n+1)}},
			} {
				if got := send(f.from, f.fr); &got.Vec[0] == &dst[0] || got.posted {
					t.Fatalf("frame %d/%d/%d of %d elements landed in the post", got.From, got.Kind, got.Clock, len(got.Vec))
				}
			}
			got := send(ps, Frame{Kind: 3, Clock: 7, Vec: vec(5, n)})
			if &got.Vec[0] != &dst[0] || !got.posted {
				t.Fatal("the frame posted for was lent")
			}
			got.Release()
			if want := vec(5, n); !framesEqual(Frame{Vec: dst}, Frame{Vec: want}) {
				t.Fatal("the destination does not hold the frame's Vec after Release")
			}
			if rx.Withdraw() {
				t.Fatal("a used post was still there to withdraw")
			}
			if got := send(ps, Frame{Kind: 3, Clock: 7, Vec: vec(6, n)}); got.posted {
				t.Fatal("a used post took a second frame")
			}
			rx.Post(&Frame{From: 1, Kind: 3, Clock: 8, Vec: dst})
			if !rx.Withdraw() {
				t.Fatal("an unclaimed post could not be withdrawn")
			}
			if got := send(ps, Frame{Kind: 3, Clock: 8, Vec: vec(7, n)}); got.posted || dst[0] != 5 {
				t.Fatal("a withdrawn post was used")
			}
		})
	}
}

// TestPostedFrameFailureFailsTheWaiter: a frame that claims the post and
// then fails its CRC is the poster's error, out of Recv; the same damage to a
// frame nobody posted for loses it silently, as before.
func TestPostedFrameFailureFailsTheWaiter(t *testing.T) {
	eps := tcpMesh(t, 2)
	bad := (&Frame{Kind: 3, From: 1, Clock: 7, Vec: []float32{1, 2, 3}}).AppendEncode(nil)
	bad[len(bad)-1] ^= 1
	write := func() {
		t.Helper()
		c, err := net.Dial("tcp", eps[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if _, err := eps[0].Recv(200 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a damaged frame nobody posted for: %v, want a timeout", err)
	}
	eps[0].Post(&Frame{From: 1, Kind: 3, Clock: 7, Vec: make([]float32, 3)})
	write()
	if _, err := eps[0].Recv(5 * time.Second); !isCRCError(err) {
		t.Fatalf("a damaged posted frame: %v, want its CRC error", err)
	}
}
