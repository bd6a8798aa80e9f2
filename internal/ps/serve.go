package ps

import "io"

// Wire is a runtime's side of one parameter-server shard: the simulator's
// timed inbox and paper-scale replies, or the live server's frames.
type Wire interface {
	// Recv returns the next message in arrival order, or io.EOF when service
	// ends. A bounded receive may give up and report ok = false; how long it
	// waits, if it gives up at all, is the wire's to decide.
	Recv(bounded bool) (m Msg, ok bool, err error)
	// Send writes the replies in order. A Params reply carries the global
	// parameters as they stand when it is written.
	Send(out []Reply) error
	// Release hands back a received vector the shard no longer reads.
	Release(vec []float32)
}

// barrenWakeups is how many expiries in a row that let nothing go Serve
// allows before it blocks again.
const barrenWakeups = 3

// Serve is the one parameter-server loop of both runtimes: it hands each
// message the wire receives to the shard and sends the replies the shard
// names, until the wire ends service. While the shard holds something expire
// could let go the wait is bounded, and a wait that gives up expires it;
// after barrenWakeups barren expiries it blocks, so a finished run can drain.
// Vectors go back to the wire once the shard is done with them, before the
// replies are written so that the receiving ranks reuse the buffers; EASGD's
// reply is the pushed vector itself and goes back after its Send.
func Serve(sh *Shard, w Wire) error {
	var held []Msg // received messages whose vectors are not yet released
	barren := 0
	for {
		m, ok, err := w.Recv(sh.waiting() && barren < barrenWakeups)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var out []Reply
		if ok {
			barren = 0
			if out, err = sh.Handle(m); err != nil {
				return err
			}
			held = append(held, m)
		} else {
			var moved bool
			out, moved = sh.expire()
			if barren++; moved {
				barren = 0
			}
		}
		if !ok || len(out) > 0 || !sh.keeps(m) { // a BSP round lets go as it closes
			kept := held[:0]
			for _, h := range held {
				switch {
				case sh.keeps(h):
					kept = append(kept, h)
				case h.Kind != Push:
					w.Release(h.Vec)
				}
			}
			clear(held[len(kept):])
			held = kept
		}
		if err := w.Send(out); err != nil {
			return err
		}
		for _, r := range out {
			if r.Kind == PushReply {
				w.Release(r.Vec)
			}
		}
	}
}
