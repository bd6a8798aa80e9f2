package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestMailbox drives the match-and-park receive over scripted arrivals:
// messages are told apart by From, and a take past the script fails.
func TestMailbox(t *testing.T) {
	msg := func(from, kind, clock, seg int) *Msg { return &Msg{Kind: kind, From: from, Clock: clock, Seg: seg} }
	type step struct {
		m   *Msg
		ok  bool
		err error
	}
	arrive := func(ms ...*Msg) []step {
		out := make([]step, len(ms))
		for i, m := range ms {
			out[i] = step{m, true, nil}
		}
		return out
	}
	type call struct {
		kind, clock, seg int
		from             int // of the message returned
		ok               bool
		err              error
	}
	errTake := errors.New("endpoint closed")
	for _, tc := range []struct {
		name   string
		parked []*Msg
		script []step
		calls  []call
		left   []int // From of what stays parked
	}{
		{
			name:   "parked first, in arrival order",
			parked: []*Msg{msg(1, 5, 1, 0), msg(2, 5, 1, 0)},
			script: arrive(msg(3, 5, 1, 0)),
			calls:  []call{{5, 1, 0, 1, true, nil}, {5, 1, 0, 2, true, nil}, {5, 1, 0, 3, true, nil}},
		},
		{
			name:   "a parked message that does not match stays",
			parked: []*Msg{msg(1, 6, 1, 0)},
			script: arrive(msg(2, 5, 1, 0)),
			calls:  []call{{5, 1, 0, 2, true, nil}},
			left:   []int{1},
		},
		{
			name:   "any kind",
			parked: []*Msg{msg(1, 6, 1, 0), msg(2, 5, 2, 0), msg(3, 7, 2, 0)},
			calls:  []call{{Any, 2, 0, 2, true, nil}},
			left:   []int{1, 3},
		},
		{
			name:   "any clock",
			parked: []*Msg{msg(1, 5, 1, 1), msg(2, 5, 9, 0), msg(3, 5, 4, 0)},
			calls:  []call{{5, Any, 0, 2, true, nil}},
			left:   []int{1, 3},
		},
		{
			name:   "any seg",
			parked: []*Msg{msg(1, 6, 1, 3), msg(2, 5, 1, 3), msg(3, 5, 1, 4)},
			calls:  []call{{5, 1, Any, 2, true, nil}},
			left:   []int{1, 3},
		},
		{
			name:   "any on every field",
			parked: []*Msg{msg(1, 6, 1, 3), msg(2, 5, 1, 3)},
			calls:  []call{{Any, Any, Any, 1, true, nil}},
			left:   []int{2},
		},
		{
			name:   "an arrival that does not match is parked for a later call",
			script: arrive(msg(1, 5, 2, 0), msg(2, 5, 1, 1), msg(3, 5, 1, 0)),
			calls:  []call{{5, 1, 0, 3, true, nil}, {5, 2, Any, 1, true, nil}},
			left:   []int{2},
		},
		{
			name:   "not ok comes back unchanged",
			parked: []*Msg{msg(1, 6, 1, 0)},
			script: append(arrive(msg(2, 7, 1, 0)), step{msg(9, 5, 1, 0), false, nil}),
			calls:  []call{{5, 1, 0, 9, false, nil}},
			left:   []int{1, 2},
		},
		{
			name:   "an error comes back unchanged",
			parked: []*Msg{msg(1, 6, 1, 0)},
			script: append(arrive(msg(2, 7, 1, 0)), step{msg(8, 5, 1, 0), true, errTake}),
			calls:  []call{{5, 1, 0, 8, true, errTake}},
			left:   []int{1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mb := Mailbox{parked: tc.parked}
			script := tc.script
			take := func() (*Msg, bool, error) {
				if len(script) == 0 {
					t.Fatal("take called past the script")
				}
				s := script[0]
				script = script[1:]
				return s.m, s.ok, s.err
			}
			for i, c := range tc.calls {
				m, ok, err := mb.Recv(c.kind, c.clock, c.seg, take)
				if m.From != c.from || ok != c.ok || err != c.err {
					t.Fatalf("call %d returned from %d, %v, %v; want from %d, %v, %v",
						i, m.From, ok, err, c.from, c.ok, c.err)
				}
			}
			if len(script) != 0 {
				t.Fatalf("%d arrivals not taken", len(script))
			}
			var left []int
			for _, m := range mb.parked {
				left = append(left, m.From)
			}
			if fmt.Sprint(left) != fmt.Sprint(tc.left) {
				t.Fatalf("left parked %v, want %v", left, tc.left)
			}
		})
	}
}
