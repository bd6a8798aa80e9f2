package main

import (
	"bytes"
	"encoding/json"
	"sort"

	"disttrain/internal/trace"
)

// events returns the tracer's recorded spans. The tracer only exports
// through its Chrome-trace writer, so this round-trips through that format —
// which is also what -traceout writes.
func events(tr *trace.Tracer) ([]trace.Event, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var evs []trace.Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return nil, err
	}
	return evs, nil
}

// selfTimeByCat sums span self time per category over the tracks of one
// Chrome-trace pid, in seconds. A span's self time is its duration minus
// the part its directly nested child spans cover, so a quantize span inside
// an allreduce span is counted once, under its own category.
func selfTimeByCat(evs []trace.Event, pid int) map[string]float64 {
	tracks := map[int][]trace.Event{}
	for _, e := range evs {
		if e.Pid == pid && e.Dur > 0 {
			tracks[e.Tid] = append(tracks[e.Tid], e)
		}
	}
	type open struct {
		cat  string
		end  float64
		self float64
	}
	out := map[string]float64{}
	for _, track := range tracks {
		// Parents before children: earlier start first, longer span first.
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].Ts != track[j].Ts {
				return track[i].Ts < track[j].Ts
			}
			return track[i].Dur > track[j].Dur
		})
		var stack []open
		pop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out[top.cat] += top.self / 1e6
		}
		for _, e := range track {
			for len(stack) > 0 && stack[len(stack)-1].end <= e.Ts {
				pop()
			}
			if n := len(stack); n > 0 {
				covered := min(e.Ts+e.Dur, stack[n-1].end) - e.Ts
				stack[n-1].self -= covered
			}
			stack = append(stack, open{cat: e.Cat, end: e.Ts + e.Dur, self: e.Dur})
		}
		for len(stack) > 0 {
			pop()
		}
	}
	return out
}

// spanSeconds sums the durations of the spans with the given name on pid.
func spanSeconds(evs []trace.Event, pid int, name string) float64 {
	var us float64
	for _, e := range evs {
		if e.Pid == pid && e.Name == name {
			us += e.Dur
		}
	}
	return us / 1e6
}
