package xport

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"disttrain/internal/rng"
)

// pooled counts the slices r holds.
func (r *recycler[T]) pooled() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, l := range r.lists {
		n += len(l)
	}
	return n
}

// TestRecyclerFilingProperty drives a recycler of its own through random
// sequences of puts — of any length and capacity from the pooled minimum to
// eight times it, exact-length vectors among them — and gets of any length:
// a get never returns fewer elements of capacity than it asked for, never a
// slice another holder still has, and a slice put back is served again
// where it fits.
func TestRecyclerFilingProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		var r recycler[float32]
		min := r.minPooled()
		g := rng.New(seed)
		held := map[*float32]bool{}
		for op := 0; op < 200; op++ {
			c := min + g.Intn(7*min)
			if g.Intn(2) == 0 {
				s := make([]float32, g.Intn(c+1), c)
				if g.Intn(2) == 0 {
					s = s[:c] // an exact-length vector
				}
				r.put(s)
				continue
			}
			s := r.get(c)
			p := unsafe.SliceData(s)
			if len(s) != c || cap(s) < c || held[p] {
				t.Logf("seed %d: get(%d) returned len %d cap %d, held elsewhere %v", seed, c, len(s), cap(s), held[p])
				return false
			}
			held[p] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecyclerRoundTrips: a section get allocated comes back to a get of
// any length its class serves, and an exact-length model vector put back —
// filed under the class below its length — to a get of its own length, but
// never to a longer one.
func TestRecyclerRoundTrips(t *testing.T) {
	var r recycler[float32]
	min := r.minPooled()
	for _, n := range []int{min, min + 1, 3*min + 7, 1_050_627} {
		s := r.get(n)
		r.put(s)
		_, capacity := sizeClass(n)
		for _, m := range []int{n, capacity} {
			got := r.get(m)
			if unsafe.SliceData(got) != unsafe.SliceData(s) || len(got) != m {
				t.Fatalf("a section of class capacity %d put back did not serve get(%d)", capacity, m)
			}
			r.put(got)
		}
		r.get(n) // empty the class again

		model := make([]float32, n)
		r.put(model)
		if _, capacity := sizeClass(n); capacity != n {
			if got := r.get(n + 1); unsafe.SliceData(got) == unsafe.SliceData(model) {
				t.Fatalf("a %d-element vector served get(%d)", n, n+1)
			}
		}
		if got := r.get(n); unsafe.SliceData(got) != unsafe.SliceData(model) || len(got) != n {
			t.Fatalf("a %d-element vector put back did not serve get(%d)", n, n)
		}
	}
}

// TestRecyclerDropsAfterCollection: what the package's recyclers hold is
// let go of by the collection cycles that follow, so an idle process gives
// the memory back.
func TestRecyclerDropsAfterCollection(t *testing.T) {
	(&Frame{Vec: make([]float32, vecs.minPooled()), Data: make([]byte, datas.minPooled())}).Release()
	for deadline := time.Now().Add(10 * time.Second); vecs.pooled()+datas.pooled() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sections still pooled after 10 s of collections", vecs.pooled()+datas.pooled())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
