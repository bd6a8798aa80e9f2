package tensor

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"disttrain/internal/rng"
)

// kept counts the vectors l keeps and the vectors it counts holds on.
func (l *Lender[T]) kept() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.holds)
	for _, fs := range l.free {
		n += len(fs)
	}
	return n
}

// TestLenderHolds: a vector goes back with its last hold, not before; one
// nothing holds passes through Release untouched; Put takes one back
// whoever held it; a nil lender's Clone copies.
func TestLenderHolds(t *testing.T) {
	var l Lender[float32]
	v := l.Clone([]float32{1, 2, 3})
	l.Hold(v)
	l.Hold(v)
	l.Release(v)
	if len(l.free[3]) != 0 {
		t.Fatal("a vector went back to the lender while a message still held it")
	}
	l.Release(v)
	if len(l.free[3]) != 1 || &l.free[3][0][0] != &v[0] {
		t.Fatalf("the last release left %d free vectors, want v", len(l.free[3]))
	}
	l.Release(v) // no hold left: untouched
	l.Release([]float32{4, 5, 6})
	if len(l.free[3]) != 1 {
		t.Fatalf("%d free vectors after releasing unheld ones, want 1", len(l.free[3]))
	}
	if w := l.Clone([]float32{7, 8, 9}); &w[0] != &v[0] || w[2] != 9 {
		t.Fatalf("Clone did not reuse the released vector: %v", w)
	}
	if w := l.Get(3); &w[0] == &v[0] {
		t.Fatal("Get lent a vector still lent out")
	}
	short := l.Clone([]float32{1, 2})
	l.Put(short)
	if w := l.Get(3); len(w) != 3 || &w[0] == &short[0] {
		t.Fatal("Get lent a vector of another length")
	}
	if w := l.Get(2); &w[0] != &short[0] {
		t.Fatal("Get did not reuse the vector put back at its length")
	}
	var none *Lender[float32]
	src := []float32{1, 2}
	if c := none.Clone(src); &c[0] == &src[0] || c[1] != 2 {
		t.Fatal("a nil lender's Clone must copy")
	}
	none.Hold(src)
	none.Release(src)
}

// TestLenderConcurrentProperty drives one lender from four goroutines
// through seeded random Gets of three lengths, Puts, Holds and Releases, and
// Releases of vectors it never lent: a vector is never out to two holders
// at once, never of another length than asked for, never back while a hold
// on it remains, and a vector the lender never lent never comes out of it.
// Each holder writes its mark into what it holds and finds it intact when it
// lets go; under -race a vector lent twice is a data race too.
func TestLenderConcurrentProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		var l Lender[byte]
		var mu sync.Mutex
		out := map[*byte]int{} // who holds each vector that is out: a goroutine, or -1 never lent
		ok := true
		fail := func(format string, args ...any) {
			mu.Lock()
			ok = false
			mu.Unlock()
			t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		take := func(g int, v []byte) {
			mu.Lock()
			if h, dup := out[&v[0]]; dup {
				mu.Unlock()
				fail("goroutine %d got a vector goroutine %d holds", g, h)
				return
			}
			out[&v[0]] = g
			mu.Unlock()
		}
		give := func(v []byte) {
			mu.Lock()
			delete(out, &v[0])
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func(g int, r *rng.RNG) {
				defer wg.Done()
				var mine [][]byte
				for op := 0; op < 300; op++ {
					switch k := r.Intn(4); {
					case k < 2 || len(mine) == 0:
						n := 8 << r.Intn(3)
						v := l.Get(n)
						if len(v) != n {
							fail("Get(%d) returned %d elements", n, len(v))
							return
						}
						take(g, v)
						for i := range v {
							v[i] = byte(g)
						}
						mine = append(mine, v)
					default:
						i := r.Intn(len(mine))
						v := mine[i]
						mine = append(mine[:i], mine[i+1:]...)
						for _, b := range v {
							if b != byte(g) {
								fail("goroutine %d's vector was written by %d", g, b)
								return
							}
						}
						if k == 2 {
							give(v)
							l.Put(v)
							continue
						}
						holds := 1 + r.Intn(3)
						for range holds {
							l.Hold(v)
						}
						for h := holds; h > 1; h-- {
							l.Release(v) // the vector stays out: a Get that returns it fails take
						}
						give(v)
						l.Release(v)
					}
					if r.Intn(8) == 0 {
						foreign := make([]byte, 8)
						take(-1, foreign)
						l.Release(foreign)
					}
				}
			}(g, rng.New(seed).Split(uint64(g)))
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLenderDropsEachCycle: a lender that drops each cycle lets go of what it
// keeps and of its holds within a few collection cycles, so an idle process
// gives the memory back; a vector whose hold was dropped is then left alone
// by Release. Without DropEachCycle a lender keeps what it has.
func TestLenderDropsEachCycle(t *testing.T) {
	var kept, dropped Lender[float32]
	dropped.DropEachCycle()
	held := dropped.Get(4)
	dropped.Hold(held)
	for _, l := range []*Lender[float32]{&kept, &dropped} {
		l.Put(make([]float32, 4))
	}
	for deadline := time.Now().Add(10 * time.Second); dropped.kept() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d vectors still kept after 10 s of collections", dropped.kept())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	dropped.Release(held)
	if n := dropped.kept(); n != 0 {
		t.Fatalf("a release after the drop kept %d vectors", n)
	}
	if n := kept.kept(); n != 1 {
		t.Fatalf("a lender without the drop kept %d vectors after collections, want 1", n)
	}
}
