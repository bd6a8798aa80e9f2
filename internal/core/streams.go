package core

import "disttrain/internal/rng"

// Streams are one worker's RNG streams, derived from the experiment seed.
type Streams struct {
	Init   *rng.RNG // model initialization (identical for every worker)
	Shard  *rng.RNG // batch sampling over this worker's data shard
	Jitter *rng.RNG // compute-time sampling (virtual time only)
	Algo   *rng.RNG // algorithm decisions (gossip draws, peer choice)
}

// DeriveStreams derives every worker's streams for a world of the given
// size, plus the stream that seeds the gossip overlay. It is the one place
// a worker's streams come from: the simulator's setup takes all of ws, a
// live worker takes ws[rank], and because worker w's streams depend only on
// (seed, w) — each root splits its children in worker order — W independent
// processes agree with one simulator loop. The overlay's label comes after
// the four established ones, so adding it left every earlier stream
// unchanged.
func DeriveStreams(seed uint64, workers int) (ws []Streams, overlay *rng.RNG) {
	root := rng.New(seed)
	_ = root.Split(1) // label 1: model initialization, re-derived per worker below
	shardRoot := root.Split(2)
	jitterRoot := root.Split(3)
	algoRoot := root.Split(4)
	ws = make([]Streams, workers)
	for w := range ws {
		ws[w] = Streams{
			Init:   rng.New(seed).Split(1),
			Shard:  shardRoot.Split(uint64(w)),
			Jitter: jitterRoot.Split(uint64(w)),
			Algo:   algoRoot.Split(uint64(w)),
		}
	}
	return ws, root.Split(5)
}
