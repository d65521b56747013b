package search

import (
	"context"
	"math"
	"sync"

	"nocmap/internal/core"
	"nocmap/internal/store"
)

// Speculative move evaluation. A serial annealing chain scores one
// candidate placement per step; with Options.SpecK = K > 1 the annealer
// instead proposes K candidate moves of the current placement and scores
// them concurrently, one per cloned core.Session, then accepts the best
// improving candidate (or puts the least-bad one through a single
// Metropolis draw). All K sessions are kept in lockstep: after a batch
// commits, the losers replay the winning move — a deterministic re-route,
// since every session holds the identical configuration.
//
// Candidate generation stays serial and draws only from the chain's seeded
// PRNG before any evaluation starts, so a run's trajectory depends only on
// (Seed, SpecK, Iters) — never on goroutine scheduling. Iters counts
// candidate evaluations, not batches, so serial and speculative runs of
// the same Iters spend comparable search effort.

// candKind discriminates the two neighbourhood moves.
type candKind int

const (
	candSwap  candKind = iota // two cores exchange seats
	candReloc                 // one core relocates to a free seat
)

// specCand is one speculative move proposal: a pure description of the
// placement perturbation, generated from the chain PRNG against the
// current placement, with every random choice the evaluation could need
// (including the repair pick) pre-drawn so workers never touch the PRNG.
type specCand struct {
	valid      bool
	kind       candKind
	x, y       int // swap partners (swap)
	ni         int // relocation target seat (reloc)
	repairPick int // which disturbed core the repair relocates (0 or 1)
}

// specResult is one worker's verdict on its candidate.
type specResult struct {
	ok    bool
	stats core.Stats
	cost  float64
}

// specWorker owns one cloned session and the buffers to evaluate one
// candidate per batch on it.
type specWorker struct {
	sess   *core.Session
	cs, cn []int
	niLoad []int
	moved  [2]int
}

func newSpecWorker(sess *core.Session, numCores, numNIs int) *specWorker {
	return &specWorker{
		sess:   sess,
		cs:     make([]int, numCores),
		cn:     make([]int, numCores),
		niLoad: make([]int, numNIs),
	}
}

// evaluate scores one candidate on the worker's session: apply the
// perturbation, TryMove, and on rejection the Kit's repair of the
// pre-picked disturbed core — the same policy as the serial Propose. On ok
// the move is left pending on the session for the selection step to Keep
// or Undo.
func (w *specWorker) evaluate(a annealer, switches int, cand specCand) specResult {
	w.sess.PlacementInto(w.cs, w.cn)
	cs, cn := w.cs, w.cn
	from := -1
	switch cand.kind {
	case candSwap:
		cs[cand.x], cs[cand.y] = cs[cand.y], cs[cand.x]
		cn[cand.x], cn[cand.y] = cn[cand.y], cn[cand.x]
		w.moved = [2]int{cand.x, cand.y}
	case candReloc:
		from = cn[cand.x]
		cn[cand.x] = cand.ni
		cs[cand.x] = cand.ni / a.P.NIsPerSwitch
		w.moved = [2]int{cand.x, cand.x}
	}
	stats, err := w.sess.TryMove(cs, cn, w.moved[0], w.moved[1])
	if err != nil {
		var ok bool
		niLoad := niOccupancyInto(w.niLoad, cn)
		if stats, ok = a.repair(w.sess, cs, cn, niLoad, w.moved, w.moved[cand.repairPick], from); !ok {
			return specResult{}
		}
	}
	return specResult{ok: true, stats: stats, cost: a.Opts.Weights.OfParts(switches, stats)}
}

// generateCand draws one move proposal from the chain PRNG against the
// current placement (cn/niLoad are the batch-shared snapshots). The draw
// structure mirrors Kit.Move, plus one pre-drawn repair pick per proposal
// so the concurrent evaluations stay PRNG-free.
func (a annealer) generateCand(cn, niLoad []int, attached []int) specCand {
	if a.Rng.Float64() < 0.7 {
		x := attached[a.Rng.Intn(len(attached))]
		y := attached[a.Rng.Intn(len(attached))]
		pick := a.Rng.Intn(2)
		if x == y || cn[x] == cn[y] {
			return specCand{}
		}
		return specCand{valid: true, kind: candSwap, x: x, y: y, repairPick: pick}
	}
	x := attached[a.Rng.Intn(len(attached))]
	free := freeNIsInto(a.freeBuf[:0], niLoad, cn[x], a.P.CoresPerNI)
	a.freeBuf = free
	if len(free) == 0 {
		return specCand{}
	}
	ni := free[a.Rng.Intn(len(free))]
	pick := a.Rng.Intn(2)
	return specCand{valid: true, kind: candReloc, x: x, ni: ni, repairPick: pick}
}

// annealBatch is the speculative counterpart of the serial move loop in
// annealFrom: batches of up to SpecK candidates, evaluated concurrently on
// cloned sessions, best-improving acceptance with a Metropolis fallback.
// sess arrives positioned at the chain's start and becomes worker 0's
// session.
func (a annealer) annealBatch(ctx context.Context, sess *core.Session, switches int, attached []int, curCost, t0, alpha float64) {
	K := a.Opts.SpecK
	workers := make([]*specWorker, K)
	workers[0] = newSpecWorker(sess, a.NumCores, len(a.niLoad))
	for i := 1; i < K; i++ {
		c, err := sess.Clone()
		if err != nil {
			return
		}
		workers[i] = newSpecWorker(c, a.NumCores, len(a.niLoad))
	}
	cands := make([]specCand, K)
	results := make([]specResult, K)
	temp := t0
	for done := 0; done < a.Opts.Iters; {
		if ctx.Err() != nil {
			break
		}
		batch := min(K, a.Opts.Iters-done)
		done += batch

		// Generation: serial, PRNG-driven, against the shared current
		// placement (all sessions are in lockstep — worker 0 is as good a
		// source as any).
		workers[0].sess.PlacementInto(a.cs, a.cn)
		niLoad := a.Occupancy(a.cn)
		for k := 0; k < batch; k++ {
			cands[k] = a.generateCand(a.cn, niLoad, attached)
		}
		a.Counts.Moves += int64(batch)
		a.Counts.Speculated += int64(batch)

		// Evaluation: one candidate per cloned session, concurrently. A
		// worker that sees the context cancelled reports a miss without
		// touching its session, so the lockstep invariant survives
		// mid-batch cancellation.
		var wg sync.WaitGroup
		for k := 0; k < batch; k++ {
			results[k] = specResult{}
			if !cands[k].valid {
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if ctx.Err() != nil {
					return
				}
				results[k] = workers[k].evaluate(a, switches, cands[k])
			}(k)
		}
		wg.Wait()

		// Selection: the best-scoring feasible candidate, ties toward the
		// lowest index (the candidate the serial chain would have met
		// first). An improving winner is accepted outright; a worsening
		// one gets the chain's single Metropolis draw.
		bestK := -1
		for k := 0; k < batch; k++ {
			if results[k].ok && (bestK < 0 || results[k].cost < results[bestK].cost-store.CostEps) {
				bestK = k
			}
		}
		accept := false
		if bestK >= 0 {
			delta := results[bestK].cost - curCost
			accept = delta <= 0 || a.Rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			winner := workers[bestK]
			winner.sess.Keep()
			a.syncLosers(workers, results, batch, bestK)
			curCost = results[bestK].cost
			a.Counts.Accepted++
			a.Counts.SpecAccepted++
			a.ConsiderSession(winner.sess, curCost)
		} else {
			for k := 0; k < batch; k++ {
				if results[k].ok {
					workers[k].sess.Undo()
				}
			}
		}
		// The serial chain cools once per candidate; one batch is `batch`
		// candidates' worth of schedule.
		temp *= math.Pow(alpha, float64(batch))
	}
	// Leave no move pending on the chain's primary session (worker 0 owns
	// the caller's sess): every path above Keeps or Undoes before looping,
	// so this is already true; stated for the reader.
}

// syncLosers restores lockstep after a committed batch: every session but
// the winner's undoes its own pending candidate and replays the winning
// move. The replay is a deterministic re-route of identical state, so it
// cannot fail; if it ever does, the session is replaced by a fresh clone
// of the winner rather than left diverged.
func (a annealer) syncLosers(workers []*specWorker, results []specResult, batch, bestK int) {
	winner := workers[bestK]
	for k, w := range workers {
		if k == bestK {
			continue
		}
		if k < batch && results[k].ok {
			w.sess.Undo()
		}
		if _, err := w.sess.TryMove(winner.cs, winner.cn, winner.moved[0], winner.moved[1]); err == nil {
			w.sess.Keep()
			continue
		}
		if c, err := winner.sess.Clone(); err == nil {
			w.sess = c
		}
	}
}

// probeSpec is the speculative restart prober: it draws the same shuffled
// placements the serial Probe would, in waves of SpecK, scores
// each wave concurrently (core.Evaluator is safe for concurrent use) and
// returns the lowest-indexed feasible probe — the one the serial prober
// would have returned had it evaluated that far.
func (k *Kit) probeSpec(ctx context.Context, ev *core.Evaluator, seats []int, attached []int, tries int) *core.Result {
	type probe struct{ cs, cn []int }
	probes := make([]probe, k.specK)
	results := make([]*core.Result, k.specK)
	for r := 0; r < tries; {
		if ctx.Err() != nil {
			return nil
		}
		wave := min(k.specK, tries-r)
		r += wave
		for i := 0; i < wave; i++ {
			k.Counts.Restarts++
			probes[i].cs, probes[i].cn = k.shuffledPlacement(seats, attached)
			results[i] = nil
		}
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if ctx.Err() != nil {
					return
				}
				if res, err := ev.Evaluate(probes[i].cs, probes[i].cn); err == nil {
					results[i] = res
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < wave; i++ {
			if results[i] != nil {
				return results[i]
			}
		}
	}
	return nil
}
