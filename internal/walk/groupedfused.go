package walk

import (
	"math/bits"
	"sync"

	"manywalks/internal/rng"
)

// This file holds the fused fast path of the run driver: the uniform
// kernel on a pad-table graph, driving a lone GroupCoverObserver with a
// count goal — the workload behind every cover-time estimate and single
// cover run. It keeps the generic path's exact draw discipline while
// cutting the per-step instruction count roughly in half, with three
// ingredients:
//
//   - Pair transition table: pad2[v<<2s | b] packs the two-hop outcome of
//     consuming 2s draw bits from vertex v as (mid<<16 | dst), so one
//     lookup advances a walker two rounds. The bits consumed are exactly
//     the bits stepRound would consume in rounds t and t+1; any pair whose
//     path touches a padding sentinel is marked and resolved hop-by-hop
//     with the same redraw semantics, so the per-walker draw sequence is
//     bit-for-bit unchanged.
//   - Block-generated draws: each draw group opens with a fill pass that
//     banks one fresh Uint64 per walker into the reservoir lane, instead
//     of interleaving generator state loads with the table walk. The
//     sequence seen by each walker's stream is identical — one draw at
//     the group's first round, redraws in round order.
//   - Inline first-visit scan: the pair loop probes the lane's uint32
//     first-visit cells directly (unsigned-min update, order-invariant;
//     see GroupCoverObserver), so there is no second pass over the
//     positions.
//
// A lane whose distinct-visit count crosses its target is detected at the
// end of the pass that crossed it; the exact crossing round is then
// resolved from the lane's first-visit cells (a single O(n) sweep, once
// per trial), and the lane stops stepping — overshoot is at most one
// pair.
//
// Lanes of fewer than thinLaneWalkers walkers (k = 1 above all, the
// single-walk cover time every speed-up divides by) have too few walkers to
// fill a chunked pass, so they step walker-major instead (laneGroupThin):
// each walker runs a whole draw group with its position, its reservoir and
// the lane's count in locals, and the crossing round is resolved once
// over the group's span, so overshoot is at most one group.
//
// The tables pay off only while they stay cache-resident: past
// maxPairEntries the extra table misses cost more than the halved
// instruction count saves, so a graph whose pair table is larger runs its
// wide lanes generic. Measured on a 2-vCPU Xeon, single k=64 cover runs
// were faster fused with a 144 KiB table (margulis:24) and a 256 KiB one
// (a 64×64 torus) but slower with 1 MiB (margulis:64), and a k=1024 run on
// margulis:128 (4 MiB) was faster generic. A thin lane on such a graph
// still runs fused, one round per pad-table lookup, while its pad table
// fits the same budget; past it the thin lane runs generic too, because a
// lone walker's dependent lookups cannot overlap their misses as the
// round-major loop overlaps those of many lanes.

const (
	// pairSentinel marks pad2 entries whose two-hop path touches a padding
	// sentinel and must be resolved hop-by-hop.
	pairSentinel = ^uint32(0)
	// maxPairEntries caps the pair table at 512 KiB (see the file comment).
	maxPairEntries = 1 << 17
	// maxPairVertex bounds vertex ids to 16 bits so (mid, dst) pack into
	// one uint32 without colliding with the sentinel.
	maxPairVertex = 1<<16 - 1
)

// pairTable is the lazily built two-step transition table.
type pairTable struct {
	once sync.Once
	ok   bool
	tbl  []uint32
}

// buildPairTable constructs the two-step table once per engine, when the
// graph and kernel qualify: uniform step law, pad table present, vertex
// ids within 16 bits, and table size within the cap.
func (e *Engine) buildPairTable() {
	e.pair.once.Do(func() {
		if e.prog.kind != progUniform || e.pad == nil {
			return
		}
		n := e.g.N()
		shift := e.padShift
		if n > maxPairVertex || n<<(2*shift) > maxPairEntries {
			return
		}
		stride := 1 << shift
		tbl := make([]uint32, n<<(2*shift))
		for v := 0; v < n; v++ {
			for b := 0; b < stride*stride; b++ {
				// Dual sentinel encoding: 0xFFFF in the low half flags a
				// slow pair; the high half still carries the first hop when
				// only the second touches a padding sentinel, so the slow
				// path resolves just the hop that needs redraws.
				ent := pairSentinel
				if mid := e.pad[v<<shift|b&(stride-1)]; mid != padSentinel {
					if dst := e.pad[int(mid)<<shift|(b>>shift)&(stride-1)]; dst != padSentinel {
						ent = uint32(mid)<<16 | uint32(dst)
					} else {
						ent = uint32(mid)<<16 | 0xFFFF
					}
				}
				tbl[v<<(2*shift)|b] = ent
			}
		}
		e.pair.tbl = tbl
		e.pair.ok = true
	})
}

// fusedCoverObserver reports whether the observer set and stop rule
// qualify for the fused cover path, returning the cover observer if so:
// a lone count-goal cover observer whose satisfaction stops the lane.
func (e *Engine) fusedCoverObserver(k int, stop StopCondition, obs []GroupObserver) *GroupCoverObserver {
	if len(obs) != 1 {
		return nil
	}
	cov, ok := obs[0].(*GroupCoverObserver)
	if !ok || len(cov.Targets) > 0 || len(cov.Thresholds) > 0 {
		return nil
	}
	if _, horizon := stop.(runToHorizon); horizon {
		return nil
	}
	// A thin lane steps walker-major, so it also runs on the pad table
	// alone when the pair table is over its cap but the pad table fits the
	// same cache budget; wide lanes need the pair table.
	e.buildPairTable()
	if !e.pair.ok && (k >= thinLaneWalkers || !e.padFitsPairBudget()) {
		return nil
	}
	return cov
}

// thinLaneWalkers is the width below which a fused lane steps walker-major
// (laneGroupThin) instead of in 64-wide chunked passes: a lane that thin
// cannot amortize a pass's per-chunk structure.
const thinLaneWalkers = 8

// padFitsPairBudget reports whether the uniform kernel's pad table fits the
// pair table's cache budget, which is what walker-major stepping needs: one
// walker's dependent lookups cannot overlap their misses with other
// walkers', so a larger table costs more than the fused loop saves.
func (e *Engine) padFitsPairBudget() bool {
	return e.prog.kind == progUniform && e.pad != nil && len(e.pad) <= maxPairEntries
}

// pairResolveSlow resolves a two-hop transition whose path touches a
// padding sentinel, hop-by-hop with stepRound's redraw semantics: each
// sentinel hit draws a fresh Uint64 from the walker's stream and retries
// with its low bits, leaving the reservoir untouched. The generator state
// is carried in registers across a hop's redraws, so a slow pair costs a
// handful of loads on top of the draws the generic path performs
// anyway.
func pairResolveSlow(str *rng.Source, pad []int32, shift uint32, p int32, r uint64, ent uint32) uint32 {
	mask := uint64(1)<<shift - 1
	s0, s1, s2, s3 := str.State()
	var mid int32
	if hi := ent >> 16; hi != 0xFFFF {
		mid = int32(hi)
	} else {
		mid = padSentinel
		for mid == padSentinel {
			var x uint64
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			mid = pad[uint64(uint32(p))<<shift|x&mask]
		}
	}
	dst := pad[uint64(uint32(mid))<<shift|(r>>shift)&mask]
	for dst == padSentinel {
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		dst = pad[uint64(uint32(mid))<<shift|x&mask]
	}
	str.SetState(s0, s1, s2, s3)
	return uint32(mid)<<16 | uint32(dst)
}

// The pair pass is split into two tiny loops — a step pass that walks the
// pair table into an entry buffer, and a scan pass that probes the lane's
// first-visit cells from that buffer — because small loops are what the
// compiler keeps in registers: a single fused loop carries more live
// values than x86-64 has registers and measures ~30% slower end-to-end on
// the gate benchmark, and a function call anywhere in a hot body (even a
// cold one) makes the compiler home the loop-carried values in stack
// slots. Both loops are branch-free on data outcomes: a trial lives
// almost entirely in its coverage phase, where "first visit?" is a coin
// flip resolving at the end of a load dependency chain, so data branches
// would mispredict constantly.
//
// pairStep64 advances one full 64-walker chunk two rounds through the
// pair table. Sentinel-touching pairs are deferred through the returned
// pending bitmask (hence the 64-walker cap): keep-original CMOVs leave
// the slow walker's position and reservoir in place, and the caller
// replays them hop-by-hop before scanning. Deferral cannot change
// results: the scan updates cells by unsigned min (observation order
// within a pass is immaterial) and each walker's stream is private.
func pairStep64(pad2 []uint32, pos *[64]int32, res *[64]uint64, ents *[64]uint32, shift2 uint32) uint64 {
	mask2 := uint64(1)<<shift2 - 1
	pend := uint64(0)
	for ii := 0; ii < 64; ii++ {
		p := pos[ii]
		r := res[ii]
		ent := pad2[uint64(uint32(p))<<shift2|r&mask2]
		slow := ent&0xFFFF == 0xFFFF
		var sb uint64
		if slow {
			sb = 1
		}
		pend |= sb << uint(ii)
		rv := r >> shift2
		pv := int32(ent & 0xFFFF)
		if slow {
			rv = r
			pv = p
		}
		ents[ii] = ent
		res[ii] = rv
		pos[ii] = pv
	}
	return pend
}

// pairScan64 probes the two first-visit cells of every entry in the
// buffer (rounds t1 and t1+1), maintaining the lane's distinct-visit
// count. By the time it runs every entry is fully resolved, so there is
// no sentinel handling at all: the probes compile to compare+CMOV with an
// unconditional store, and the count update exploits that an unset cell
// always satisfies t < s.
func pairScan64(first []uint32, ents *[64]uint32, base, t1 uint32, cnt int32) int32 {
	t2 := t1 + 1
	for ii := 0; ii < 64; ii++ {
		ent := ents[ii]
		mid := base + ent>>16
		dst := base + ent&0xFFFF
		s1 := first[mid]
		v1 := s1
		if t1 < v1 {
			v1 = t1
		}
		first[mid] = v1
		var n1 int32
		if s1 == groupUnset {
			n1 = 1
		}
		s2 := first[dst]
		v2 := s2
		if t2 < v2 {
			v2 = t2
		}
		first[dst] = v2
		var n2 int32
		if s2 == groupUnset {
			n2 = 1
		}
		cnt += n1 + n2
	}
	return cnt
}

// pairStepTail / pairScanTail are the sub-64 variants for a lane's
// trailing chunk (lanes whose k is not a multiple of 64); same contracts.
func pairStepTail(pad2 []uint32, pos []int32, res []uint64, ents []uint32, shift2 uint32) uint64 {
	mask2 := uint64(1)<<shift2 - 1
	pend := uint64(0)
	for ii := range pos {
		p := pos[ii]
		r := res[ii]
		ent := pad2[uint64(uint32(p))<<shift2|r&mask2]
		slow := ent&0xFFFF == 0xFFFF
		var sb uint64
		if slow {
			sb = 1
		}
		pend |= sb << uint(ii)
		rv := r >> shift2
		pv := int32(ent & 0xFFFF)
		if slow {
			rv = r
			pv = p
		}
		ents[ii] = ent
		res[ii] = rv
		pos[ii] = pv
	}
	return pend
}

func pairScanTail(first, ents []uint32, base, t1 uint32, cnt int32) int32 {
	t2 := t1 + 1
	for _, ent := range ents {
		mid := base + ent>>16
		dst := base + ent&0xFFFF
		s1 := first[mid]
		v1 := s1
		if t1 < v1 {
			v1 = t1
		}
		first[mid] = v1
		var n1 int32
		if s1 == groupUnset {
			n1 = 1
		}
		s2 := first[dst]
		v2 := s2
		if t2 < v2 {
			v2 = t2
		}
		first[dst] = v2
		var n2 int32
		if s2 == groupUnset {
			n2 = 1
		}
		cnt += n1 + n2
	}
	return cnt
}

// singleRoundFast is the call-free hot loop of one single-step round over
// one lane (the leftover round of an odd-length draw group). Padding
// sentinels redraw inline through the walker's stream — the redraw's
// generator math inlines, so the loop stays a leaf — and the first-visit
// probe is branchless for the same reason as pairScan64's.
func singleRoundFast(pad []int32, first []uint32, pos []int32, res []uint64, streams []rng.Source,
	base, shift, t uint32, cnt int32) int32 {
	mask := uint64(1)<<shift - 1
	for ii := range pos {
		p := pos[ii]
		r := res[ii]
		np := pad[uint64(uint32(p))<<shift|r&mask]
		for np == padSentinel {
			x := streams[ii].Uint64()
			np = pad[uint64(uint32(p))<<shift|x&mask]
		}
		res[ii] = r >> shift
		v := base + uint32(np)
		s := first[v]
		vv := s
		if t < vv {
			vv = t
		}
		first[v] = vv
		var nw int32
		if s == groupUnset {
			nw = 1
		}
		cnt += nw
		pos[ii] = np
	}
	return cnt
}

// laneGroup advances one wide lane (thinLaneWalkers walkers or more)
// through one draw group: the fill pass banks each walker's fresh draw
// into the reservoir lane (block-generated draws — the per-walker stream
// sequence is identical to stepRound's draw-at-group-start), the pair
// passes run pairStep64 and then replay its deferred sentinel pairs
// hop-by-hop with the exact redraw semantics before pairScan64 probes the
// cells, and an odd group length finishes with one single-step round.
// The lane early-exits at the first pass that crosses its target
// (overshoot is at most one pass), leaving the exact crossing round to
// resolveCrossing. t0 and the rounds inside are relative to the window
// starting at round wbase. One lane's whole group runs before the next
// lane starts, so its first-visit cells and walker state stay cache-hot
// for all rounds of the group.
func (e *Engine) laneGroup(gst *groupState, cov *GroupCoverObserver, ln int, sl int32, wbase int64, t0 uint32, pairs int, odd bool) {
	pad2 := e.pair.tbl
	pad, shift := e.pad, e.padShift
	shift2 := 2 * shift
	first := cov.first
	k := gst.laneK
	lo := ln * k
	pos := gst.pos[lo : lo+k]
	res := gst.res[lo : lo+k]
	streams := gst.streams[lo : lo+k]
	for ii := range res {
		res[ii] = streams[ii].Uint64()
	}
	base := uint32(int(sl) * cov.n)
	cnt := cov.slots[sl].count
	target := int32(cov.target)
	var ents [64]uint32
	for pj := 0; pj < pairs; pj++ {
		t1 := t0 + uint32(2*pj) + 1
		t2 := t1 + 1
		// Lanes wider than 64 walkers run the pass in bitmask-sized
		// chunks; full chunks go through the array-pointer fast path.
		for c0 := 0; c0 < k; c0 += 64 {
			c1 := c0 + 64
			var pendMask uint64
			if c1 <= k {
				pendMask = pairStep64(pad2, (*[64]int32)(pos[c0:c1]), (*[64]uint64)(res[c0:c1]), &ents, shift2)
			} else {
				c1 = k
				pendMask = pairStepTail(pad2, pos[c0:c1], res[c0:c1], ents[:c1-c0], shift2)
			}
			// Replay the deferred slow pairs hop-by-hop with the exact
			// redraw semantics; they kept their original position and
			// reservoir, and their resolved entries join the buffer so
			// the scan pass needs no sentinel handling.
			for pendMask != 0 {
				ci := trailingZeros64(pendMask)
				pendMask &= pendMask - 1
				ii := c0 + ci
				p := pos[ii]
				r := res[ii]
				ent := pad2[uint64(uint32(p))<<shift2|r&mask2of(shift2)]
				ent = pairResolveSlow(&streams[ii], pad, shift, p, r, ent)
				res[ii] = r >> shift2
				pos[ii] = int32(ent & 0xFFFF)
				ents[ci] = ent
			}
			if c1-c0 == 64 {
				cnt = pairScan64(first, &ents, base, t1, cnt)
			} else {
				cnt = pairScanTail(first, ents[:c1-c0], base, t1, cnt)
			}
		}
		if cnt >= target {
			cov.slots[sl].count = cnt
			cov.resolveCrossing(sl, wbase, t1-1, t2)
			return
		}
	}
	if odd {
		t := t0 + uint32(2*pairs) + 1
		cnt = singleRoundFast(pad, first, pos, res, streams, base, shift, t, cnt)
		if cnt >= target {
			cov.slots[sl].count = cnt
			cov.slots[sl].done = wbase + int64(t)
			return
		}
	}
	cov.slots[sl].count = cnt
}

// laneGroupThin advances a thin lane (fewer than thinLaneWalkers walkers)
// through one draw group of rounds rounds, walker-major: each walker runs
// every round of the group with its position, its reservoir and the lane's
// count in locals, two rounds per pair-table lookup when the engine has
// a pair table and one round per pad-table lookup when it does not, before
// the next walker starts. Walker order cannot change an answer: cells
// update by unsigned min and each walker draws only from its own stream,
// so after the last walker every cell holds its exact first-visit round.
// A lane whose count crossed its target has the crossing round resolved
// from its cells over the whole group span; overshoot is at most one
// group. t0 and the rounds inside are relative to the window starting at
// round wbase.
func (e *Engine) laneGroupThin(gst *groupState, cov *GroupCoverObserver, ln int, sl int32, wbase int64, t0, rounds uint32) {
	k := gst.laneK
	lo := ln * k
	pos := gst.pos[lo : lo+k]
	streams := gst.streams[lo : lo+k]
	cells := cov.laneCells(sl)
	cnt := cov.slots[sl].count
	if e.pair.ok {
		for i := range pos {
			pos[i], cnt = thinPairHops(e.pair.tbl, e.pad, cells, &streams[i], pos[i], e.padShift, t0+1, rounds, cnt)
		}
	} else {
		for i := range pos {
			str := &streams[i]
			pos[i], cnt = thinPadHops(e.pad, cells, str, pos[i], str.Uint64(), e.padShift, t0+1, t0+rounds+1, cnt)
		}
	}
	cov.slots[sl].count = cnt
	if int(cnt) >= cov.target {
		cov.resolveCrossing(sl, wbase, t0, t0+rounds)
	}
}

// thinPairHops advances one walker through a draw group of rounds rounds
// from round t1, returning its final position and the lane's count. One
// fresh draw funds the group: each pair-table lookup spends 2s of its bits
// on two rounds, and an odd group's last round spends s bits on a pad-table
// lookup. thinPairRun steps the pairs that touch no padding sentinel; a
// pair that does is resolved hop by hop by pairResolveSlow between runs,
// so the run's loop makes no call (a call would home its loop-carried
// values in stack slots).
func thinPairHops(pad2 []uint32, pad []int32, cells []uint32, str *rng.Source, p int32, shift, t1, rounds uint32, cnt int32) (int32, int32) {
	shift2 := 2 * shift
	r := str.Uint64()
	t, tEnd := t1, t1+rounds&^1
	for {
		p, r, t, cnt = thinPairRun(pad2, cells, p, r, shift2, t, tEnd, cnt)
		if t >= tEnd {
			break
		}
		slow := pad2[uint64(uint32(p))<<shift2|r&mask2of(shift2)]
		ent := [1]uint32{pairResolveSlow(str, pad, shift, p, r, slow)}
		r >>= shift2
		cnt = pairScanTail(cells, ent[:], 0, t, cnt)
		p = int32(ent[0] & 0xFFFF)
		t += 2
	}
	if rounds&1 != 0 {
		p, cnt = thinPadHops(pad, cells, str, p, r, shift, tEnd, tEnd+1, cnt)
	}
	return p, cnt
}

// thinPairRun steps one walker pair by pair from round t until round tEnd
// or the first pair that touches a padding sentinel, which it leaves
// unstepped; it returns the walker's position and reservoir, the round it
// stopped at and the lane's count. Each pair's two vertices are probed in
// the lane's cells as in pairScan64.
func thinPairRun(pad2, cells []uint32, p int32, r uint64, shift2, t, tEnd uint32, cnt int32) (int32, uint64, uint32, int32) {
	shift2 &= 63
	mask2 := uint64(1)<<shift2 - 1
	for ; t < tEnd; t += 2 {
		ent := pad2[uint64(uint32(p))<<shift2|r&mask2]
		if ent&0xFFFF == 0xFFFF {
			break
		}
		r >>= shift2
		mid, dst := ent>>16, ent&0xFFFF
		s1 := cells[mid]
		v1 := s1
		if t < v1 {
			v1 = t
		}
		cells[mid] = v1
		var n1 int32
		if s1 == groupUnset {
			n1 = 1
		}
		s2 := cells[dst]
		v2 := s2
		if t+1 < v2 {
			v2 = t + 1
		}
		cells[dst] = v2
		var n2 int32
		if s2 == groupUnset {
			n2 = 1
		}
		cnt += n1 + n2
		p = int32(dst)
	}
	return p, r, t, cnt
}

// thinPadHops advances one walker through rounds [t1, tEnd) on the pad
// table alone, one lookup per round, returning its final position and the
// lane's count: every round spends s bits of the reservoir r, and a
// padding sentinel redraws from the walker's stream with the reservoir
// left alone, as stepRoundDrawPad and stepRoundConsumePad do.
func thinPadHops(pad []int32, cells []uint32, str *rng.Source, p int32, r uint64, shift, t1, tEnd uint32, cnt int32) (int32, int32) {
	mask := uint64(1)<<shift - 1
	for t := t1; t < tEnd; t++ {
		np := pad[uint64(uint32(p))<<shift|r&mask]
		for np == padSentinel {
			np = pad[uint64(uint32(p))<<shift|str.Uint64()&mask]
		}
		r >>= shift
		s := cells[np]
		vv := s
		if t < vv {
			vv = t
		}
		cells[np] = vv
		var nw int32
		if s == groupUnset {
			nw = 1
		}
		cnt += nw
		p = np
	}
	return p, cnt
}

// mask2of is the pair-table bit mask for a doubled pad shift.
func mask2of(shift2 uint32) uint64 { return uint64(1)<<shift2 - 1 }

// trailingZeros64 aliases bits.TrailingZeros64 for the bitmask replay.
func trailingZeros64(x uint64) int { return bits.TrailingZeros64(x) }

// resolveCrossing marks slot s, whose count crossed its target during the
// span of rounds ending at round base+thi, with the exact crossing round
// resolved from its first-visit cells: the smallest round in
// (base+tlo, base+thi] at which the running distinct count reached the
// target. Counts are monotone, so the crossing span is always the span
// that detects it.
func (cov *GroupCoverObserver) resolveCrossing(s int32, base int64, tlo, thi uint32) {
	// Count visits no later than each candidate round in one sweep.
	span := int(thi - tlo)
	var at [64]int32 // span is a pair pass or at most one draw group (64/s rounds)
	before := int32(0)
	for _, f := range cov.laneCells(s) {
		if f <= tlo {
			before++
		} else if f <= thi {
			at[int(f-tlo)-1]++
		}
	}
	run := before
	for j := 0; j < span; j++ {
		run += at[j]
		if int(run) >= cov.target {
			cov.slots[s].done = base + int64(tlo) + int64(j) + 1
			return
		}
	}
}

// fusedCoverShard advances lanes [loLane, hiLane) of one worker on the
// fused path, each to its cover round or the budget, and marks the stop
// round of every lane that covered; the worker retires them after
// (laneShard). One lane's whole life runs before the next lane starts:
// trials are independent, so processing order is free, and it keeps the
// lane's first-visit cells and walker state cache-hot against the pair
// table's churn (lane-interleaved group scheduling measures ~25% slower
// end to end). So the heavy tail of slow trials costs exactly its own
// rounds, the lane-major form of the generic path's swap-compaction. A
// lane's draws depend only on its own streams, so results are identical
// no matter how lanes are partitioned.
func (e *Engine) fusedCoverShard(gst *groupState, maxRounds int64, cov *GroupCoverObserver, loLane, hiLane int) {
	group := int64(e.group)
	for ln := loLane; ln < hiLane; ln++ {
		sl := cov.laneOff[ln]
		for t0 := int64(0); cov.slots[sl].done < 0 && t0 < maxRounds; t0 += group {
			base := windowBase(t0+1, e.window)
			if t0 > 0 && t0 == base {
				cov.rebaseSlot(sl, base)
			}
			b := min(group, maxRounds-t0)
			if gst.laneK < thinLaneWalkers {
				e.laneGroupThin(gst, cov, ln, sl, base, uint32(t0-base), uint32(b))
			} else {
				e.laneGroup(gst, cov, ln, sl, base, uint32(t0-base), int(b/2), b%2 == 1)
			}
		}
		gst.stopAt[ln] = cov.slots[sl].done
	}
}
