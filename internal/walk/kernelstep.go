package walk

// Step kernels for the non-uniform walk laws. Like the uniform kernels in
// engine.go, each advances one round for walkers [lo,hi) with the xoshiro
// state carried in registers, and each writes only pos/prev/streams.
//
// Draw discipline (pinned bit-for-bit by TestEngineKernelMatchesReplay):
// non-uniform kernels use draw group 1 — no reservoir banking, every round
// starts from fresh entropy — so results cannot depend on Workers or
// BatchRounds regardless of how batches partition the rounds.
//
//	Lazy(α)            draw x; stay iff x < stayThresh (α quantized to a
//	                   multiple of 2^-64). A moving step then samples a
//	                   uniform neighbor from fresh draws: padded mode takes
//	                   the low padShift bits of fresh Uint64s until the
//	                   slot is not a padding sentinel; CSR mode Lemire-
//	                   reduces the low 32 bits of fresh Uint64s until
//	                   accepted.
//	Alias kernels      one draw x per step: the low 32 bits Lemire-reduce
//	(Weighted,         to an alias column (rejection redraws the whole x),
//	Metropolis, and    the high 32 bits pick the column's primary outcome
//	every registry     iff high32 < thresh, else the alias outcome. Any
//	kernel, e.g. the   kernel compiled to progAlias inherits this
//	hoppers)           discipline, so new families are deterministic by
//	                   construction.
//	NoBacktrack        degree-1 vertices move to their only neighbor with
//	                   no draw. Otherwise one draw x: the low 32 bits
//	                   Lemire-reduce to [0, d) on the first step (prev
//	                   unset) or [0, d-1) afterwards (redraws take fresh
//	                   x); in the latter case, landing on prev's slot
//	                   swaps in the last neighbor, i.e. the classic
//	                   "sample d-1 slots, patch the collision" scheme
//	                   the per-walker reference sampler uses.

// stepRoundLazyPad advances one lazy round in padded mode.
func (e *Engine) stepRoundLazyPad(st *walkers, lo, hi int) {
	pad, shift := e.pad, e.padShift
	mask := uint64(1)<<shift - 1
	stay := e.prog.stayThresh
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		if x >= stay {
			p := pos[ii]
			np := padSentinel
			for np == padSentinel {
				x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				np = pad[uint64(uint32(p))<<shift|x&mask]
			}
			pos[ii] = np
		}
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

// stepRoundLazyCSR advances one lazy round in CSR mode.
func (e *Engine) stepRoundLazyCSR(st *walkers, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	stay := e.prog.stayThresh
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		if x >= stay {
			meta := vtx[pos[ii]]
			var idx uint32
			ok := false
			for !ok {
				x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				idx, ok = reduce32(uint32(x), uint32(meta))
			}
			pos[ii] = adj[uint32(meta>>32)+idx]
		}
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

// stepRoundAlias advances one round through the compiled alias table — the
// step path of every progAlias kernel (Weighted, MetropolisUniform, the
// hoppers, and any registered family without a dedicated fast path).
func (e *Engine) stepRoundAlias(st *walkers, lo, hi int) {
	at := e.prog.at
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		meta := at.meta[pos[ii]]
		idx, ok := reduce32(uint32(x), uint32(meta))
		for !ok {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), uint32(meta))
		}
		slot := uint32(meta>>32) + idx
		if uint32(x>>32) < at.thresh[slot] {
			pos[ii] = at.out[slot]
		} else {
			pos[ii] = at.alt[slot]
		}
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

// stepRoundNoBacktrack advances one non-backtracking round over the CSR
// arrays, maintaining the per-walker prev lane.
func (e *Engine) stepRoundNoBacktrack(st *walkers, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	pos := st.pos[lo:hi]
	prev := st.prev[lo:hi]
	streams := st.streams[lo:hi]
	for ii := range pos {
		p := pos[ii]
		meta := vtx[p]
		deg := uint32(meta)
		off := uint32(meta >> 32)
		if deg == 1 {
			prev[ii] = p
			pos[ii] = adj[off]
			continue
		}
		pv := prev[ii]
		span := deg
		if pv >= 0 {
			span = deg - 1
		}
		s0, s1, s2, s3 := streams[ii].State()
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		idx, ok := reduce32(uint32(x), span)
		for !ok {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), span)
		}
		np := adj[off+idx]
		if np == pv {
			np = adj[off+deg-1]
		}
		streams[ii].SetState(s0, s1, s2, s3)
		prev[ii] = p
		pos[ii] = np
	}
}
