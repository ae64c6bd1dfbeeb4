package cache

// Ref is one texel reference with every address precomputed: the canonical
// L1 tag and set hash, plus the page-table index and sub-block number under
// the simulated L2 layout. The rasterizer-side translation produces these
// in a small number of shifts, adds and table lookups (§2.2).
type Ref struct {
	L1      L1Ref
	PTIndex uint32
	Sub     uint8
}

// Counters aggregates the hierarchy's activity. Byte counts model the
// traffic of Figure 7: HostBytes crosses AGP/system memory (the pull
// architecture's scarce resource), L2WriteBytes is host->L2 downloads and
// L2ReadBytes is L2->L1 fills, both absorbed by accelerator-local memory.
type Counters struct {
	L1           L1Stats
	L2           L2Stats
	TLB          TLBStats
	HostBytes    int64
	L2ReadBytes  int64
	L2WriteBytes int64
}

// Sub subtracts an earlier snapshot, yielding activity in between.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		L1: c.L1.Sub(o.L1),
		L2: c.L2.Sub(o.L2),
		TLB: TLBStats{
			Lookups: c.TLB.Lookups - o.TLB.Lookups,
			Hits:    c.TLB.Hits - o.TLB.Hits,
		},
		HostBytes:    c.HostBytes - o.HostBytes,
		L2ReadBytes:  c.L2ReadBytes - o.L2ReadBytes,
		L2WriteBytes: c.L2WriteBytes - o.L2WriteBytes,
	}
}

// Hierarchy composes the texture cache levels. With L2 == nil it models the
// pull architecture (L1 misses download directly from system memory); with
// an L2 it models the paper's proposed architecture. TLB is optional and
// only gathers statistics — it does not change transaction behaviour.
type Hierarchy struct {
	L1  *L1Cache
	L2  *L2Cache
	TLB *TLB

	hostBytes    int64
	l2ReadBytes  int64
	l2WriteBytes int64

	// san is the texsan invariant sanitizer; empty unless built with
	// -tags texsan (see sanitize_on.go).
	san sanState
}

// Sanitizing reports whether the texsan invariant sanitizer is compiled
// in (go test -tags texsan). A caller that skips Finish on L1 hits must
// still call it when Sanitizing is set, so the sanitizer sees every
// access.
const Sanitizing = sanitizing

// Access runs one texel reference through the hierarchy, following the
// control flow of Figure 7, and accounts the bytes moved.
//
// texlint:hotpath
func (h *Hierarchy) Access(ref Ref) {
	h.Finish(ref, h.L1.Access(ref.L1))
}

// Finish completes an access whose L1 probe the caller already made:
// l1Hit is what h.L1.Access(ref.L1) returned. It lets several
// hierarchies share one L1Cache — probed once per reference — while each
// keeps its own L2, TLB and byte counters; that is exact because L1
// state never depends on the levels below it (there is no
// back-invalidation). On a hit Finish does nothing unless Sanitizing.
//
// texlint:hotpath
func (h *Hierarchy) Finish(ref Ref, l1Hit bool) {
	if !l1Hit {
		h.accessMiss(ref)
	}
	if sanitizing {
		h.sanAccess(ref, l1Hit)
	}
}

// accessMiss services an L1 miss: a host download under the pull
// architecture, otherwise an L2 access with Figure 7's byte accounting.
//
// texlint:hotpath
func (h *Hierarchy) accessMiss(ref Ref) {
	if h.L2 == nil {
		// Pull architecture: download the L1 tile from system memory.
		h.hostBytes += L1LineBytes
		return
	}
	if h.TLB != nil {
		h.TLB.Lookup(ref.PTIndex)
	}
	switch h.L2.Access(ref.PTIndex, ref.Sub) {
	case L2FullHit:
		// Load the L1 sub-block from L2 cache memory into L1.
		h.l2ReadBytes += L1LineBytes
	case L2PartialHit, L2FullMiss:
		// Download from system memory into L2 and, in parallel, into
		// L1 (step F removes the latency of a second hop).
		dl := int64(L1LineBytes)
		if h.L2.Config().NoSectorMapping {
			dl = int64(h.L2.Config().Layout.L2BlockBytes())
		}
		h.hostBytes += dl
		h.l2WriteBytes += dl
	}
}

// Counters returns a snapshot of all counters.
func (h *Hierarchy) Counters() Counters {
	c := Counters{
		L1:           h.L1.Stats(),
		HostBytes:    h.hostBytes,
		L2ReadBytes:  h.l2ReadBytes,
		L2WriteBytes: h.l2WriteBytes,
	}
	if h.L2 != nil {
		c.L2 = h.L2.Stats()
	}
	if h.TLB != nil {
		c.TLB = h.TLB.Stats()
	}
	return c
}
