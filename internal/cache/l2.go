package cache

import (
	"fmt"

	"texcache/internal/texture"
)

// L2Result classifies one L2 access given that an L1 miss occurred (§5.2,
// Figure 7).
type L2Result int

const (
	// L2FullHit: a physical block is allocated to the virtual block and
	// the required L1 sub-block has been downloaded (steps C and D yes).
	L2FullHit L2Result = iota
	// L2PartialHit: a physical block is allocated but the sub-block must
	// be downloaded from system memory (step D no -> step F).
	L2PartialHit
	// L2FullMiss: no physical block is allocated; the clock must find a
	// victim, then the sub-block is downloaded (step E -> F).
	L2FullMiss
)

// String implements fmt.Stringer.
func (r L2Result) String() string {
	switch r {
	case L2FullHit:
		return "full-hit"
	case L2PartialHit:
		return "partial-hit"
	case L2FullMiss:
		return "full-miss"
	default:
		return fmt.Sprintf("L2Result(%d)", int(r))
	}
}

// L2Config parameterises an L2 texture cache.
type L2Config struct {
	// SizeBytes is the L2 cache memory capacity (the paper studies 2, 4
	// and 8 MB).
	SizeBytes int
	// Layout gives the L2 tile size and the L1 sub-block size (the
	// paper studies L2 tiles of 8x8, 16x16 and 32x32 texels over 4x4
	// sub-blocks).
	Layout texture.TileLayout
	// Policy selects the replacement algorithm; Clock is the paper's.
	Policy PolicyKind
	// NoSectorMapping disables sector mapping: a full miss downloads the
	// entire L2 block rather than just the required L1 sub-block. The
	// paper employs sector mapping to avoid exceeding pull-architecture
	// download bandwidth; this switch is the A3 ablation.
	NoSectorMapping bool
}

// Validate checks that an L2 cache can be built from the configuration:
// a valid tile layout whose sub-blocks fit the 64-bit sector vector, a
// capacity of a whole positive number of blocks, and a known policy.
func (c L2Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if sub := c.Layout.SubPerBlock(); sub > 64 {
		return fmt.Errorf("cache: %d sub-blocks exceed the 64-bit sector vector", sub)
	}
	blockBytes := c.Layout.L2BlockBytes()
	if n := c.SizeBytes / blockBytes; n <= 0 || n*blockBytes != c.SizeBytes {
		return fmt.Errorf("cache: L2 size %d not a multiple of block size %d",
			c.SizeBytes, blockBytes)
	}
	switch c.Policy {
	case Clock, TrueLRU, Random:
	default:
		return fmt.Errorf("cache: unknown policy %d", int(c.Policy))
	}
	return nil
}

// L2Stats counts L2 cache activity. Accesses = FullHits + PartialHits +
// FullMisses and equals the number of L1 misses presented.
type L2Stats struct {
	FullHits    int64
	PartialHits int64
	FullMisses  int64
	// Evictions counts victims that held a valid virtual block.
	Evictions int64
	// SearchSteps accumulates clock-march length over all victim
	// searches; MaxSearch is the worst single search ("pesky" behaviour).
	SearchSteps int64
	MaxSearch   int
}

// Accesses returns the total L2 lookups.
func (s L2Stats) Accesses() int64 { return s.FullHits + s.PartialHits + s.FullMisses }

// FullHitRate returns full hits as a fraction of L2 accesses (the paper
// reports L2 rates conditioned on an L1 miss having occurred).
func (s L2Stats) FullHitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.FullHits) / float64(a)
	}
	return 0
}

// PartialHitRate returns partial hits as a fraction of L2 accesses.
func (s L2Stats) PartialHitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.PartialHits) / float64(a)
	}
	return 0
}

// Sub subtracts an earlier snapshot.
func (s L2Stats) Sub(o L2Stats) L2Stats {
	return L2Stats{
		FullHits:    s.FullHits - o.FullHits,
		PartialHits: s.PartialHits - o.PartialHits,
		FullMisses:  s.FullMisses - o.FullMisses,
		Evictions:   s.Evictions - o.Evictions,
		SearchSteps: s.SearchSteps - o.SearchSteps,
		MaxSearch:   s.MaxSearch, // max is not meaningfully subtractable
	}
}

// pageEntry is one t_table[] entry (paper Appendix): the sector bit-vector
// of downloaded L1 sub-blocks and the physical block handle (zero when no
// block is allocated, else physical index + 1).
type pageEntry struct {
	sector uint64
	block  int32
}

// L2Cache is the virtual-memory-organised L2 texture cache: a texture page
// table maps virtual blocks <tid, L2> (flattened to page-table indices by
// the driver's tstart allocation) to physical blocks in L2 cache memory,
// with a Block Replacement List driving victim selection.
type L2Cache struct {
	cfg    L2Config
	table  []pageEntry
	owner  []int32 // BRL t_index: page-table index + 1, or 0 if free
	free   []int32 // unallocated physical blocks (never-used or freed)
	policy Policy
	// clock is non-nil when the configured policy is the paper's clock
	// algorithm; Access dispatches through it statically so the per-miss
	// fast path pays no interface-method indirection.
	clock     *clockPolicy
	numBlocks int
	fullMask  uint64 // all sub-block bits set
	stats     L2Stats
	// san is the texsan invariant sanitizer; empty unless built with
	// -tags texsan (see sanitize_on.go).
	san l2San
}

// NewL2 constructs an L2 cache. pageTableEntries must cover every <tid, L2>
// block that can be active in system memory at once (texture.Set provides
// this via PageTableEntries).
func NewL2(cfg L2Config, pageTableEntries uint32) (*L2Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.SizeBytes / cfg.Layout.L2BlockBytes()
	sub := cfg.Layout.SubPerBlock()
	var fullMask uint64
	if sub == 64 {
		fullMask = ^uint64(0)
	} else {
		fullMask = uint64(1)<<uint(sub) - 1
	}
	c := &L2Cache{
		cfg:       cfg,
		table:     make([]pageEntry, pageTableEntries),
		owner:     make([]int32, n),
		free:      make([]int32, n),
		policy:    NewPolicy(cfg.Policy, n),
		numBlocks: n,
		fullMask:  fullMask,
	}
	c.clock, _ = c.policy.(*clockPolicy)
	// Stack the free list so blocks allocate in index order, matching the
	// clock hand's initial march over the never-used BRL.
	for i := range c.free {
		c.free[i] = int32(n - 1 - i)
	}
	return c, nil
}

// MustNewL2 is NewL2 but panics on error.
func MustNewL2(cfg L2Config, pageTableEntries uint32) *L2Cache {
	c, err := NewL2(cfg, pageTableEntries)
	if err != nil {
		panic(err)
	}
	return c
}

// NumBlocks returns the number of physical L2 blocks.
func (c *L2Cache) NumBlocks() int { return c.numBlocks }

// Config returns the cache configuration.
func (c *L2Cache) Config() L2Config { return c.cfg }

// Access presents an L1 miss to the L2 cache. ptIndex is the page-table
// index (tstart + L2 block number within the texture) and sub the L1
// sub-block index within the L2 block. It returns the access class and
// updates replacement state, sector bits and allocation as in Figure 7.
//
// texlint:hotpath
func (c *L2Cache) Access(ptIndex uint32, sub uint8) L2Result {
	e := &c.table[ptIndex]
	bit := uint64(1) << sub
	if e.block != 0 {
		phys := int(e.block - 1)
		c.touch(phys)
		if e.sector&bit != 0 {
			c.stats.FullHits++
			return L2FullHit
		}
		if c.cfg.NoSectorMapping {
			e.sector = c.fullMask
		} else {
			e.sector |= bit
		}
		c.stats.PartialHits++
		return L2PartialHit
	}

	// Full miss: take a free block if one exists, else have the policy
	// find a victim and relinquish its owner.
	var victim, searched int
	if n := len(c.free); n > 0 {
		victim = int(c.free[n-1])
		c.free = c.free[:n-1]
		searched = 1
	} else {
		victim, searched = c.victim()
		if prev := c.owner[victim]; prev != 0 {
			c.table[prev-1] = pageEntry{}
			c.stats.Evictions++
			if sanitizing {
				c.san.noteEvict(uint32(prev - 1))
			}
		}
	}
	c.stats.SearchSteps += int64(searched)
	if searched > c.stats.MaxSearch {
		c.stats.MaxSearch = searched
	}
	c.owner[victim] = int32(ptIndex) + 1
	e.block = int32(victim) + 1
	if c.cfg.NoSectorMapping {
		e.sector = c.fullMask
	} else {
		e.sector = bit
	}
	c.touch(victim)
	c.stats.FullMisses++
	return L2FullMiss
}

// touch records an access on the replacement policy. The paper's clock
// policy is dispatched statically; the ablation policies (true LRU,
// random) fall back to the interface.
func (c *L2Cache) touch(phys int) {
	if c.clock != nil {
		c.clock.Touch(phys)
		return
	}
	//texlint:ignore hotalloc ablation-only policies accept dynamic dispatch off the paper's configuration
	c.policy.Touch(phys)
}

// victim selects a replacement victim, statically for the clock policy.
func (c *L2Cache) victim() (block, searched int) {
	if c.clock != nil {
		return c.clock.Victim()
	}
	//texlint:ignore hotalloc ablation-only policies accept dynamic dispatch off the paper's configuration
	return c.policy.Victim()
}

// Contains reports whether the sub-block is resident, without side effects.
func (c *L2Cache) Contains(ptIndex uint32, sub uint8) bool {
	e := c.table[ptIndex]
	return e.block != 0 && e.sector&(uint64(1)<<sub) != 0
}

// ResidentBlocks returns the number of physical blocks currently allocated.
func (c *L2Cache) ResidentBlocks() int {
	n := 0
	for _, o := range c.owner {
		if o != 0 {
			n++
		}
	}
	return n
}

// DeleteTexture deallocates the page-table range [tstart, tstart+tlen),
// releasing any physical blocks it owns — the host-driver deallocation path
// of §5.2.
func (c *L2Cache) DeleteTexture(tstart, tlen uint32) {
	for i := tstart; i < tstart+tlen; i++ {
		e := &c.table[i]
		if e.block != 0 {
			phys := int(e.block - 1)
			c.owner[phys] = 0
			c.policy.Reset(phys)
			c.free = append(c.free, int32(phys))
		}
		*e = pageEntry{}
		if sanitizing {
			c.san.noteEvict(i)
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *L2Cache) Stats() L2Stats { return c.stats }
