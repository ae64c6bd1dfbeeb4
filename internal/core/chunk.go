// Pooled chunk storage for the sweep engine's in-memory trace. The
// first-generation renderedTrace accumulated each frame's encoded shard
// in one append-grown []byte: at bench scale that made the parallel
// sweep allocate ~90x the serial engine's bytes — doubling-growth churn
// while encoding, plus the whole trace retained until the last replay
// worker finished. This file replaces it with fixed-size chunks drawn
// from a bounded pool: the render pass packs the stream into chunks and
// publishes each one as it fills, replay workers decode chunk by chunk
// through trace.ShardDecoder, and the last consumer to release a chunk
// returns it to the pool for the next frame. Steady-state memory is the
// pool budget, not the trace length.
package core

import (
	"sync"
	"sync/atomic"

	"texcache/internal/telemetry"
)

const (
	// chunkSize is the unit of trace storage and publication. Large
	// enough that per-chunk synchronization is noise, small enough that
	// replay starts well before a frame finishes encoding.
	chunkSize = 256 << 10
	// chunkBudget bounds the chunks a pool hands out before producers
	// start waiting for consumers to release them (~4 MB in flight).
	chunkBudget = 16
)

// chunk is one fixed-capacity slab of encoded trace. data is append-free:
// the writer copies into the unused tail and reslices, so the backing
// array never moves. refs counts the consumers that have not released it.
type chunk struct {
	data []byte
	refs atomic.Int32
}

// chunkPool recycles chunks between frames. Producers acquire, the last
// consumer to release a chunk puts it back; when the pool has handed out
// chunkBudget chunks and none are free, acquire blocks until a release —
// unless the caller is urgent (see renderedTrace.acquire), because
// blocking the producer of the frame consumers are draining would
// deadlock the pipeline.
type chunkPool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	free        []*chunk
	outstanding int
	// inflight, when non-nil, tracks the bytes currently held outside
	// the free list on the "chunk-bytes-inflight" textrace counter.
	inflight *telemetry.Counter
}

func newChunkPool() *chunkPool {
	p := &chunkPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire returns an empty chunk with capacity chunkSize, reusing a
// released one when available and allocating past the budget only for
// urgent callers.
//
// texsim:pool
func (p *chunkPool) acquire(urgent func() bool) *chunk {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) == 0 && p.outstanding >= chunkBudget && !urgent() {
		p.cond.Wait()
	}
	p.inflight.Add(chunkSize)
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	p.outstanding++
	return &chunk{data: make([]byte, 0, chunkSize)}
}

// put returns a fully released chunk to the free list.
func (p *chunkPool) put(c *chunk) {
	c.data = c.data[:0]
	p.mu.Lock()
	p.inflight.Add(-chunkSize)
	p.free = append(p.free, c)
	p.cond.Signal()
	p.mu.Unlock()
}

// wake re-evaluates every blocked acquire; called when the consumption
// floor moves, which can turn a waiting producer urgent.
func (p *chunkPool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// chunkSeq is one frame's ordered chunk stream. The producer publishes
// chunks as they fill and marks the sequence done at the frame boundary
// (or aborted on a render error); consumers block in next until the
// chunk they need exists. Published chunks are immutable until the last
// consumer releases them.
type chunkSeq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	chunks  []*chunk
	done    bool
	aborted bool
}

func newChunkSeq() *chunkSeq {
	s := &chunkSeq{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// publish appends one filled chunk, arming its release count, and wakes
// consumers waiting for it.
func (s *chunkSeq) publish(c *chunk, refs int32) {
	c.refs.Store(refs)
	s.mu.Lock()
	s.chunks = append(s.chunks, c)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish marks the frame's stream complete.
func (s *chunkSeq) finish() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abort marks the stream dead after a render error so consumers drain
// what was published and stop instead of waiting forever.
func (s *chunkSeq) abort() {
	s.mu.Lock()
	s.aborted = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next blocks until chunk i is published or the stream ends; ok reports
// whether a chunk was returned. After a false return, wasAborted
// distinguishes a complete frame from an aborted render.
func (s *chunkSeq) next(i int) (c *chunk, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.chunks) <= i && !s.done && !s.aborted {
		s.cond.Wait()
	}
	if i < len(s.chunks) {
		return s.chunks[i], true
	}
	return nil, false
}

func (s *chunkSeq) wasAborted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}

// chunkWriter is the io.Writer a frame's trace encoder drains into: it
// packs the stream into pooled chunks and publishes each one as it
// fills, so replay overlaps the rendering of the frame itself.
type chunkWriter struct {
	rt  *renderedTrace
	seq *chunkSeq
	f   int
	cur *chunk
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if w.cur == nil {
			w.cur = w.rt.acquire(w.f)
		}
		m := len(w.cur.data)
		k := min(chunkSize-m, len(p))
		w.cur.data = w.cur.data[: m+k : chunkSize]
		copy(w.cur.data[m:], p[:k])
		p = p[k:]
		if len(w.cur.data) == chunkSize {
			// Account before publishing: once published, the chunk may be
			// released and recycled by consumers at any moment.
			w.rt.traceBytes.Add(chunkSize)
			w.seq.publish(w.cur, int32(w.rt.consumers))
			w.cur = nil
		}
	}
	return n, nil
}

// finish publishes the partial tail chunk and completes the frame.
func (w *chunkWriter) finish() {
	if w.cur != nil {
		w.rt.traceBytes.Add(int64(len(w.cur.data)))
		w.seq.publish(w.cur, int32(w.rt.consumers))
		w.cur = nil
	}
	w.seq.finish()
}

// abandon returns an unpublished tail to the pool after an encode error.
func (w *chunkWriter) abandon() {
	if w.cur != nil {
		w.rt.pool.put(w.cur)
		w.cur = nil
	}
}
