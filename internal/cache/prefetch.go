package cache

import (
	"repro/internal/units"
)

// filterMask selects the match-filter bucket of a line address.
const filterMask = 255

// StreamPrefetcher models the KNL L2 hardware prefetcher: it tracks up
// to Streams concurrent sequential streams and, once a stream is
// confirmed (two consecutive line addresses), keeps Depth lines of
// lookahead resident ahead of the demand pointer.
//
// Its effect in the analytic model is to raise sequential per-core
// memory-level parallelism far above what demand misses alone provide;
// the trace simulator uses this functional version.
//
// ObserveLines runs once per L1-missing access, one of the hottest
// loops in trace replay, and on random or pointer-chasing streams
// nearly every such access starts a new stream. So both of its
// searches are constant-time in the common case:
//
//   - Match. live counts the tracked streams whose next line falls in
//     each of 256 buckets (next & 255). An access whose bucket is
//     empty continues no stream and skips the scan; otherwise the scan
//     walks the column-wise next[] array (one host cache line covers 8
//     streams) in index order, so the lowest-index match still wins.
//   - Victim. Entries are allocated in index order and never
//     invalidated. Once the table is full, the least-recently-touched
//     stream is replaced. For tables of up to 16 streams the recency
//     order is a packed lruStack, the representation SetAssoc uses for
//     its sets: a match touches its stream, a fill pushes it, and a
//     replacement rotates the LRU nibble to the top. Wider tables keep
//     a per-stream tick and scan for the minimum.
type StreamPrefetcher struct {
	Streams int
	Depth   int

	lineSize units.Bytes
	next     []uint64               // per stream: the line address that continues it (lastLine+1)
	frontier []uint64               // per stream: highest line already issued (0 = none)
	hits     []uint32               // per stream: consecutive-line confirmations
	n        int                    // streams allocated so far (valid entries are [0, n))
	live     [filterMask + 1]uint32 // per bucket: streams whose next&filterMask is it

	packed   bool     // Streams in [1, packedMaxWays]: recency is stack
	stack    lruStack // recency order of the allocated streams
	lruShift uint     // 4*(Streams-1): shift that exposes the LRU nibble
	lru      []uint64 // !packed: per stream, tick of last touch

	buf    []uint64 // reused result buffer (ObserveLines/Observe)
	issued int64
}

// NewStreamPrefetcher builds a prefetcher with the given stream table
// size and lookahead depth. A negative size or depth counts as zero: a
// table of no streams tracks nothing, and a depth of zero issues
// nothing.
func NewStreamPrefetcher(streams, depth int, lineSize units.Bytes) *StreamPrefetcher {
	streams, depth = max(streams, 0), max(depth, 0)
	p := &StreamPrefetcher{
		Streams:  streams,
		Depth:    depth,
		lineSize: lineSize,
		next:     make([]uint64, streams),
		frontier: make([]uint64, streams),
		hits:     make([]uint32, streams),
		buf:      make([]uint64, depth),
	}
	if streams > 0 && streams <= packedMaxWays {
		p.packed = true
		p.lruShift = uint(4 * (streams - 1))
	} else {
		p.lru = make([]uint64, streams)
	}
	return p
}

// Issued returns how many prefetches were issued.
func (p *StreamPrefetcher) Issued() int64 { return p.issued }

// ObserveLines feeds a demand line address to the prefetcher and
// returns the line addresses to prefetch (possibly none). The returned
// slice aliases an internal buffer and is only valid until the next
// call — the hot replay loop consumes it immediately, so no per-access
// allocation occurs.
//
// tick must strictly increase from one call to the next. Wide tables
// order streams by it; tables of up to 16 streams order them by call
// sequence instead, which agrees with the ticks only under this
// contract.
//
//simd:hotpath — runs once per simulated access when prefetch is on.
func (p *StreamPrefetcher) ObserveLines(lineAddr uint64, tick uint64) []uint64 {
	// Find a stream this access continues.
	if p.live[lineAddr&filterMask] != 0 {
		for i, nx := range p.next[:p.n] {
			if nx != lineAddr {
				continue
			}
			p.next[i] = lineAddr + 1
			p.live[lineAddr&filterMask]--
			p.live[(lineAddr+1)&filterMask]++
			p.hits[i]++
			if p.packed {
				// A sequential stream is already on top, access
				// after access: skip the touch, a no-op there.
				if p.stack.top() != i {
					p.stack = p.stack.touch(i)
				}
			} else {
				p.lru[i] = tick
			}
			if p.hits[i] < 2 {
				return nil
			}
			// Keep Depth lines of lookahead ahead of the demand
			// pointer, but issue each line only once per stream:
			// the frontier watermark turns steady-state coverage
			// into one new prefetch per demand line instead of
			// re-issuing the whole window.
			start := lineAddr + 1
			if f := p.frontier[i] + 1; f > start {
				start = f
			}
			end := lineAddr + uint64(p.Depth)
			if start > end {
				return nil
			}
			out := p.buf[:0]
			for l := start; l <= end; l++ {
				out = append(out, l)
			}
			p.frontier[i] = end
			p.issued += int64(len(out))
			return out
		}
	}
	// Allocate a new tracking entry: fill the table first, then
	// replace the least-recently-touched stream.
	v := p.n
	switch {
	case v < len(p.next):
		p.n++
		if p.packed {
			p.stack = p.stack.push(v)
		}
	case v == 0:
		return nil // no stream table
	case p.packed:
		p.stack, v = p.stack.rotate(p.lruShift)
		p.live[p.next[v]&filterMask]--
	default:
		v = 0
		for i, tk := range p.lru {
			if tk < p.lru[v] {
				v = i
			}
		}
		p.live[p.next[v]&filterMask]--
	}
	p.next[v] = lineAddr + 1
	p.live[(lineAddr+1)&filterMask]++
	if !p.packed {
		p.lru[v] = tick
	}
	p.frontier[v] = 0
	p.hits[v] = 1
	return nil
}

// Observe feeds a demand byte address to the prefetcher and returns
// the byte addresses to prefetch (possibly none). Like ObserveLines,
// the returned slice is only valid until the next call.
func (p *StreamPrefetcher) Observe(addr uint64, tick uint64) []uint64 {
	out := p.ObserveLines(addr/uint64(p.lineSize), tick)
	for i, line := range out {
		out[i] = line * uint64(p.lineSize)
	}
	return out
}
