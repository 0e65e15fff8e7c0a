package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// scanPrefetcher is the linear-scan stream prefetcher StreamPrefetcher
// must stay decision-for-decision equal to: every access scans the
// whole table for a match (lowest index wins), and once the table is
// full the stream with the smallest last-touch tick (lowest index on
// ties) is replaced.
type scanPrefetcher struct {
	depth    int
	next     []uint64
	lru      []uint64
	frontier []uint64
	hits     []uint32
	n        int
	buf      []uint64
	issued   int64
}

func newScanPrefetcher(streams, depth int) *scanPrefetcher {
	return &scanPrefetcher{
		depth:    depth,
		next:     make([]uint64, streams),
		lru:      make([]uint64, streams),
		frontier: make([]uint64, streams),
		hits:     make([]uint32, streams),
		buf:      make([]uint64, depth),
	}
}

func (p *scanPrefetcher) ObserveLines(lineAddr uint64, tick uint64) []uint64 {
	for i, nx := range p.next[:p.n] {
		if nx != lineAddr {
			continue
		}
		p.next[i] = lineAddr + 1
		p.hits[i]++
		p.lru[i] = tick
		if p.hits[i] < 2 {
			return nil
		}
		start := lineAddr + 1
		if f := p.frontier[i] + 1; f > start {
			start = f
		}
		end := lineAddr + uint64(p.depth)
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
	v := p.n
	if v < len(p.next) {
		p.n++
	} else {
		v = 0
		for i, tk := range p.lru {
			if tk < p.lru[v] {
				v = i
			}
		}
	}
	p.next[v] = lineAddr + 1
	p.lru[v] = tick
	p.frontier[v] = 0
	p.hits[v] = 1
	return nil
}

// lineStreams are the seeded demand-line generators the differential
// test drives both prefetchers with.
var lineStreams = map[string]func(r *rand.Rand, n int) []uint64{
	"sequential": func(r *rand.Rand, n int) []uint64 {
		out := make([]uint64, n)
		base := r.Uint64() >> 8
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out
	},
	// Up to 40 streams advancing in random order: more than the widest
	// table, so tracked streams are evicted and re-found.
	"interleaved": func(r *rand.Rand, n int) []uint64 {
		heads := make([]uint64, 1+r.Intn(40))
		for i := range heads {
			heads[i] = uint64(r.Intn(1 << 20))
		}
		out := make([]uint64, n)
		for i := range out {
			k := r.Intn(len(heads))
			out[i] = heads[k]
			heads[k]++
		}
		return out
	},
	// A small range makes repeats and duplicate next lines common.
	"random": func(r *rand.Rand, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(r.Intn(2048))
		}
		return out
	},
	"runs": func(r *rand.Rand, n int) []uint64 {
		out := make([]uint64, n)
		var line uint64
		for i := range out {
			if r.Intn(4) == 0 {
				line = uint64(r.Intn(1 << 16))
			} else {
				line++
			}
			out[i] = line
		}
		return out
	},
}

func TestStreamPrefetcherMatchesLinearScan(t *testing.T) {
	for name, gen := range lineStreams {
		for _, streams := range []int{1, 2, 4, 16, 17, 32} {
			for _, depth := range []int{1, 2, 8} {
				for seed := int64(1); seed <= 3; seed++ {
					lines := gen(rand.New(rand.NewSource(seed)), 20000)
					got := NewStreamPrefetcher(streams, depth, 64)
					want := newScanPrefetcher(streams, depth)
					for i, l := range lines {
						g := got.ObserveLines(l, uint64(i))
						w := want.ObserveLines(l, uint64(i))
						if (g == nil) != (w == nil) || !slices.Equal(g, w) {
							t.Fatalf("%s streams=%d depth=%d seed=%d step %d line %d: got %v, want %v",
								name, streams, depth, seed, i, l, g, w)
						}
					}
					if got.Issued() != want.issued {
						t.Fatalf("%s streams=%d depth=%d seed=%d: Issued %d, want %d",
							name, streams, depth, seed, got.Issued(), want.issued)
					}
				}
			}
		}
	}
}

func TestStreamPrefetcherEmptyTable(t *testing.T) {
	for _, tc := range []struct{ streams, depth int }{
		{0, 8}, {-1, 8}, {4, 0}, {4, -2}, {-3, -3},
	} {
		p := NewStreamPrefetcher(tc.streams, tc.depth, 64)
		for i := uint64(0); i < 100; i++ {
			if got := p.ObserveLines(1000+i, i); got != nil {
				t.Fatalf("streams=%d depth=%d: access %d issued %v", tc.streams, tc.depth, i, got)
			}
		}
		if p.Issued() != 0 {
			t.Fatalf("streams=%d depth=%d: Issued = %d", tc.streams, tc.depth, p.Issued())
		}
	}
}

var prefetchSink int

// BenchmarkStreamPrefetcher times ObserveLines on an L1-miss stream of
// uniform random lines (nearly every access replaces a stream) and on a
// sequential one (every access continues a confirmed stream).
func BenchmarkStreamPrefetcher(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	random := make([]uint64, 1<<16)
	for i := range random {
		random[i] = uint64(r.Int63n(1 << 20))
	}
	for _, bc := range []struct {
		name  string
		lines []uint64
	}{
		{"random", random},
		{"sequential", lineStreams["sequential"](r, 1<<16)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewStreamPrefetcher(16, 8, 64)
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(p.ObserveLines(bc.lines[i&(len(bc.lines)-1)], uint64(i)))
			}
			prefetchSink = n
		})
	}
}
