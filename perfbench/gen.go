package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/cache"
	"repro/internal/tracesim"
	"repro/internal/tracestore"
)

// lineBytes is the simulated cache line; generated addresses stay
// 8-byte aligned within a line.
const lineBytes = 64

// traceSpec describes one generated access stream.
type traceSpec struct {
	Name      string
	Pattern   string // seq | random | chase | mixed
	Accesses  int
	Footprint int64   // bytes the stream touches
	WriteFrac float64 // share of writes
	JumpFrac  float64 // mixed only: share of random jumps
}

// meanAccesses is the mean stream length of ts.
func meanAccesses(ts []traceSpec) float64 {
	n := 0
	for _, t := range ts {
		n += t.Accesses
	}
	return float64(n) / float64(max(len(ts), 1))
}

// generate builds the stream deterministically from seed. The base
// address also derives from the seed, so two seeds never produce the
// same content address.
func generate(ts traceSpec, seed int64) []tracesim.Access {
	rng := rand.New(rand.NewSource(seed))
	base := uint64(1+rng.Intn(1<<12)) << 32
	lines := uint64(ts.Footprint / lineBytes)
	accs := make([]tracesim.Access, ts.Accesses)
	kind := func() cache.AccessKind {
		if rng.Float64() < ts.WriteFrac {
			return cache.Write
		}
		return cache.Read
	}
	switch ts.Pattern {
	case "seq":
		for i := range accs {
			accs[i] = tracesim.Access{Addr: base + uint64(i)%lines*lineBytes, Kind: kind()}
		}
	case "random":
		for i := range accs {
			accs[i] = tracesim.Access{Addr: base + uint64(rng.Int63n(int64(lines)))*lineBytes + uint64(rng.Intn(8))*8, Kind: kind()}
		}
	case "chase":
		// One random cycle through every line (Sattolo), walked from
		// line 0: each access depends on the previous one.
		next := make([]uint32, lines)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := len(next) - 1; i > 0; i-- {
			j := rng.Intn(i)
			next[i], next[j] = next[j], next[i]
		}
		cur := uint32(0)
		for i := range accs {
			accs[i] = tracesim.Access{Addr: base + uint64(cur)*lineBytes, Kind: kind()}
			cur = next[cur]
		}
	case "mixed":
		cur := uint64(0)
		for i := range accs {
			if rng.Float64() < ts.JumpFrac {
				cur = uint64(rng.Int63n(int64(lines)))
			} else {
				cur = (cur + 1) % lines
			}
			accs[i] = tracesim.Access{Addr: base + cur*lineBytes, Kind: kind()}
		}
	default:
		panic("perfbench: unvalidated pattern " + ts.Pattern)
	}
	return accs
}

func kindLetter(k cache.AccessKind) string {
	if k == cache.Write {
		return "W"
	}
	return "R"
}

// ndjson encodes a stream as the upload API's NDJSON dialect.
func ndjson(accs []tracesim.Access) []byte {
	b := make([]byte, 0, len(accs)*40)
	for _, a := range accs {
		b = append(b, `{"addr": `...)
		b = strconv.AppendUint(b, a.Addr, 10)
		b = append(b, `, "kind": "`...)
		b = append(b, kindLetter(a.Kind)...)
		b = append(b, "\"}\n"...)
	}
	return b
}

// csvBody encodes a stream as headed "addr,kind" CSV.
func csvBody(accs []tracesim.Access) []byte {
	b := make([]byte, 0, len(accs)*16)
	b = append(b, "addr,kind\n"...)
	for _, a := range accs {
		b = strconv.AppendUint(b, a.Addr, 10)
		b = append(b, ',')
		b = append(b, kindLetter(a.Kind)...)
		b = append(b, '\n')
	}
	return b
}

// gzipped compresses at gzip.BestSpeed: simd's cost is decompression,
// which the level barely changes, and the faster level leaves more of
// a run inside the timed windows.
func gzipped(raw []byte) []byte {
	var b bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&b, gzip.BestSpeed) // a valid level cannot fail
	zw.Write(raw)                                    // writes to a bytes.Buffer cannot fail
	zw.Close()
	return b.Bytes()
}

// contentID is the trace's content address as an in-process encoder
// computes it; the server must agree whatever the upload format.
func contentID(accs []tracesim.Access) (string, error) {
	enc := tracestore.NewEncoder(io.Discard)
	for _, a := range accs {
		enc.Append(a)
	}
	_, id, err := enc.Finish()
	return id, err
}

// sliceGen serves a stream from memory as a tracesim.Generator.
type sliceGen struct {
	accs []tracesim.Access
	pos  int
}

func (g *sliceGen) Next() (tracesim.Access, bool) {
	if g.pos >= len(g.accs) {
		return tracesim.Access{}, false
	}
	g.pos++
	return g.accs[g.pos-1], true
}

func (g *sliceGen) Reset() { g.pos = 0 }

// binaryTrace encodes a stream in the store's own format via
// tracestore.Export, returning the file bytes and the content address.
func binaryTrace(path string, accs []tracesim.Access) ([]byte, string, error) {
	_, id, err := tracestore.Export(path, &sliceGen{accs: accs})
	if err != nil {
		return nil, "", err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("read exported trace: %w", err)
	}
	return buf, id, os.Remove(path)
}

// blockSource replays pre-decoded blocks (tracesim.BlockSource), so a
// simulator probe measures the simulator and nothing else.
type blockSource struct {
	blocks [][]tracesim.Access
	pos    int
}

func (b *blockSource) NextBlock() ([]tracesim.Access, bool) {
	if b.pos >= len(b.blocks) {
		return nil, false
	}
	b.pos++
	return b.blocks[b.pos-1], true
}

func (b *blockSource) Reset() { b.pos = 0 }

// blocksOf cuts a stream into the store's 8 Ki-access blocks.
func blocksOf(accs []tracesim.Access) *blockSource {
	const n = 8192
	src := &blockSource{}
	for i := 0; i < len(accs); i += n {
		src.blocks = append(src.blocks, accs[i:min(i+n, len(accs))])
	}
	return src
}
