package cache

// StreamPrefetcher implements Table 1's hardware prefetcher: it watches L1
// demand misses, detects unit-stride sequences of line addresses (positive
// and negative), and asks the hierarchy to launch prefetches ahead of the
// stream. Before a stride is confirmed it also requests the sequential next
// block "when bandwidth is available" to exploit spatial locality beyond
// one 64-byte line.
type StreamPrefetcher struct {
	streams []stream
	clock   uint64
	// Depth is how many lines a confirmed stream runs ahead.
	Depth int

	// Counters.
	Launched  uint64 // prefetch requests issued to the hierarchy
	Confirmed uint64 // misses that matched an existing stream

	out []uint64 // OnMiss's result buffer, reused call to call
}

type stream struct {
	valid    bool
	nextLine uint64 // the line address this stream expects to miss next
	dir      int64  // +1 or -1
	lastUse  uint64
}

// NewStreamPrefetcher builds a prefetcher with n stream slots.
func NewStreamPrefetcher(n, depth int) *StreamPrefetcher {
	return &StreamPrefetcher{streams: make([]stream, n), Depth: depth}
}

// OnMiss records a demand miss of lineAddr (already line-aligned, in units
// of one L1 line) and returns the list of line addresses to prefetch. The
// hierarchy filters lines already cached or in flight and applies the
// bandwidth gate. The returned slice is only valid until the next call.
func (p *StreamPrefetcher) OnMiss(lineAddr, lineBytes uint64) []uint64 {
	p.clock++
	out := p.out[:0]

	// A miss matching an existing stream confirms it: run further ahead.
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.nextLine == lineAddr {
			p.Confirmed++
			s.lastUse = p.clock
			next := lineAddr
			for d := 0; d < p.Depth; d++ {
				next += uint64(s.dir) * lineBytes
				out = append(out, next)
			}
			s.nextLine = lineAddr + uint64(s.dir)*lineBytes
			p.Launched += uint64(len(out))
			p.out = out
			return out
		}
	}

	// No stream matched: try to allocate one by checking whether a stream
	// anchored at a neighbouring line would have predicted this miss.
	// (This approximates the classic last-miss table: two misses one line
	// apart establish the stride.)
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.nextLine == lineAddr+lineBytes && s.dir == +1 {
			// Stale positive stream one behind; re-anchor.
			s.nextLine = lineAddr + lineBytes
			s.lastUse = p.clock
		}
	}
	// Allocate a fresh candidate stream in each direction; the one the
	// access pattern actually follows gets confirmed on the next miss.
	p.allocate(lineAddr+lineBytes, +1)
	p.allocate(lineAddr-lineBytes, -1)

	// Sequential next-block prefetch before any stride is known.
	out = append(out, lineAddr+lineBytes)
	p.Launched++
	p.out = out
	return out
}

func (p *StreamPrefetcher) allocate(nextLine uint64, dir int64) {
	vi := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			vi = i
			break
		}
		if p.streams[i].lastUse < p.streams[vi].lastUse {
			vi = i
		}
	}
	p.streams[vi] = stream{valid: true, nextLine: nextLine, dir: dir, lastUse: p.clock}
}
