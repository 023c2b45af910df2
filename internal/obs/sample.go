package obs

// SampleEvery is the mean gap, in events, between two picks of a
// Sampler.
const SampleEvery = 64

// Sampler picks the events of a stream a caller times: its first, then
// one in SampleEvery on average. A clock read costs tens of
// nanoseconds, which on a hot path costs more than the work it would
// time; a latency histogram fed a sample keeps its shape at a
// SampleEvery-th of the reads. The gaps are drawn from a xorshift, not
// a fixed stride, so a stream that repeats with a period dividing
// SampleEvery does not always land on the same kind of event.
//
// The zero Sampler is ready to use. A Sampler is not safe for
// concurrent use: each goroutine that times events keeps its own.
type Sampler struct {
	skip uint32 // events to pass over before the next pick
	x    uint32 // xorshift state; 0 until Seed or the first pick
}

// Seed sets the state the gaps are drawn from, so that samplers seeded
// differently pass over different events.
func (s *Sampler) Seed(seed uint64) {
	s.x = uint32((seed*0x9e3779b97f4a7c15)>>32) | 1
}

// Pick reports whether to time the next event. It is a decrement on
// all but the picked events, and inlines.
func (s *Sampler) Pick() bool {
	if s.skip > 0 {
		s.skip--
		return false
	}
	s.draw()
	return true
}

// draw sets skip to a gap drawn uniformly from [0, 2·SampleEvery-2],
// so that a pick is followed by SampleEvery-1 passed-over events on
// average.
func (s *Sampler) draw() {
	x := s.x
	if x == 0 {
		x = 0x9e3779b9
	}
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	s.x = x
	s.skip = x % (2*SampleEvery - 1)
}
