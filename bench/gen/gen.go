// Package gen turns a benchmark seed into the inputs every part of
// the benchmark replays: per-client key-operation streams and the
// (key, version) value stamps that make every get checkable. The
// end-to-end driver and the in-process ladder both import it, so a
// rung and the cell it explains see the same generated trace. It
// imports nothing from the system under test: the servers only ever
// see the requests built from these streams.
package gen

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// ValueLen is the size of every stored value: key, version, and a
// check word mixing the two, 8 bytes each.
const ValueLen = 24

// Value stamps (key, version) into a value. A get is correct only if
// it returns the stamp of the version the client last had
// acknowledged, so a stale, torn or misrouted value is detected.
func Value(key, version uint64) []byte {
	return AppendValue(make([]byte, 0, ValueLen), key, version)
}

// AppendValue appends the (key, version) stamp to dst.
func AppendValue(dst []byte, key, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, version)
	return binary.LittleEndian.AppendUint64(dst, check(key, version))
}

// Stamp decodes a value written by Value; ok is false when the value
// is not a well-formed stamp.
func Stamp(v []byte) (key, version uint64, ok bool) {
	if len(v) != ValueLen {
		return 0, 0, false
	}
	key = binary.LittleEndian.Uint64(v)
	version = binary.LittleEndian.Uint64(v[8:])
	return key, version, binary.LittleEndian.Uint64(v[16:]) == check(key, version)
}

func check(key, version uint64) uint64 {
	x := key*0x9E3779B97F4A7C15 ^ version*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	return x * 0xBF58476D1CE4E5B9
}

// Mix describes a key-operation stream.
type Mix struct {
	// Keys is the total key count across all clients; keys are
	// 0..Keys-1.
	Keys uint64
	// PutShare is the fraction of operations that are puts.
	PutShare float64
	// Zipf selects YCSB's zipfian popularity (theta 0.99) over each
	// client's slice; false is uniform.
	Zipf bool
}

// Op is one generated key operation.
type Op struct {
	Key uint64
	Put bool
}

// Stream is one client's deterministic operation stream. Client id
// of clients owns the keys with key % clients == id, so clients never
// share a key and each can keep an exact model of what it stored.
type Stream struct {
	rng     *rand.Rand
	mix     Mix
	clients uint64
	id      uint64
	slots   uint64
	zipf    *zipfian
}

// NewStream returns client id's stream for seed. The same (seed, mix,
// clients, id) always yields the same operations.
func NewStream(seed int64, mix Mix, clients, id int) *Stream {
	s := &Stream{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(id)*7919 + 1)),
		mix:     mix,
		clients: uint64(clients),
		id:      uint64(id),
		slots:   Slots(mix.Keys, clients, id),
	}
	if mix.Zipf {
		s.zipf = newZipfian(s.slots, 0.99)
	}
	return s
}

// Slots is how many keys client id of clients owns out of keys.
func Slots(keys uint64, clients, id int) uint64 {
	return (keys - uint64(id) + uint64(clients) - 1) / uint64(clients)
}

// Slots returns how many keys this stream's client owns.
func (s *Stream) Slots() uint64 { return s.slots }

// Key maps a slot of this client's slice to its key.
func (s *Stream) Key(slot uint64) uint64 { return slot*s.clients + s.id }

// Slot is the inverse of Key.
func (s *Stream) Slot(key uint64) uint64 { return key / s.clients }

// Next returns the next operation.
func (s *Stream) Next() Op {
	var slot uint64
	if s.zipf != nil {
		// Spread the popular ranks over the slice (and so over the
		// shards) with a fixed bijection; the multiplier is prime and
		// larger than any slice, hence coprime to its size.
		slot = s.zipf.next(s.rng) * 2654435761 % s.slots
	} else {
		slot = uint64(s.rng.Int63n(int64(s.slots)))
	}
	return Op{Key: s.Key(slot), Put: s.rng.Float64() < s.mix.PutShare}
}

// Uniform returns a uniformly drawn key of this client's slice.
func (s *Stream) Uniform() uint64 {
	return s.Key(uint64(s.rng.Int63n(int64(s.slots))))
}

// zipfian is YCSB's ZipfianGenerator (Gray et al., "Quickly
// generating billion-record synthetic databases"): rank 0 is the most
// popular of n items.
type zipfian struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipfian(n uint64, theta float64) *zipfian {
	zeta := func(n uint64) float64 {
		var z float64
		for i := uint64(1); i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	z := &zipfian{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= uint64(z.n) {
		rank = uint64(z.n) - 1
	}
	return rank
}
