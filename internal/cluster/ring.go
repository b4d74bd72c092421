// Package cluster is the multi-node layer over internal/store: a
// consistent-hash ring that maps partitions onto nodes, a
// membership/pulse registry that tracks node health and reassigns
// orphaned partitions, an HTTP migration driver that moves a live
// partition between nodes using the store's checkpoint/delta/fence
// hand-off, and a stateless routing proxy.
//
// The ring is deterministic: every daemon (amntd nodes, the proxy)
// computes the identical initial ownership from the same (partitions,
// vnodes, member list) triple, so a cluster boots with agreed
// placement before any state exchange. Membership changes advance a
// ring epoch; routers install a newer state whenever they see one, and
// a client router (amntload -cluster) reads its state from any
// process's GET /v1/ring.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// mix64 is a 64-bit finalizer (the murmur3/splitmix64 avalanche): a
// cheap bijection with full-width diffusion, so consecutive partition
// ids and vnode sequence numbers land uniformly on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashString is FNV-1a 64, the member-id seed hash.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x1099511628211
	}
	return h
}

// golden is 2^64/φ, the Weyl increment spreading vnode sequence
// numbers before mixing.
const golden = 0x9e3779b97f4a7c15

// vnodeHash places one virtual node of a member on the ring.
func vnodeHash(memberSeed uint64, v int) uint64 {
	return mix64(memberSeed + uint64(v)*golden)
}

// partitionHash places one partition id on the ring. The extra
// constant keeps partition points from colliding with vnode points
// for small ids.
func partitionHash(part int) uint64 {
	return mix64(uint64(part)*golden + 0x632be59bd9b4e019)
}

// Member is one node of the cluster as carried in a ring State.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// State is the versioned placement every router agrees on: the
// member list plus the materialized partition→member assignment.
// Higher Epoch wins; routers install a newer State wholesale and
// never merge. Assign is index-parallel to partitions (Assign[p] is
// the owning member id), so routing is one slice lookup — the ring
// walk happens only when the assignment is (re)computed.
type State struct {
	Epoch      uint64   `json:"epoch"`
	Partitions int      `json:"partitions"`
	VNodes     int      `json:"vnodes"`
	Members    []Member `json:"members"`
	Assign     []string `json:"assign"`
}

// Clone deep-copies a State so registries can mutate their working
// copy without racing readers of a published one.
func (s *State) Clone() *State {
	if s == nil {
		return nil
	}
	c := *s
	c.Members = append([]Member(nil), s.Members...)
	c.Assign = append([]string(nil), s.Assign...)
	return &c
}

// Addr returns the address registered for member id, "" if unknown.
func (s *State) Addr(id string) string {
	for _, m := range s.Members {
		if m.ID == id {
			return m.Addr
		}
	}
	return ""
}

// Owner returns the member owning partition part, "" out of range.
func (s *State) Owner(part int) string {
	if s == nil || part < 0 || part >= len(s.Assign) {
		return ""
	}
	return s.Assign[part]
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring is the consistent-hash structure itself: the sorted vnode
// points of a member set. Build once per membership change; lookups
// are a binary search.
type Ring struct {
	points []point
	vnodes int
}

// NewRing hashes vnodes virtual nodes per member onto the ring.
// Member order does not matter — ties on hash break by member id, so
// any permutation of the same set builds the identical ring.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, points: make([]point, 0, len(members)*vnodes)}
	for _, m := range members {
		seed := hashString(m)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: vnodeHash(seed, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member whose vnode is the clockwise successor of
// the partition's ring point — the consistent-hash placement rule.
// Empty ring returns "".
func (r *Ring) Owner(part int) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := partitionHash(part)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) { // wrap past the highest point
		i = 0
	}
	return r.points[i].member
}

// DefaultVNodes is the virtual-node count used when a config leaves
// it zero: enough to bound per-node imbalance to a few percent at
// small cluster sizes without making ring builds expensive.
const DefaultVNodes = 128

// DefaultPartitions is the cluster-mode default partition count —
// many more partitions than nodes, so membership changes move load
// in fine slices.
const DefaultPartitions = 64

// assign materializes a full partition→member table from a ring.
func assign(r *Ring, partitions int) []string {
	out := make([]string, partitions)
	for p := range out {
		out[p] = r.Owner(p)
	}
	return out
}

// InitialState computes the epoch-1 placement every participant
// derives independently at boot: same members (order-insensitive),
// same partitions and vnodes → identical State, so a cold cluster
// routes correctly before the registry has exchanged a single pulse.
func InitialState(partitions, vnodes int, members []Member) *State {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return &State{
		Epoch:      1,
		Partitions: partitions,
		VNodes:     vnodes,
		Members:    ms,
		Assign:     assign(NewRing(ids, vnodes), partitions),
	}
}

// OwnedBy lists the partitions a state assigns to member id, in
// ascending order — the store.Config.Owned slice for that node.
func OwnedBy(s *State, id string) []int {
	var out []int
	for p, m := range s.Assign {
		if m == id {
			out = append(out, p)
		}
	}
	return out
}

// ParseMembers parses the "-cluster-nodes id=url,id=url" flag shared
// by amntd and amntproxy.
func ParseMembers(spec string) ([]Member, error) {
	if spec == "" {
		return nil, nil
	}
	var out []Member
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad member %q, want id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate member id %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, Addr: strings.TrimSuffix(addr, "/")})
	}
	return out, nil
}
