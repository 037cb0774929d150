package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the live member set: each member
// contributes vnodes virtual points, keys own the first point at or
// clockwise after their hash. The ring is a pure function of (members,
// vnodes) — two nodes with the same view of the membership compute the
// same owner for every key, with no coordination. Losing one member
// moves only that member's keys (scattered across the survivors by the
// virtual points); everyone else's work stays put.
//
// A Ring is immutable; membership changes build a new one.
type Ring struct {
	points  []ringPoint
	members []string
	vnodes  int
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVirtualNodes balances placement evenness (±a few percent across
// members) against ring-build cost.
const DefaultVirtualNodes = 64

// NewRing builds the ring for the given member IDs. Duplicate members
// collapse; order does not matter (the ring is deterministic from the
// set). An empty member set yields a ring that owns nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	set := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || set[m] {
			continue
		}
		set[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	points := make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			points = append(points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), node: m})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node // deterministic under collisions
	})
	return &Ring{points: points, members: uniq, vnodes: vnodes}
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256, so
// placement cannot be skewed by pathological key shapes the way small
// multiplicative hashes can.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the ring's member IDs, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the number of members on the ring.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// search returns the index of the first point at or clockwise after the
// key's hash.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is a circle
	}
	return i
}
