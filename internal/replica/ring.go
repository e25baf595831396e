// Package replica is the multi-replica collector tier: a consistent-hash
// ring routes node IDs across N spectrumd instances, misrouted
// submissions are proxied to their owner so agents stay dumb, epoch
// close is merged across replicas by a coordinator so the fleet view is
// byte-identical to a single collector's, and a joining replica catches
// up by replaying a live peer's durable log.
package replica

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sensorcal/internal/hash"
)

// Member is one replica of the collector ring.
type Member struct {
	// ID is the replica's stable identity; the lexically smallest ID is
	// the merge-close coordinator.
	ID string `json:"id"`
	// URL is the replica's base URL (scheme://host:port).
	URL string `json:"url"`
}

// DefaultVirtualNodes is the per-member virtual-node count. 128 points
// per member keeps the ownership imbalance across members in the low
// single-digit percent range while the ring stays a few KB.
const DefaultVirtualNodes = 128

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over the member set.
// Placement is deterministic: members sorted by ID, virtual node v of
// member m hashed as FNV-1a of "m#v", lookups walking clockwise to the
// first point at or past the key's hash. Every replica configured with
// the same member list computes the same ring, so routing needs no
// coordination — and the placement is pinned by tests, because silently
// changing the hash reshuffles ownership fleet-wide.
type Ring struct {
	members []Member
	points  []ringPoint
	vnodes  int
}

// ringHash is FNV-1a with an avalanche finalizer (the splitmix64 mixer).
// Raw FNV-1a is fine for lock striping (the mask only reads low bits)
// but terrible as a ring position: keys differing in their last byte —
// "node-1" vs "node-2", exactly the fleet's naming shape — land within a
// few multiples of the FNV prime of each other and pile into one arc.
// The finalizer spreads them across the full 64-bit circle. Both halves
// come from the shared internal/hash package, so ring placement and the
// collector's stripe selection can never silently diverge.
func ringHash(s string) uint64 {
	return hash.Mix64(hash.FNV1a(s))
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (≤ 0 means DefaultVirtualNodes). Member IDs must be unique and
// non-empty.
func NewRing(members []Member, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("replica: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seen := make(map[string]struct{}, len(sorted))
	for _, m := range sorted {
		if m.ID == "" {
			return nil, fmt.Errorf("replica: ring member with empty ID")
		}
		if _, dup := seen[m.ID]; dup {
			return nil, fmt.Errorf("replica: duplicate ring member %q", m.ID)
		}
		seen[m.ID] = struct{}{}
	}
	r := &Ring{members: sorted, vnodes: vnodes, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for mi, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(m.ID + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	// Hash-colliding points tie-break on member index so the placement
	// stays total-ordered and member-order independent.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Owner returns the member that owns key (a trust node ID): the first
// virtual node clockwise from the key's hash.
func (r *Ring) Owner(key string) Member { return r.members[r.ownerIndex(key)] }

// ownerIndex is Owner as an index into the ID-sorted member list.
func (r *Ring) ownerIndex(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the member set sorted by ID.
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// VirtualNodes returns the per-member virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Coordinator returns the merge-close coordinator: the member with the
// lexically smallest ID. Deterministic, so every replica agrees without
// an election.
func (r *Ring) Coordinator() Member { return r.members[0] }

// Member returns the member with the given ID.
func (r *Ring) Member(id string) (Member, bool) {
	for _, m := range r.members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// ParseMembers parses the -ring flag form "id=url,id=url,...".
func ParseMembers(s string) ([]Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("replica: empty ring spec")
	}
	var members []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.IndexByte(part, '=')
		if i <= 0 || i == len(part)-1 {
			return nil, fmt.Errorf("replica: ring entry %q must be id=url", part)
		}
		members = append(members, Member{ID: part[:i], URL: strings.TrimRight(part[i+1:], "/")})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("replica: ring spec %q has no members", s)
	}
	return members, nil
}
