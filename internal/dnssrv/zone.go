package dnssrv

import (
	"sort"
	"strings"
	"sync"
)

// Zone is an authoritative zone: a set of RRs under one origin. It is safe
// for concurrent use.
type Zone struct {
	origin string // canonical
	mu     sync.RWMutex
	// records[name][type] -> RRs
	records map[string]map[uint16][]RR
	// below[name] counts the names in records strictly below name, so
	// a miss tells an empty non-terminal (NODATA) from NXDOMAIN without
	// scanning the zone.
	below  map[string]int
	serial uint32
}

// NewZone creates a zone rooted at origin and installs a default SOA.
func NewZone(origin string) *Zone {
	z := &Zone{
		origin:  CanonicalName(origin),
		records: map[string]map[uint16][]RR{},
		below:   map[string]int{},
		serial:  1,
	}
	z.Add(RR{
		Name: z.origin, Type: TypeSOA, Class: ClassIN, TTL: 3600,
		SOA: &SOAData{
			MName: "ns1." + strings.TrimPrefix(z.origin, "."), RName: "admin." + strings.TrimPrefix(z.origin, "."),
			Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60,
		},
	})
	return z
}

// Origin returns the canonical zone origin.
func (z *Zone) Origin() string { return z.origin }

// Contains reports whether a canonical name falls inside the zone.
func (z *Zone) Contains(name string) bool {
	name = CanonicalName(name)
	if z.origin == "." {
		return true
	}
	return name == z.origin || strings.HasSuffix(name, "."+z.origin)
}

// Add inserts a record (name is canonicalized).
func (z *Zone) Add(rr RR) {
	rr.Name = CanonicalName(rr.Name)
	if rr.Class == 0 {
		rr.Class = ClassIN
	}
	if rr.TTL == 0 {
		rr.TTL = 60
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[rr.Name]
	if !ok {
		byType = map[uint16][]RR{}
		z.records[rr.Name] = byType
		z.countAncestorsLocked(rr.Name, 1)
	}
	byType[rr.Type] = append(byType[rr.Type], rr)
	z.serial++
}

// countAncestorsLocked adds delta to the below count of every name
// above name: each suffix that follows one of its dots.
func (z *Zone) countAncestorsLocked(name string, delta int) {
	for i := 0; i < len(name)-1; i++ {
		if name[i] != '.' {
			continue
		}
		a := name[i+1:]
		if n := z.below[a] + delta; n > 0 {
			z.below[a] = n
		} else {
			delete(z.below, a)
		}
	}
}

// Remove deletes all records of the given type at name; TypeANY removes
// the whole node.
func (z *Zone) Remove(name string, typ uint16) {
	name = CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	if byType, ok := z.records[name]; ok {
		if typ != TypeANY {
			delete(byType, typ)
		}
		if typ == TypeANY || len(byType) == 0 {
			delete(z.records, name)
			z.countAncestorsLocked(name, -1)
		}
	}
	z.serial++
}

// Replace atomically swaps the records of one type at a name.
func (z *Zone) Replace(name string, typ uint16, rrs ...RR) {
	name = CanonicalName(name)
	out := make([]RR, 0, len(rrs))
	for _, rr := range rrs {
		rr.Name = name
		rr.Type = typ
		if rr.Class == 0 {
			rr.Class = ClassIN
		}
		if rr.TTL == 0 {
			rr.TTL = 60
		}
		out = append(out, rr)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[name]
	switch {
	case len(out) > 0 && !ok:
		z.records[name] = map[uint16][]RR{typ: out}
		z.countAncestorsLocked(name, 1)
	case len(out) > 0:
		byType[typ] = out
	case ok:
		delete(byType, typ)
		if len(byType) == 0 {
			delete(z.records, name)
			z.countAncestorsLocked(name, -1)
		}
	}
	z.serial++
}

// Serial returns the zone change counter.
func (z *Zone) Serial() uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}

// lookupResult classifies an authoritative lookup.
type lookupResult int

const (
	lookupHit lookupResult = iota
	lookupNoData
	lookupNXDomain
)

// Lookup answers a question authoritatively, chasing CNAME chains inside
// the zone. It distinguishes NXDOMAIN (no records at or below the name)
// from NODATA (name exists, type absent).
func (z *Zone) Lookup(qname string, qtype uint16) ([]RR, lookupResult) {
	qname = CanonicalName(qname)
	z.mu.RLock()
	defer z.mu.RUnlock()

	var answers []RR
	seen := map[string]bool{}
	name := qname
	for hop := 0; hop < 16; hop++ {
		if seen[name] {
			break
		}
		seen[name] = true
		byType, exists := z.records[name]
		if exists {
			if qtype == TypeANY {
				for _, rrs := range byType {
					answers = append(answers, rrs...)
				}
				return z.liveSerialLocked(answers), lookupHit
			}
			if rrs, ok := byType[qtype]; ok {
				answers = append(answers, rrs...)
				return z.liveSerialLocked(answers), lookupHit
			}
			if cn, ok := byType[TypeCNAME]; ok && len(cn) > 0 {
				answers = append(answers, cn...)
				name = CanonicalName(cn[0].Target)
				if !z.Contains(name) {
					return answers, lookupHit
				}
				continue
			}
			return answers, lookupNoData
		}
		// Name itself absent: empty non-terminal check.
		if z.below[name] > 0 {
			return answers, lookupNoData
		}
		return answers, lookupNXDomain
	}
	return answers, lookupHit
}

// liveSerialLocked replaces the serial of any SOA answer with the zone's
// change counter, copying the SOAData so the stored record is never
// mutated. The zone has tracked changes in z.serial all along; stamping
// answers with it makes the SOA serial a usable change cursor — one
// cheap SOA query tells a delta-pull consumer whether the zone moved.
func (z *Zone) liveSerialLocked(rrs []RR) []RR {
	for i, rr := range rrs {
		if rr.Type != TypeSOA || rr.SOA == nil {
			continue
		}
		soa := *rr.SOA
		soa.Serial = z.serial
		rrs[i].SOA = &soa
	}
	return rrs
}

// AllRecords returns every record in the zone, SOA first (AXFR order).
func (z *Zone) AllRecords() []RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []RR
	if byType, ok := z.records[z.origin]; ok {
		out = append(out, z.liveSerialLocked(append([]RR(nil), byType[TypeSOA]...))...)
	}
	names := make([]string, 0, len(z.records))
	for n := range z.records {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for typ, rrs := range z.records[n] {
			if n == z.origin && typ == TypeSOA {
				continue
			}
			out = append(out, rrs...)
		}
	}
	return out
}

// SOA returns the zone's SOA record, if present.
func (z *Zone) SOA() (RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if byType, ok := z.records[z.origin]; ok {
		if rrs, ok := byType[TypeSOA]; ok && len(rrs) > 0 {
			return z.liveSerialLocked([]RR{rrs[0]})[0], true
		}
	}
	return RR{}, false
}
