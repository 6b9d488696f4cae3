package coverage

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ID is a site's dense process-wide index, assigned once by the site
// registry in first-intern order. Every in-process recorder (Local, Map,
// the verdict cache's replayed profiles) is a counter array indexed by
// ID, so a hit is an index and an increment instead of a map operation.
// IDs never leave the process: checkpoints, persisted cache entries and
// the gob-encoded campaign statistics carry Sites, and every ordered
// output sorts by Site, so interning order cannot leak into any result.
type ID uint32

// MaxSites bounds the site registry. The registry is process-global and
// never shrinks, while a long-lived coordinator decodes coverage maps
// from its workers; the bound keeps hostile or corrupt input from growing
// it without limit. The verifier's whole domain interns a few hundred
// sites.
const MaxSites = 1 << 16

// ErrRegistryFull is returned when registering a batch of sites would
// take the registry past MaxSites. The batch is then registered not at
// all.
var ErrRegistryFull = errors.New("coverage: site registry full")

// registry is the append-only Site <-> ID table. Readers load the current
// immutable view without locking. Registering a site publishes a view with
// the longer ID -> Site table but keeps the old Site -> ID snapshot, so
// registering n sites one at a time (package init) costs O(n), not O(n²)
// map copies; the first locked lookup that finds a site the snapshot lacks
// publishes a fresh one, after which lookups of it are lock-free again.
type registry struct {
	mu    sync.Mutex
	limit int
	index map[Site]ID // every registered site; guarded by mu
	view  atomic.Pointer[regView]
}

type regView struct {
	ids   map[Site]ID // snapshot of index; may lag behind sites
	sites []Site      // indexed by ID; every registered site
}

var reg = newRegistry(MaxSites)

func newRegistry(limit int) *registry {
	r := &registry{limit: limit, index: map[Site]ID{}}
	r.view.Store(&regView{ids: map[Site]ID{}})
	return r
}

func (r *registry) lookup(s Site) (ID, bool) {
	if id, ok := r.view.Load().ids[s]; ok {
		return id, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.index[s]
	if ok {
		r.refreshLocked()
	}
	return id, ok
}

// refreshLocked publishes a fresh Site -> ID snapshot; the caller holds mu.
func (r *registry) refreshLocked() {
	r.view.Store(&regView{ids: maps.Clone(r.index), sites: r.view.Load().sites})
}

func (r *registry) size() int { return len(r.view.Load().sites) }

// intern stores the ID of sites[i] in out[i], registering every unknown
// site. It registers none of them and returns ErrRegistryFull when they
// do not all fit.
func (r *registry) intern(sites []Site, out []ID) error {
	v := r.view.Load()
	i := 0
	for ; i < len(sites); i++ {
		id, ok := v.ids[sites[i]]
		if !ok {
			break
		}
		out[i] = id
	}
	if i == len(sites) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v = r.view.Load()
	// Appending may write past the old view's length inside a shared
	// backing array; readers of the old view never index that far.
	grown, stale := v.sites, false
	for ; i < len(sites); i++ {
		s := sites[i]
		id, ok := r.index[s]
		if ok {
			_, published := v.ids[s]
			stale = stale || !published
		} else {
			if len(grown) >= r.limit {
				for _, s := range grown[len(v.sites):] {
					delete(r.index, s)
				}
				return fmt.Errorf("%w (%d sites)", ErrRegistryFull, r.limit)
			}
			id = ID(len(grown))
			r.index[s] = id
			grown = append(grown, s)
		}
		out[i] = id
	}
	if len(grown) > len(v.sites) {
		r.view.Store(&regView{ids: v.ids, sites: grown})
	}
	if stale {
		r.refreshLocked()
	}
	return nil
}

// InternSite returns s's ID, registering s on first use. In-process
// sites come from a closed domain, so a full registry here is a program
// bug and panics; decoders of external input use Compact and
// Map.UnmarshalBinary, which return ErrRegistryFull instead.
func InternSite(s Site) ID {
	var id [1]ID
	if err := reg.intern([]Site{s}, id[:]); err != nil {
		panic(err)
	}
	return id[0]
}

// Intern returns the ID of the site named by loc (InternSite(SiteOf(loc))).
// Hot instrumentation points intern their sites once at package init.
func Intern(loc string) ID { return InternSite(SiteOf(loc)) }

// Site returns the stable identifier id was interned from.
func (id ID) Site() Site { return reg.view.Load().sites[id] }

// Registered returns the number of interned sites.
func Registered() int { return reg.size() }

// IDCount is one site's hits in a compact in-memory coverage profile, 8
// bytes against SiteCount's 16. A count past MaxUint32 is split over
// several runs of the same ID; replaying a profile sums them.
type IDCount struct {
	ID    ID
	Count uint32
}

// appendRuns appends n hits of id to p as IDCount runs.
func appendRuns(p []IDCount, id ID, n uint64) []IDCount {
	for ; n > math.MaxUint32; n -= math.MaxUint32 {
		p = append(p, IDCount{id, math.MaxUint32})
	}
	return append(p, IDCount{id, uint32(n)})
}

// Compact interns a persisted (site, count) profile into its in-memory
// form. Zero-count entries record nothing and are dropped. It returns
// ErrRegistryFull, registering nothing, when the profile's unknown sites
// do not fit in the registry.
func Compact(sites []SiteCount) ([]IDCount, error) {
	if len(sites) == 0 {
		return nil, nil
	}
	ss := make([]Site, len(sites))
	for i, sc := range sites {
		ss[i] = sc.Site
	}
	ids := make([]ID, len(sites))
	if err := reg.intern(ss, ids); err != nil {
		return nil, err
	}
	out := make([]IDCount, 0, len(sites))
	for i, sc := range sites {
		if sc.Count != 0 {
			out = appendRuns(out, ids[i], sc.Count)
		}
	}
	return out, nil
}

// Expand converts an in-memory profile to its persisted form: one entry
// per site, sorted by Site.
func Expand(p []IDCount) []SiteCount {
	if len(p) == 0 {
		return nil
	}
	sites := reg.view.Load().sites
	out := make([]SiteCount, 0, len(p))
	for _, r := range p {
		out = append(out, SiteCount{Site: sites[r.ID], Count: uint64(r.Count)})
	}
	slices.SortFunc(out, func(a, b SiteCount) int { return cmp.Compare(a.Site, b.Site) })
	// Fold the runs of a split count back into one entry.
	w := 0
	for _, sc := range out {
		if w > 0 && out[w-1].Site == sc.Site {
			out[w-1].Count += sc.Count
			continue
		}
		out[w] = sc
		w++
	}
	return out[:w]
}

// growCounts returns c extended with zeroes to cover id and every site
// registered so far, so later hits on known sites need no growth.
func growCounts(c []uint64, id ID) []uint64 {
	if int(id) < len(c) {
		return c
	}
	n := max(int(id)+1, reg.size())
	old := len(c)
	c = slices.Grow(c, n-old)[:n]
	clear(c[old:])
	return c
}
