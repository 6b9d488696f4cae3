package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// span is one traced interval. Spans are kept in memory and written out
// when the run ends. A root span (an iteration, or a worker's lifetime in
// the service workload) groups the spans that share its group number;
// its self time is its duration minus the time those children cover.
type span struct {
	start, end int64 // nanoseconds since the tracer's epoch
	name       uint16
	group      int32
	root       bool
	// selfReported marks a stage duration the program timed itself
	// (CampaignConfig.OnStage); only its end was observed.
	selfReported bool
}

// Fixed span names; control-plane paths are registered as they appear.
const (
	spanIteration uint16 = iota
	spanGenerate
	spanLookup
	spanInsert
	spanLookupPrefix
	spanInsertPrefix
	spanNotePrefix
	spanWorker
	spanUnit
	numFixedSpans
)

var fixedSpanNames = [numFixedSpans]string{
	"iteration", "core.generate",
	"vcache.lookup", "vcache.insert", "vcache.lookup_prefix", "vcache.insert_prefix", "vcache.note_prefix",
	"worker", "orchestrator.unit",
}

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	names []string
	index map[string]uint16
	spans []span
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), index: map[string]uint16{}, spans: make([]span, 0, capacity)}
	for i, n := range fixedSpanNames {
		t.names = append(t.names, n)
		t.index[n] = uint16(i)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nameID returns the id of a span name, registering it on first use.
func (t *tracer) nameID(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

func (t *tracer) rpcName(path string) uint16 { return t.nameID("orchestrator." + path) }

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalMS      float64 `json:"total_ms"`
	SelfMS       float64 `json:"self_ms"`
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
	SelfReported bool    `json:"self_reported,omitempty"`
}

// analysis is what a trace yields: per-name summaries and the share of
// root time no child span covers.
type analysis struct {
	summaries    []spanSummary
	rootNS       int64
	unattributed int64
}

// analyze computes self times: each root's duration minus the time its
// children cover. Self-reported stage spans carry a duration but no
// observed start, and the stages partition the program's own clocks, so
// where a root has them they are summed (the measured spans nest inside
// them); otherwise the union of the children's intervals, clipped to the
// root, is used.
func (t *tracer) analyze() analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	type acc struct {
		durs         []float64
		total, self  int64
		selfReported bool
	}
	byName := map[uint16]*acc{}
	roots := map[int32]span{}
	children := map[int32][]span{}
	for _, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &acc{}
			byName[s.name] = a
		}
		d := s.end - s.start
		a.durs = append(a.durs, float64(d)/1e3)
		a.total += d
		a.selfReported = s.selfReported
		if s.root {
			roots[s.group] = s
		} else {
			children[s.group] = append(children[s.group], s)
		}
	}
	var an analysis
	for g, r := range roots {
		var stages int64
		for _, k := range children[g] {
			if k.selfReported {
				stages += k.end - k.start
			}
		}
		self := max(0, (r.end-r.start)-stages)
		if stages == 0 {
			self = (r.end - r.start) - covered(r, children[g])
		}
		byName[r.name].self += self
		an.rootNS += r.end - r.start
		an.unattributed += self
	}
	for id, a := range byName {
		if a.self == 0 && !isRoot(id) {
			a.self = a.total
		}
		an.summaries = append(an.summaries, spanSummary{
			Name: t.names[id], Count: len(a.durs),
			TotalMS: float64(a.total) / 1e6, SelfMS: float64(a.self) / 1e6,
			P50US: median(a.durs), P99US: percentile(a.durs, 0.99),
			SelfReported: a.selfReported,
		})
	}
	sort.Slice(an.summaries, func(i, j int) bool { return an.summaries[i].Name < an.summaries[j].Name })
	return an
}

func isRoot(id uint16) bool { return id == spanIteration || id == spanWorker }

// covered is the length of the union of the children's intervals within
// the root's interval.
func covered(root span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.start, root.start), min(k.end, root.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// summary returns the summary of one span name (zero when absent).
func (an analysis) summary(name string) spanSummary {
	for _, s := range an.summaries {
		if s.Name == name {
			return s
		}
	}
	return spanSummary{Name: name}
}

// meanNS is the mean span duration of the given names, in nanoseconds.
func (an analysis) meanNS(names ...string) float64 {
	var ms float64
	var n int
	for _, name := range names {
		s := an.summary(name)
		ms += s.TotalMS
		n += s.Count
	}
	return ratio(ms*1e6, float64(n))
}

// writeTrace writes the span summaries and the first maxWritten raw spans
// to dir/<workload>-seed<N>.json.
func (t *tracer) writeTrace(dir, workload string, seed int64, an analysis) (string, error) {
	const maxWritten = 20000
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type rawSpan struct {
		Name         string `json:"name"`
		StartNS      int64  `json:"start_ns"`
		EndNS        int64  `json:"end_ns"`
		Group        int32  `json:"group"`
		Root         bool   `json:"root,omitempty"`
		SelfReported bool   `json:"self_reported,omitempty"`
	}
	t.mu.Lock()
	raw := make([]rawSpan, 0, min(len(t.spans), maxWritten))
	for _, s := range t.spans[:min(len(t.spans), maxWritten)] {
		raw = append(raw, rawSpan{t.names[s.name], s.start, s.end, s.group, s.root, s.selfReported})
	}
	total := len(t.spans)
	t.mu.Unlock()
	doc := map[string]any{
		"workload": workload, "seed": seed, "spans_recorded": total,
		"summary": an.summaries, "spans": raw,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// sampler keeps a fixed-size uniform sample of the programs seen at a
// seam (reservoir sampling with a seeded generator), plus, where the
// verdict cache is on, a sample of (program, inserted verdict) pairs.
type sampler struct {
	r        *rand.Rand
	size     int
	seen     int
	progs    []*isa.Program
	verdicts []sampledVerdict
	vseen    int
}

type sampledVerdict struct {
	prog     *isa.Program
	rejected bool
}

func newSampler(seed int64, size int) *sampler {
	return &sampler{r: rand.New(rand.NewSource(seed)), size: size}
}

func (s *sampler) program(p *isa.Program) {
	s.seen++
	if len(s.progs) < s.size {
		s.progs = append(s.progs, p)
	} else if j := s.r.Intn(s.seen); j < s.size {
		s.progs[j] = p
	}
}

func (s *sampler) verdict(v sampledVerdict) {
	s.vseen++
	if len(s.verdicts) < s.size {
		s.verdicts = append(s.verdicts, v)
	} else if j := s.r.Intn(s.vseen); j < s.size {
		s.verdicts[j] = v
	}
}

// campaignTrace holds the hooks of one traced campaign.
type campaignTrace struct {
	t         *tracer
	smp       *sampler
	iter      int32
	iterStart int64
}

func (ct *campaignTrace) hooks(cached bool) hooks {
	h := hooks{
		begin: func() { ct.iterStart = ct.t.now() },
		onIter: func() {
			end := ct.t.now()
			ct.t.add(span{start: ct.iterStart, end: end, name: spanIteration, group: ct.iter, root: true})
			ct.iter++
			ct.iterStart = end
		},
		onStage: func(stage string, d time.Duration) {
			end := ct.t.now()
			ct.t.add(span{start: end - int64(d), end: end, name: ct.t.nameID("stage." + stage), group: ct.iter, selfReported: true})
		},
		source: func(src core.ProgramSource) core.ProgramSource {
			return &tracedSource{ProgramSource: src, ct: ct, sample: !cached}
		},
	}
	if cached {
		h.cache = func(cfg *core.CampaignConfig) {
			cfg.Cache = &tracedCache{inner: cfg.Cache, t: ct.t, group: &ct.iter, smp: ct.smp}
		}
	}
	return h
}

// tracedSource records a core.generate span per fresh generation; on
// cache-off workloads it is also where the replay sample is drawn.
type tracedSource struct {
	core.ProgramSource
	ct     *campaignTrace
	sample bool
}

func (s *tracedSource) Generate(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	begin := s.ct.t.now()
	p := s.ProgramSource.Generate(r, pool)
	s.ct.t.add(span{start: begin, end: s.ct.t.now(), name: spanGenerate, group: s.ct.iter})
	if s.sample {
		s.ct.smp.program(p)
	}
	return p
}

// countingCache is a verdict cache that reports its counters, as
// vcache.Store and vcache.Shard do.
type countingCache interface {
	verifier.Cache
	CounterSnapshot() vcache.Counters
}

// tracedCache wraps a verdict cache with vcache.* spans, samples the
// programs looked up, and pairs each miss's program with the verdict
// inserted for it.
type tracedCache struct {
	inner  verifier.Cache
	t      *tracer
	group  *int32
	smp    *sampler
	lastFP uint64
	last   *isa.Program
}

func (c *tracedCache) span(name uint16, begin int64) {
	c.t.add(span{start: begin, end: c.t.now(), name: name, group: *c.group})
}

func (c *tracedCache) Lookup(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	begin := c.t.now()
	v := c.inner.Lookup(fp, p)
	c.span(spanLookup, begin)
	if c.smp != nil {
		c.smp.program(p)
	}
	c.lastFP, c.last = fp, p
	return v
}

func (c *tracedCache) Insert(fp uint64, v *verifier.CachedVerdict) {
	begin := c.t.now()
	c.inner.Insert(fp, v)
	c.span(spanInsert, begin)
	if c.smp != nil && c.last != nil && fp == c.lastFP {
		c.smp.verdict(sampledVerdict{prog: c.last, rejected: v.Rejected})
	}
}

func (c *tracedCache) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	begin := c.t.now()
	s := c.inner.LookupPrefix(fp, canon)
	c.span(spanLookupPrefix, begin)
	return s
}

func (c *tracedCache) InsertPrefix(fp uint64, s *verifier.PrefixSnapshot) {
	begin := c.t.now()
	c.inner.InsertPrefix(fp, s)
	c.span(spanInsertPrefix, begin)
}

func (c *tracedCache) NotePrefix(fp uint64) bool {
	begin := c.t.now()
	seen := c.inner.NotePrefix(fp)
	c.span(spanNotePrefix, begin)
	return seen
}

// CounterSnapshot forwards the inner cache's counters, so the campaign's
// Cache* statistics stay what they are untraced.
func (c *tracedCache) CounterSnapshot() vcache.Counters {
	if cc, ok := c.inner.(countingCache); ok {
		return cc.CounterSnapshot()
	}
	return vcache.Counters{}
}
