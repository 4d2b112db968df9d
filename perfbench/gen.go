package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"cape/internal/query"
	"cape/internal/server"
)

// The four workloads. Their names are cited by later changes; keep them.
const (
	wlSmall   = "small-jobs"
	wlFast    = "kernels-fast"
	wlBit     = "kernels-bit"
	wlCluster = "cluster-small"
)

// Job classes. A class is one kind of request with one cost profile.
const (
	clsSrcHit  = "src-hit"  // tiny source program from the fixed set: asm cache hit
	clsSrcMiss = "src-miss" // tiny source program with a unique constant: asm cache miss
	clsKVGet   = "kv.get"
	clsSelect  = "rel.select"
	clsNear    = "near.best"
)

// share is one class and how many of it a block holds.
type share struct {
	class string
	n     int
}

// mix defines a workload: the job classes of one block, how many
// closed-loop clients send them, and the nominal throughput on the
// reference host that sizes the sequence from --seconds. The sequence
// length depends only on the workload and --seconds, never on how fast
// the run goes, so every run of a seed submits exactly the same jobs.
type mix struct {
	name    string
	clients int
	block   []share
	// nominalJobsS is the jobs/s measured on the reference host (2-core
	// VM); it turns --seconds into a block count.
	nominalJobsS float64
	// cluster sends the jobs through a coordinator fronting one worker.
	cluster bool
}

var mixes = []mix{
	{
		name: wlSmall, clients: 2, nominalJobsS: 200,
		// 14/20 tiny source jobs (3 of them unique, so the asm cache
		// misses), 6/20 small bit-level query jobs.
		block: []share{{clsSrcHit, 11}, {clsSrcMiss, 3}, {clsKVGet, 2}, {clsSelect, 2}, {clsNear, 2}},
	},
	{
		name: wlFast, clients: 1, nominalJobsS: 21,
		// revidx, the cheapest kernel, is the majority (20/32), so the
		// median sits well inside it; pca, the costliest, makes 5/32, so
		// p90 sits inside it; the other seven kernels lie between.
		block: []share{{"revidx", 20}, {"pca", 5}, {"memcpy", 1}, {"vsearch", 1}, {"redsum", 1},
			{"idxsrch", 1}, {"strmatch", 1}, {"vvadd", 1}, {"lreg", 1}},
	},
	{
		name: wlBit, clients: 1, nominalJobsS: 3.2,
		// revidx (12/18) holds the median; memcpy, the VMU-bound kernel
		// and by far the costliest, holds the top 3/18 and so p90; the
		// CSB-bound redsum, vsearch and idxsrch lie between.
		block: []share{{"revidx", 12}, {"redsum", 1}, {"vsearch", 1}, {"idxsrch", 1}, {"memcpy", 3}},
	},
	{
		// The small-jobs sequence itself: same seed, same requests, sized
		// by small-jobs' rate (it runs about a fifth longer).
		name: wlCluster, clients: 2, nominalJobsS: 200, cluster: true,
		block: []share{{clsSrcHit, 11}, {clsSrcMiss, 3}, {clsKVGet, 2}, {clsSelect, 2}, {clsNear, 2}},
	},
}

func mixByName(name string) (mix, bool) {
	for _, m := range mixes {
		if m.name == name {
			return m, true
		}
	}
	return mix{}, false
}

func (m mix) blockLen() int {
	n := 0
	for _, s := range m.block {
		n += s.n
	}
	return n
}

// minJobs is the smallest sequence a run submits, so that p90 always
// has at least ten samples beyond it.
const minJobs = 100

// blocks is the number of whole blocks a run of the given length
// submits: as many as take about that long on the reference host, and
// at least minJobs jobs.
func (m mix) blocks(seconds float64) int {
	n := int(math.Ceil(seconds * m.nominalJobsS / float64(m.blockLen())))
	return max(n, (minJobs+m.blockLen()-1)/m.blockLen())
}

// Fixed machine configurations. small-jobs spreads its source jobs
// over two fast-backend configurations and runs its queries bit-level
// at 32 chains, so it always uses exactly three pool shards.
var (
	srcConfigs = []server.Request{
		{Backend: "fast"},              // CAPE32k, 1024 chains
		{Backend: "fast", Chains: 256}, // a second shard of the same RAM size
	}
	queryConfig  = server.Request{Backend: "bitlevel", Chains: 32}
	fastKernel   = server.Request{Backend: "fast"}
	bitKernel    = server.Request{Backend: "bitlevel", Chains: 64}
	srcDumpAddr  = uint64(0x2000)
	queryRows    = 1000
	srcLengths   = []int{16, 64}
	srcTemplates = []srcTemplate{
		{
			body: "vmv.v.x v1, x11\nvadd.vx v1, v1, x12\n",
			eval: func(a, b uint32) uint32 { return a + b },
		},
		{
			body: "vmv.v.x v1, x11\nvmv.v.x v2, x12\nvmul.vv v1, v1, v2\nvsub.vx v1, v1, x11\n",
			eval: func(a, b uint32) uint32 { return a*b - a },
		},
		{
			body: "vmv.v.x v1, x11\nvsll.vi v1, v1, 3\nvmv.v.x v2, x12\nvxor.vv v1, v1, v2\n",
			eval: func(a, b uint32) uint32 { return a<<3 ^ b },
		},
	}
)

// srcTemplate is one tiny vector program over the register presets x11
// and x12; eval is its per-element result in Go.
type srcTemplate struct {
	body string
	eval func(x11, x12 uint32) uint32
}

// source renders a template at vector length n. unique, when non-zero,
// adds that constant to every element, which makes the source text
// distinct and so a program-cache miss.
func (t srcTemplate) source(n int, unique uint32) string {
	s := fmt.Sprintf("li x1, %d\nvsetvli x2, x1, e32\nli x10, %d\n", n, srcDumpAddr) + t.body
	if unique != 0 {
		s += fmt.Sprintf("li x14, %d\nvadd.vx v1, v1, x14\n", unique)
	}
	return s + "vse32.v v1, (x10)\nhalt\n"
}

// Job is one generated request with what its response must contain.
type Job struct {
	Index int
	Class string
	// Body is the exact request the program under test receives.
	Body []byte
	// WantDump is the expected memory dump of a source job.
	WantDump []uint32
	// WantQuery is the reference result of a query job, computed in Go
	// from the same seeded table.
	WantQuery *query.Result
	// Workload marks a built-in kernel job, which must report check_ok.
	Workload bool
}

// Generate builds the job sequence of a workload for a seed. Each block
// holds exactly the mix's class counts in a seeded order, so every
// stretch of the run has the same composition.
func Generate(m mix, seed int64, seconds float64) ([]Job, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	nb := m.blocks(seconds)
	for b := 0; b < nb; b++ {
		var classes []string
		for _, s := range m.block {
			for i := 0; i < s.n; i++ {
				classes = append(classes, s.class)
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, c := range classes {
			j, err := makeJob(m, c, len(jobs), seed, rng)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// uniqueConst is the per-job constant of a cache-miss source job:
// distinct for every index within a run, and never zero.
func uniqueConst(seed int64, index int) uint32 {
	return uint32(seed%1000)*1_000_000 + uint32(index) + 1
}

func makeJob(m mix, class string, index int, seed int64, rng *rand.Rand) (Job, error) {
	j := Job{Index: index, Class: class}
	var req server.Request
	switch class {
	case clsSrcHit, clsSrcMiss:
		t := srcTemplates[rng.Intn(len(srcTemplates))]
		n := srcLengths[rng.Intn(len(srcLengths))]
		req = srcConfigs[rng.Intn(len(srcConfigs))]
		x11 := uint32(rng.Intn(1 << 16))
		x12 := uint32(rng.Intn(1 << 16))
		var u uint32
		if class == clsSrcMiss {
			u = uniqueConst(seed, index)
		}
		req.Name = "tiny"
		req.Source = t.source(n, u)
		req.Registers = map[string]int64{"x11": int64(x11), "x12": int64(x12)}
		req.Dump = &server.DumpSpec{Addr: srcDumpAddr, Words: n}
		want := t.eval(x11, x12) + u
		j.WantDump = make([]uint32, n)
		for i := range j.WantDump {
			j.WantDump[i] = want
		}
	case clsKVGet, clsSelect, clsNear:
		q := makeQuery(class, rng)
		req = queryConfig
		req.Query = q
		j.WantQuery = referenceQuery(q)
	default:
		switch m.name {
		case wlFast:
			req = fastKernel
		case wlBit:
			req = bitKernel
		default:
			return j, fmt.Errorf("class %q in workload %s", class, m.name)
		}
		req.Workload = class
		j.Workload = true
	}
	body, err := json.Marshal(req)
	if err != nil {
		return j, err
	}
	j.Body = body
	return j, nil
}

// makeQuery draws a ~1k-row table with 16-bit keys (so repeated keys
// occur and first-match order matters) and the class's operands.
func makeQuery(class string, rng *rand.Rand) *query.Request {
	keys := make([]uint32, queryRows)
	vals := make([]uint32, queryRows)
	for i := range keys {
		keys[i] = uint32(rng.Intn(1 << 16))
		vals[i] = uint32(rng.Intn(1 << 24))
	}
	q := &query.Request{Keys: keys, Vals: vals}
	switch class {
	case clsKVGet:
		q.Kind = query.KindKVGet
		// Three resident keys and one drawn at random, which may miss.
		q.Probes = []uint32{keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))],
			keys[rng.Intn(len(keys))], uint32(rng.Intn(1 << 16))}
	case clsSelect:
		q.Kind = query.KindRelSelect
		// A range a few dozen keys wide: a handful of matching rows.
		lo := uint32(rng.Intn(1<<16 - 256))
		q.Pred, q.Lo, q.Hi = query.PredRange, lo, lo+uint32(rng.Intn(128))
	case clsNear:
		q.Kind = query.KindNearBest
		q.Probes = []uint32{uint32(rng.Intn(1 << 16)), uint32(rng.Intn(1 << 16))}
	}
	return q
}

// referenceQuery computes a query's answer in plain Go, independent of
// the engine: first match for kv.get, signed range order for
// rel.select, lowest-index minimum Hamming distance for near.best.
func referenceQuery(q *query.Request) *query.Result {
	val := func(i int) uint32 {
		if i < len(q.Vals) {
			return q.Vals[i]
		}
		return 0
	}
	r := &query.Result{Kind: q.Kind, Rows: len(q.Keys)}
	switch q.Kind {
	case query.KindKVGet:
		for _, p := range q.Probes {
			l := query.Lookup{Index: -1}
			for i, k := range q.Keys {
				if k == p {
					l = query.Lookup{Found: true, Index: i, Val: val(i)}
					break
				}
			}
			r.Hits = append(r.Hits, l)
		}
	case query.KindRelSelect:
		for i, k := range q.Keys {
			if int32(k) >= int32(q.Lo) && int32(k) <= int32(q.Hi) {
				r.Indices = append(r.Indices, i)
			}
		}
	case query.KindNearBest:
		for _, p := range q.Probes {
			best := query.Match{Index: -1, Distance: math.MaxUint32}
			for i, k := range q.Keys {
				if d := uint32(bits.OnesCount32(k ^ p)); d < best.Distance {
					best = query.Match{Index: i, Key: k, Val: val(i), Distance: d}
				}
			}
			r.Matches = append(r.Matches, best)
		}
	}
	return r
}

// warmRequests returns one request per pool shard a workload uses. The
// set-up phase sends each until every machine of its shard is built and
// has been reset once.
func warmRequests(m mix) []server.Request {
	switch m.name {
	case wlFast:
		r := fastKernel
		r.Workload = "revidx"
		return []server.Request{r}
	case wlBit:
		r := bitKernel
		r.Workload = "revidx"
		return []server.Request{r}
	}
	var out []server.Request
	for _, c := range srcConfigs {
		c.Name = "tiny"
		c.Source = srcTemplates[0].source(srcLengths[0], 0)
		c.Registers = map[string]int64{"x11": 1, "x12": 2}
		out = append(out, c)
	}
	q := queryConfig
	q.Query = &query.Request{Kind: query.KindKVGet, Keys: []uint32{1, 2, 3}, Probes: []uint32{2}}
	return append(out, q)
}

// hitSources lists every distinct repeated program source, so a traced
// replay can compile them once before it measures.
func hitSources() []string {
	var out []string
	for _, t := range srcTemplates {
		for _, n := range srcLengths {
			out = append(out, t.source(n, 0))
		}
	}
	return out
}
