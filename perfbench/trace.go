package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cape/internal/asm"
	"cape/internal/cluster"
	"cape/internal/core"
	"cape/internal/server"
	"cape/internal/telemetry"
	"cape/internal/ucode"
)

// span is one timed public call on a job's path. Spans of one job share
// Job; Parent is the causing span's ID, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. The nil tracer
// records nothing, which is the untraced replay.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.t0))
}

func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

func (tr *tracer) add(s span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// do runs f inside a span named name; f receives the span's ID so the
// calls it makes can name it as their parent.
func (tr *tracer) do(name string, job int, parent int64, f func(id int64)) {
	if tr == nil {
		f(0)
		return
	}
	id := tr.newID()
	start := tr.now()
	f(id)
	tr.add(span{Name: name, Job: job, ID: id, Parent: parent, Start: start, End: tr.now()})
}

// replay runs a job sequence in-process along the path caped serves it:
// decode, compile through the program cache, queue, pool get, execute
// (build, run, check), reply and encode, then reset the machine after
// the reply. Each step is the same public call the server makes, so a
// span around it times that layer.
type replay struct {
	opts  server.Options
	pool  *server.Pool
	queue chan *task
	wg    sync.WaitGroup
}

type task struct {
	job   int
	root  int64
	spec  *server.Spec
	enq   time.Time
	enqNS int64
	tr    *tracer
	done  chan taskDone
}

type taskDone struct {
	resp *server.Response
	err  error
}

func newReplay() *replay {
	opts := server.Options{AsmCache: asm.NewCache(0)}
	workers := runtime.GOMAXPROCS(0) // caped's default executor count and pool shard size
	r := &replay{opts: opts, pool: server.NewPool(workers), queue: make(chan *task, 256)}
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.executor()
	}
	return r
}

func (r *replay) close() {
	close(r.queue)
	r.wg.Wait()
}

// warm builds and resets every machine of the shards the jobs use, and
// compiles each repeated program once, as caped's warm-up does.
func (r *replay) warm(ctx context.Context, m mix) error {
	for _, src := range hitSources() {
		if _, err := r.opts.AsmCache.Assemble("tiny", src, r.opts.Asm); err != nil {
			return err
		}
	}
	for _, req := range warmRequests(m) {
		spec, err := server.Compile(req, r.opts)
		if err != nil {
			return err
		}
		var ms []*core.Machine
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			mc, err := r.pool.Get(ctx, spec.Config)
			if err != nil {
				return err
			}
			ms = append(ms, mc)
		}
		for _, mc := range ms {
			r.pool.Put(spec.Config, mc)
		}
	}
	return nil
}

// executor mirrors caped's worker loop: the reply goes out before the
// machine is reset and returned to the pool.
func (r *replay) executor() {
	defer r.wg.Done()
	for t := range r.queue {
		tr := t.tr
		queueNS := time.Since(t.enq).Nanoseconds()
		tr.add(span{Name: "server.queue", Job: t.job, ID: tr.newID(), Parent: t.root, Start: t.enqNS, End: tr.now()})
		var m *core.Machine
		var err error
		tr.do("server.pool_get", t.job, t.root, func(int64) {
			m, err = r.pool.Get(context.Background(), t.spec.Config)
		})
		if err != nil {
			t.done <- taskDone{err: err}
			continue
		}
		var resp *server.Response
		tr.do("server.exec", t.job, t.root, func(id int64) {
			resp, err = execTraced(m, t.spec, tr, t.job, id)
		})
		if resp != nil {
			resp.QueueNS = queueNS
			resp.TotalNS = time.Since(t.enq).Nanoseconds()
		}
		t.done <- taskDone{resp: resp, err: err}
		tr.do("server.reset", t.job, 0, func(int64) { r.pool.Put(t.spec.Config, m) })
	}
}

// execTraced is server.Exec split at its public calls: workload build,
// the machine run, the output check, and the dump read. Query jobs run
// whole through server.Exec, which drives the query engine.
func execTraced(m *core.Machine, spec *server.Spec, tr *tracer, job int, parent int64) (*server.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), spec.Timeout)
	defer cancel()
	if spec.Query != nil {
		var resp *server.Response
		var err error
		tr.do("query.run", job, parent, func(int64) { resp, err = server.Exec(ctx, m, spec) })
		return resp, err
	}
	m.CP().SetMaxInsts(spec.MaxInsts)
	prog := spec.Prog
	var err error
	if spec.Workload != nil {
		tr.do("workloads.build", job, parent, func(int64) { prog, err = spec.Workload.BuildCAPE(m) })
		if err != nil {
			return nil, err
		}
	}
	for reg, v := range spec.Registers {
		m.CP().SetX(reg, v)
	}
	run := "core.run_fast"
	if spec.BackendName == "bitlevel" {
		run = "core.run_bit"
	}
	var res core.Result
	start := time.Now()
	tr.do(run, job, parent, func(int64) { res, err = m.RunContext(ctx, prog) })
	if err != nil {
		return nil, err
	}
	resp := &server.Response{
		Program: prog.Name, Config: spec.Config.Name, Chains: spec.Config.Chains, Backend: spec.BackendName,
		Result: res, SimSeconds: res.Seconds(), RunNS: time.Since(start).Nanoseconds(),
	}
	if spec.Workload != nil {
		var cerr error
		tr.do("workloads.check", job, parent, func(int64) { cerr = spec.Workload.Check(m) })
		ok := cerr == nil
		if cerr != nil {
			resp.CheckError = cerr.Error()
		}
		resp.CheckOK = &ok
	}
	if d := spec.Dump; d != nil {
		resp.Memory = m.RAM().ReadWords(d.Addr, d.Words)
	}
	return resp, nil
}

// replayResult is what one replay pass observed.
type replayResult struct {
	latMS     []float64
	sims      []sim
	respBytes int64
	failed    int
	firstErr  error
}

// run replays jobs from `clients` closed-loop clients, the client side
// of each job being decode → compile → enqueue → wait → encode.
func (r *replay) run(jobs []Job, clients int, tr *tracer) replayResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  = replayResult{sims: make([]sim, len(jobs))}
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				n, resp, lat, err := r.one(j, tr)
				if err == nil {
					err = verify(j, resp)
				}
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("job %d (%s): %w", j.Index, j.Class, err)
					}
				} else {
					res.latMS = append(res.latMS, lat)
					res.sims[i] = simOf(resp)
					res.respBytes += int64(n)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

func (r *replay) one(j *Job, tr *tracer) (int, *server.Response, float64, error) {
	t0 := time.Now()
	root := tr.newID()
	rootStart := tr.now()
	var req server.Request
	var err error
	tr.do("server.decode", j.Index, root, func(int64) {
		dec := json.NewDecoder(bytes.NewReader(j.Body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return 0, nil, 0, err
	}
	var spec *server.Spec
	compile := "server.compile"
	if req.Source != "" {
		compile = "asm.compile"
	}
	tr.do(compile, j.Index, root, func(int64) { spec, err = server.Compile(req, r.opts) })
	if err != nil {
		return 0, nil, 0, err
	}
	t := &task{job: j.Index, root: root, spec: spec, enq: time.Now(), enqNS: tr.now(), tr: tr, done: make(chan taskDone, 1)}
	r.queue <- t
	d := <-t.done
	if d.err != nil {
		return 0, nil, 0, d.err
	}
	var b []byte
	tr.do("server.encode", j.Index, root, func(int64) { b, err = json.Marshal(d.resp) })
	if err != nil {
		return 0, nil, 0, err
	}
	tr.add(span{Name: "job", Job: j.Index, ID: root, Start: rootStart, End: tr.now()})
	return len(b), d.resp, float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

// counters is a snapshot of the public statistics the per-layer
// metrics take deltas of.
type counters struct {
	perf  telemetry.PerfCounters
	ucode ucode.CacheStats
	asm   asm.CacheStats
	mem   runtime.MemStats
}

func (r *replay) snapshot() counters {
	var c counters
	for _, s := range r.pool.Stats() {
		c.perf.Add(s.Perf)
		c.ucode.Hits += s.Ucode.Hits
		c.ucode.Misses += s.Ucode.Misses
	}
	c.asm = r.opts.AsmCache.Stats()
	runtime.ReadMemStats(&c.mem)
	return c
}

// traced runs the per-layer measurement of a workload: the job
// sequence is split into two halves of whole blocks with the same
// composition; the first is replayed untraced, the second traced, and
// counter deltas are taken over the traced half. cluster-small then
// also times each job through an in-process coordinator against a
// direct submit to the worker behind it.
func traced(ctx context.Context, m mix, jobs []Job, spanPath string) (map[string]metric, int, int, []sim, error) {
	out, spans, failed, sims, err := replayTraced(ctx, m, jobs)
	if err != nil {
		return nil, len(jobs), failed, nil, err
	}
	if m.cluster {
		// The replay's machines are garbage by now; return their memory
		// before the cluster builds its own.
		runtime.GC()
		debug.FreeOSMemory()
		hops, err := clusterHop(ctx, m, jobs[:min(len(jobs), 100)])
		if err != nil {
			return nil, len(jobs), failed + 1, nil, err
		}
		for k, v := range hops.metrics {
			out[k] = v
		}
		spans = append(spans, hops.spans...)
	}
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, len(jobs), failed, nil, err
	}
	return out, len(jobs), failed, sims, nil
}

// replayTraced replays the untraced and the traced half and derives the
// per-layer metrics of everything but the cluster hop.
func replayTraced(ctx context.Context, m mix, jobs []Job) (map[string]metric, []span, int, []sim, error) {
	half := m.blockLen() * ((len(jobs) / m.blockLen()) / 2)
	if half == 0 {
		half = len(jobs) / 2
	}
	off, on := jobs[:half], jobs[half:]
	r := newReplay()
	if err := r.warm(ctx, m); err != nil {
		r.close()
		return nil, nil, 0, nil, err
	}
	plain := r.run(off, m.clients, nil)
	before := r.snapshot()
	tr := newTracer()
	tres := r.run(on, m.clients, tr)
	after := r.snapshot()
	r.close()
	failed := plain.failed + tres.failed
	if err := errors.Join(plain.firstErr, tres.firstErr); err != nil {
		return nil, nil, failed, nil, err
	}
	sims := append(plain.sims[:half:half], tres.sims...)

	n := float64(len(on))
	perCall := spanMeans(tr.spans)
	pc := func(name string) float64 { return perCall[name].mean }
	dMicroops := after.perf.MicroopsTotal - before.perf.MicroopsTotal
	dWords := after.perf.WordsEvaluated - before.perf.WordsEvaluated
	dMemInsts := after.perf.VectorMem - before.perf.VectorMem
	dHBM := after.perf.HBMBytes - before.perf.HBMBytes
	var insts, rows, queries float64
	for i, s := range tres.sims {
		insts += float64(s.ScalarInsts + s.VectorInsts)
		if on[i].WantQuery != nil {
			rows += float64(s.RowsScanned)
			queries++
		}
	}
	runS := (perCall["core.run_fast"].total + perCall["core.run_bit"].total) / 1e3
	// Query jobs run bit-level (queryConfig), so their run time is CSB
	// time too.
	bitNS := (perCall["core.run_bit"].total + perCall["query.run"].total) * 1e6
	plainLat := append([]float64(nil), plain.latMS...)
	sort.Float64s(plainLat)
	tracedLat := append([]float64(nil), tres.latMS...)
	sort.Float64s(tracedLat)
	self := selfTimes(tr.spans)

	out := map[string]metric{
		"server.decode_ms":           {pc("server.decode"), "ms"},
		"server.encode_ms":           {pc("server.encode"), "ms"},
		"server.resp_kb":             {float64(tres.respBytes) / n / 1024, "KiB"},
		"server.queue_ms":            {pc("server.queue"), "ms"},
		"server.pool_get_ms":         {pc("server.pool_get"), "ms"},
		"server.reset_ms":            {pc("server.reset"), "ms"},
		"asm.compile_ms":             {pc("asm.compile"), "ms"},
		"asm.cache_hit_ratio":        {ratio(after.asm.Hits-before.asm.Hits, after.asm.Misses-before.asm.Misses), "ratio"},
		"workloads.build_ms":         {pc("workloads.build"), "ms"},
		"workloads.check_ms":         {pc("workloads.check"), "ms"},
		"runtime.alloc_mb_per_job":   {float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / n / (1 << 20), "MiB"},
		"runtime.gc_per_job":         {float64(after.mem.NumGC-before.mem.NumGC) / n, "count"},
		"core.run_fast_ms":           {pc("core.run_fast"), "ms"},
		"core.run_bit_ms":            {pc("core.run_bit"), "ms"},
		"cp.insts_per_job":           {insts / n, "count"},
		"cp.sim_minsts_s":            {safeDiv(insts, runS) / 1e6, "M/s"},
		"csb.microops_per_job":       {float64(dMicroops) / n, "count"},
		"csb.words_per_job":          {float64(dWords) / n, "count"},
		"csb.ns_per_word":            {safeDiv(bitNS, float64(dWords)), "ns"},
		"ucode.hit_ratio":            {ratio(after.ucode.Hits-before.ucode.Hits, after.ucode.Misses-before.ucode.Misses), "ratio"},
		"vmu.mem_insts_per_job":      {float64(dMemInsts) / n, "count"},
		"vmu.hbm_bytes_per_job":      {float64(dHBM) / n, "B"},
		"query.run_ms":               {pc("query.run"), "ms"},
		"query.rows_scanned_per_job": {safeDiv(rows, queries), "count"},
		"trace.overhead_ratio":       {safeDiv(percentile(tracedLat, 50), percentile(plainLat, 50)), "ratio"},
		"trace.job_ms":               {pc("job"), "ms"},
		"trace.uncovered_ms":         {self["job"], "ms"},
		"server.self_ms":             {self["server"], "ms"},
		"asm.self_ms":                {self["asm"], "ms"},
		"workloads.self_ms":          {self["workloads"], "ms"},
		"core.self_ms":               {self["core"], "ms"},
		"query.self_ms":              {self["query"], "ms"},
		"cluster.hop_ms":             {0, "ms"},
		"cluster.batches_per_job":    {0, "count"},
		"cluster.rerouted":           {0, "count"},
	}
	return out, tr.spans, failed, sims, nil
}

type callStats struct {
	calls int
	total float64 // ms
	mean  float64 // ms per call
}

// spanMeans sums span durations by name.
func spanMeans(spans []span) map[string]callStats {
	out := map[string]callStats{}
	for _, s := range spans {
		c := out[s.Name]
		c.calls++
		c.total += float64(s.End-s.Start) / 1e6
		out[s.Name] = c
	}
	for k, c := range out {
		c.mean = c.total / float64(c.calls)
		out[k] = c
	}
	return out
}

// selfTimes returns, per layer (the span name up to its first dot, or
// "job" for the root), the mean self time per job in ms: a span's
// duration minus the part of it its children cover. Only spans inside
// a job's latency count, so the post-reply reset is left out; the
// job's own self time is the latency no layer span accounts for.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	inJob := map[int64]bool{}
	jobs := 0
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Name == "job" {
			jobs++
		}
	}
	for _, s := range spans {
		if s.Name == "job" {
			markJob(s.ID, children, inJob)
			inJob[s.ID] = true
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if !inJob[s.ID] {
			continue
		}
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		out[layer] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	for k := range out {
		out[k] /= float64(max(jobs, 1))
	}
	return out
}

func markJob(id int64, children map[int64][]span, in map[int64]bool) {
	for _, c := range children[id] {
		in[c.ID] = true
		markJob(c.ID, children, in)
	}
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, cs []span) int64 {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type hopResult struct {
	metrics map[string]metric
	spans   []span
}

// clusterHop times each job once through Coordinator.Route and once by
// a direct Submit to the worker's server, one job at a time, against an
// in-process coordinator and worker on loopback HTTP with default
// options. The difference is what the coordinator hop costs a job.
func clusterHop(ctx context.Context, m mix, jobs []Job) (hopResult, error) {
	var res hopResult
	local := server.New(server.Options{})
	defer local.Close()
	coord := cluster.NewCoordinator(local, cluster.CoordinatorOptions{})
	defer coord.Close()
	cURL, stopC, err := serveLoopback(coord.Handler())
	if err != nil {
		return res, err
	}
	defer stopC()
	wsrv := server.New(server.Options{})
	defer wsrv.Close()
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	w := cluster.NewWorker(wsrv, cluster.WorkerOptions{ID: "w1", AdvertiseURL: "http://" + wln.Addr().String(), CoordinatorURL: cURL})
	hs := &http.Server{Handler: w.Handler()}
	go hs.Serve(wln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	defer hs.Shutdown(context.Background())
	w.Start()
	defer w.Close()
	for deadline := time.Now().Add(10 * time.Second); coord.WorkerCount() < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return res, errors.New("cluster: worker did not register")
		}
	}
	for _, req := range warmRequests(m) {
		var wg sync.WaitGroup
		for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
			wg.Add(1)
			go func() { defer wg.Done(); coord.Route(ctx, req) }()
		}
		wg.Wait()
	}
	reg := local.Registry()
	batches := reg.Counter("caped_cluster_batches_total", "Batch envelopes sent to workers.", nil)
	rerouted := reg.Counter("caped_cluster_jobs_rerouted_total",
		"Jobs that ran on a worker other than their ring primary (spill or retry).", nil)
	r0 := rerouted.Value()
	tr := newTracer()
	var hops []float64
	for _, j := range jobs {
		// Each timed call starts on an idle worker: no post-reply reset
		// of the previous job may hold a processor.
		if err := quiesce(ctx, wsrv); err != nil {
			return res, err
		}
		var req server.Request
		if err := json.Unmarshal(j.Body, &req); err != nil {
			return res, err
		}
		var routed, direct *server.Response
		var jerr *cluster.JobError
		var derr error
		var routeNS, directNS int64
		tr.do("cluster.route", j.Index, 0, func(int64) {
			t := time.Now()
			routed, jerr = coord.Route(ctx, req)
			routeNS = time.Since(t).Nanoseconds()
		})
		if jerr != nil {
			return res, fmt.Errorf("job %d routed: %s", j.Index, jerr.Error)
		}
		if err := quiesce(ctx, wsrv); err != nil {
			return res, err
		}
		tr.do("server.submit", j.Index, 0, func(int64) {
			t := time.Now()
			direct, derr = wsrv.Submit(ctx, req)
			directNS = time.Since(t).Nanoseconds()
		})
		if derr != nil {
			return res, fmt.Errorf("job %d direct: %w", j.Index, derr)
		}
		if err := errors.Join(verify(&j, routed), verify(&j, direct)); err != nil {
			return res, fmt.Errorf("job %d (%s): %w", j.Index, j.Class, err)
		}
		if simOf(routed) != simOf(direct) {
			return res, fmt.Errorf("job %d: routed and direct results differ", j.Index)
		}
		hops = append(hops, float64(routeNS-directNS)/1e6)
	}
	// Batches form only when jobs overlap, so count them over the same
	// jobs sent by the workload's clients at once.
	b1 := batches.Value()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, m.clients)
	for k := 0; k < m.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				var req server.Request
				if err := json.Unmarshal(jobs[i].Body, &req); err != nil {
					errs[k] = err
					return
				}
				resp, jerr := coord.Route(ctx, req)
				if jerr != nil {
					errs[k] = fmt.Errorf("job %d routed: %s", jobs[i].Index, jerr.Error)
					return
				}
				if err := verify(&jobs[i], resp); err != nil {
					errs[k] = fmt.Errorf("job %d (%s): %w", jobs[i].Index, jobs[i].Class, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	sort.Float64s(hops)
	res.metrics = map[string]metric{
		"cluster.hop_ms":          {percentile(hops, 50), "ms"},
		"cluster.batches_per_job": {float64(batches.Value()-b1) / float64(len(jobs)), "count"},
		"cluster.rerouted":        {float64(rerouted.Value() - r0), "count"},
	}
	res.spans = tr.spans
	return res, nil
}

// quiesce waits until every machine of srv's pool is back, reset.
func quiesce(ctx context.Context, srv *server.Server) error {
	for {
		idle := srv.InflightJobs() == 0
		for _, s := range srv.Pool().Stats() {
			idle = idle && s.Idle == s.Created
		}
		if idle {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// serveLoopback serves h on a fresh loopback port.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	return "http://" + ln.Addr().String(), func() { hs.Shutdown(context.Background()) }, nil
}

func ratio(hits, misses uint64) float64 {
	return safeDiv(float64(hits), float64(hits+misses))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
