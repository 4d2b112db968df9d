package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cape/internal/server"
)

// proc is one caped subprocess on a loopback port.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startCaped runs the caped binary with its default options plus the
// listen address and args. Its stderr (logs and the per-job JSON log)
// goes to logPath.
func startCaped(bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start caped: %w", err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: lf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState by callers that care
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the drain, and kills after a grace
// period. It returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// rssPeakKB reads the process's peak resident set (VmHWM).
func (p *proc) rssPeakKB() (int64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// topology is the set of caped processes one workload runs against.
type topology struct {
	procs     []*proc // stopped in reverse order
	jobsURL   string  // where clients submit
	healthURL string  // the server whose /healthz shows the executing pool
}

func (t *topology) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// rssPeakMB sums the peak resident sets of every process, in MiB.
func (t *topology) rssPeakMB() (float64, error) {
	var kb int64
	for _, p := range t.procs {
		v, err := p.rssPeakKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1, DisableCompression: true},
	}
}

// waitUp polls url until it answers 200, or the process exits.
func waitUp(c *http.Client, p *proc, url string, ready func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("caped exited during start-up (see %s)", p.log.Name())
		}
		resp, err := c.Get(url)
		if err == nil {
			b, _ := io.ReadAll(resp.Body) // a short read just means not ready yet
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ready == nil || ready(b)) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 30s", url)
}

// startTopology starts the servers of a workload: one standalone
// caped, or a coordinator with one worker registered behind it. On
// failure it reports the servers' state and stops them.
func startTopology(c *http.Client, bin, logDir string, m mix, n int) (*topology, error) {
	t := &topology{}
	if err := t.start(c, bin, logDir, m, n); err != nil {
		t.describe()
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *topology) start(c *http.Client, bin, logDir string, m mix, n int) error {
	logf := func(role string) string { return filepath.Join(logDir, fmt.Sprintf("%s-%s-%d.log", m.name, role, n)) }
	if !m.cluster {
		p, err := startCaped(bin, logf("caped"))
		if err != nil {
			return err
		}
		t.procs = append(t.procs, p)
		t.jobsURL, t.healthURL = p.url, p.url
		return waitUp(c, p, p.url+"/healthz", nil)
	}
	coord, err := startCaped(bin, logf("coordinator"), "-mode", "coordinator")
	if err != nil {
		return err
	}
	t.procs = append(t.procs, coord)
	if err := waitUp(c, coord, coord.url+"/healthz", nil); err != nil {
		return err
	}
	worker, err := startCaped(bin, logf("worker"), "-mode", "worker", "-coordinator", coord.url)
	if err != nil {
		return err
	}
	t.procs = append(t.procs, worker)
	t.jobsURL, t.healthURL = coord.url, worker.url
	// A caped worker registers before it starts listening, so the
	// coordinator may list it as healthy while its own endpoints still
	// refuse connections: wait for both.
	if err := waitUp(c, worker, worker.url+"/healthz", nil); err != nil {
		return err
	}
	oneHealthy := func(b []byte) bool {
		var st struct {
			Workers []struct {
				Healthy bool `json:"healthy"`
			} `json:"workers"`
		}
		return json.Unmarshal(b, &st) == nil && len(st.Workers) == 1 && st.Workers[0].Healthy
	}
	return waitUp(c, worker, coord.url+"/v1/cluster/status", oneHealthy)
}

// describe writes each server's state and the last lines of its log,
// other than the per-job log lines, to stderr, so that a failed run
// shows whether a server exited and what it logged.
func (t *topology) describe() {
	for _, p := range t.procs {
		state := "running"
		if p.exited() {
			state = p.cmd.ProcessState.String()
		}
		fmt.Fprintf(os.Stderr, "perfbench: server %s (%s): %s\n", p.log.Name(), p.url, state)
		b, err := os.ReadFile(p.log.Name())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			continue
		}
		var lines []string
		for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if l != "" && !strings.Contains(l, `"msg":"job"`) {
				lines = append(lines, l)
			}
		}
		for _, l := range lines[max(0, len(lines)-8):] {
			fmt.Fprintln(os.Stderr, "  ", l)
		}
	}
}

type healthz struct {
	Workers int `json:"workers"`
	Pool    []struct {
		Key     string `json:"key"`
		Created int    `json:"created"`
		Idle    int    `json:"idle"`
	} `json:"pool"`
}

func getHealth(c *http.Client, url string) (healthz, error) {
	var h healthz
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// warm sends each shard's warm-up request, as many at once as the
// server has executors, until the shard has built its full complement
// of machines; then it waits until every machine is back in the pool,
// which means each has been reset at least once. From then on the
// number of pooled machines, and so the resident memory, is fixed.
func warm(c *http.Client, t *topology, m mix) error {
	h, err := getHealth(c, t.healthURL)
	if err != nil {
		return err
	}
	for _, req := range warmRequests(m) {
		key, err := server.RoutingKey(req, server.Options{})
		if err != nil {
			return err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		for round := 0; ; round++ {
			var wg sync.WaitGroup
			errs := make([]error, h.Workers)
			for i := 0; i < h.Workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = post(c, t.jobsURL, body)
				}(i)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if h, err = getHealth(c, t.healthURL); err != nil {
				return err
			}
			if created(h, key) >= h.Workers {
				break
			}
			if round == 50 {
				return fmt.Errorf("warm-up: shard %s built %d of %d machines", key, created(h, key), h.Workers)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		idle := true
		for _, s := range h.Pool {
			idle = idle && s.Idle == s.Created
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("warm-up: pooled machines not returned within 30s")
		}
		time.Sleep(time.Millisecond)
		if h, err = getHealth(c, t.healthURL); err != nil {
			return err
		}
	}
}

func created(h healthz, key string) int {
	for _, s := range h.Pool {
		if s.Key == key {
			return s.Created
		}
	}
	return 0
}

// post submits one job body and returns the response body.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// runResult is what one closed-loop pass over a job sequence observed.
type runResult struct {
	latMS     []float64 // per completed job, in completion order
	classLat  map[string][]float64
	sims      []sim // per job, in sequence order
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	truncated bool
}

// drive sends the jobs from `clients` closed-loop clients: each client
// takes the next job of the sequence only after its previous one has
// answered. Every response is decoded and verified after its latency is
// taken. A run that overruns limit stops taking new jobs.
func drive(ctx context.Context, c *http.Client, url string, jobs []Job, clients int, limit time.Duration) runResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  = runResult{sims: make([]sim, len(jobs)), classLat: map[string][]float64{}}
	)
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if time.Since(start) > limit || ctx.Err() != nil {
					mu.Lock()
					res.truncated = true
					mu.Unlock()
					return
				}
				j := &jobs[i]
				t0 := time.Now()
				b, err := post(c, url, j.Body)
				lat := time.Since(t0)
				if err == nil {
					var resp server.Response
					if err = json.Unmarshal(b, &resp); err == nil {
						if err = verify(j, &resp); err == nil {
							res.sims[i] = simOf(&resp)
						}
					}
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("job %d (%s): %w", i, j.Class, err)
					}
				} else {
					ms := float64(lat.Nanoseconds()) / 1e6
					res.latMS = append(res.latMS, ms)
					res.classLat[j.Class] = append(res.classLat[j.Class], ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// setups is how many times a run sets its servers up; setup_s is the
// median, and the last set-up serves the measured run.
const setups = 5

// measure sets the topology up, runs the jobs against the last set-up,
// and returns the end-to-end metrics.
func measure(ctx context.Context, bin, logDir string, m mix, jobs []Job, seconds float64) (map[string]metric, runResult, error) {
	c := newClient(m.clients)
	defer c.CloseIdleConnections()
	var setupS []float64
	var t *topology
	for n := 0; n < setups; n++ {
		if ctx.Err() != nil {
			return nil, runResult{}, ctx.Err()
		}
		start := time.Now()
		var err error
		if t, err = startTopology(c, bin, logDir, m, n); err != nil {
			return nil, runResult{}, err
		}
		if err := warm(c, t, m); err != nil {
			t.describe()
			t.stop()
			return nil, runResult{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if n < setups-1 {
			t.stop()
			c.CloseIdleConnections()
		}
	}
	defer t.stop()
	// A safety valve for a host far slower than the reference: past
	// twice the nominal duration, stop taking new jobs.
	limit := time.Duration(max(3*seconds, 2*float64(len(jobs))/m.nominalJobsS) * float64(time.Second))
	res := drive(ctx, c, t.jobsURL, jobs, m.clients, limit)
	rss, err := t.rssPeakMB()
	if err != nil || res.firstErr != nil {
		t.describe()
	}
	if err != nil {
		return nil, res, err
	}
	lat := append([]float64(nil), res.latMS...)
	sort.Float64s(lat)
	out := map[string]metric{
		"latency_p50_ms": {percentile(lat, 50), "ms"},
		"latency_p90_ms": {percentile(lat, 90), "ms"},
		"jobs_s":         {float64(len(lat)) / res.wall.Seconds(), "1/s"},
		"setup_s":        {median(setupS), "s"},
		"rss_peak_mb":    {rss, "MiB"},
	}
	fmt.Printf("setups %s\n", fmtFloats(setupS, "%.3fs"))
	for _, c := range sortedKeys(res.classLat) {
		v := res.classLat[c]
		q1, q2, q3 := quartiles(v)
		fmt.Printf("class %-10s n=%-5d q1=%.2fms median=%.2fms q3=%.2fms\n", c, len(v), q1, q2, q3)
	}
	return out, res, nil
}
