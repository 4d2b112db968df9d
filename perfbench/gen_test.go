package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cape/internal/core"
	"cape/internal/server"
)

func generate(t *testing.T, m mix, seed int64, seconds float64) []Job {
	t.Helper()
	jobs, err := Generate(m, seed, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func decode(t *testing.T, body []byte) server.Request {
	t.Helper()
	var req server.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	return req
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, m := range mixes {
		a, b := generate(t, m, 7, 2), generate(t, m, 7, 2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d jobs", m.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Class != b[i].Class {
				t.Fatalf("%s: job %d differs between two generations of one seed", m.name, i)
			}
		}
		c := generate(t, m, 8, 2)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].Body, c[i].Body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", m.name)
		}
	}
}

// TestMixShares checks every block against the stated composition, the
// majority class of the kernel mixes, and that the cache-miss jobs are
// the only source jobs outside the fixed program set.
func TestMixShares(t *testing.T) {
	hits := map[string]bool{}
	for _, s := range hitSources() {
		hits[s] = true
	}
	for _, m := range mixes {
		jobs := generate(t, m, 3, 5)
		bl := m.blockLen()
		if len(jobs)%bl != 0 || len(jobs) < minJobs {
			t.Fatalf("%s: %d jobs, want whole blocks of %d and at least %d", m.name, len(jobs), bl, minJobs)
		}
		for b := 0; b < len(jobs); b += bl {
			got := map[string]int{}
			for _, j := range jobs[b : b+bl] {
				got[j.Class]++
			}
			for _, s := range m.block {
				if got[s.class] != s.n {
					t.Fatalf("%s block %d: %d %s jobs, want %d", m.name, b/bl, got[s.class], s.class, s.n)
				}
			}
		}
		if m.name == wlFast || m.name == wlBit {
			if top := m.block[0]; 2*top.n <= bl {
				t.Errorf("%s: majority class %s is %d of %d", m.name, top.class, top.n, bl)
			}
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			req := decode(t, j.Body)
			switch j.Class {
			case clsSrcHit:
				if !hits[req.Source] {
					t.Errorf("%s job %d: cache-hit source outside the fixed set", m.name, j.Index)
				}
			case clsSrcMiss:
				if hits[req.Source] || seen[req.Source] {
					t.Errorf("%s job %d: cache-miss source is not unique", m.name, j.Index)
				}
				seen[req.Source] = true
			}
		}
	}
	small, _ := mixByName(wlSmall)
	miss := 0
	for _, s := range small.block {
		if s.class == clsSrcMiss {
			miss = s.n
		}
	}
	if miss != 3 || small.blockLen() != 20 {
		t.Errorf("small-jobs: %d misses per %d jobs, the documented share is 3/20", miss, small.blockLen())
	}
}

func TestEveryRequestCompiles(t *testing.T) {
	for _, m := range mixes {
		reqs := warmRequests(m)
		for _, j := range generate(t, m, 11, 1) {
			reqs = append(reqs, decode(t, j.Body))
		}
		for i, req := range reqs {
			if _, err := server.Compile(req, server.Options{}); err != nil {
				t.Fatalf("%s request %d: %v", m.name, i, err)
			}
		}
	}
}

// TestExpectationsMatchTheEngine runs one block of small-jobs on real
// machines (with small RAM) and checks the generator's expected dumps
// and Go reference query answers against what the simulator returns.
func TestExpectationsMatchTheEngine(t *testing.T) {
	m, _ := mixByName(wlSmall)
	jobs := generate(t, m, 5, 0)[:m.blockLen()]
	for _, j := range jobs {
		spec, err := server.Compile(decode(t, j.Body), server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec.Config.RAMBytes = 1 << 20
		resp, err := server.Exec(context.Background(), core.New(spec.Config), spec)
		if err != nil {
			t.Fatalf("job %d (%s): %v", j.Index, j.Class, err)
		}
		if err := verify(&j, resp); err != nil {
			t.Errorf("job %d (%s): %v", j.Index, j.Class, err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Job: 1, ID: 1, Start: 0, End: 10e6},
		{Name: "server.decode", Job: 1, ID: 2, Parent: 1, Start: 0, End: 1e6},
		{Name: "server.exec", Job: 1, ID: 3, Parent: 1, Start: 2e6, End: 8e6},
		{Name: "core.run_fast", Job: 1, ID: 4, Parent: 3, Start: 3e6, End: 7e6},
		{Name: "server.reset", Job: 1, ID: 5, Start: 10e6, End: 20e6},
	}
	want := map[string]float64{"job": 3, "server": 3, "core": 4}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}
