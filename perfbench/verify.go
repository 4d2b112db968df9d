package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"

	"cape/internal/server"
)

// verify checks one response against what its job must produce.
func verify(j *Job, resp *server.Response) error {
	switch {
	case j.Workload:
		if resp.CheckOK == nil || !*resp.CheckOK {
			return fmt.Errorf("output check failed: %s", resp.CheckError)
		}
	case j.WantDump != nil:
		if !reflect.DeepEqual(resp.Memory, j.WantDump) {
			return fmt.Errorf("dump %v, want %v", head(resp.Memory), head(j.WantDump))
		}
	case j.WantQuery != nil:
		got := resp.Query
		if got == nil {
			return errors.New("no query result")
		}
		want := j.WantQuery
		if got.Kind != want.Kind || got.Rows != want.Rows || !reflect.DeepEqual(got.Hits, want.Hits) ||
			!reflect.DeepEqual(got.Indices, want.Indices) || !reflect.DeepEqual(got.Matches, want.Matches) {
			return errors.New("query result differs from the Go reference")
		}
	}
	return nil
}

func head(w []uint32) []uint32 {
	if len(w) > 4 {
		return w[:4]
	}
	return w
}

// sim is the modelled part of one response: cycles, CP instructions,
// energy and query work. Host timing never enters it, so the same seed
// gives the same sims on any host and on any commit that leaves the
// model unchanged.
type sim struct {
	Cycles, ScalarInsts, VectorInsts, TimePS int64
	EnergyPJ                                 float64
	MemBytes, Lookups, RowsScanned, QCycles  uint64
}

func simOf(resp *server.Response) sim {
	r := resp.Result
	s := sim{Cycles: r.CP.Cycles, ScalarInsts: r.CP.ScalarInsts, VectorInsts: r.CP.VectorInsts,
		TimePS: r.TimePS, EnergyPJ: r.EnergyPJ, MemBytes: r.MemBytes}
	if q := resp.Query; q != nil {
		s.Lookups, s.RowsScanned, s.QCycles = q.Stats.Lookups, q.Stats.RowsScanned, q.Stats.Cycles()
	}
	return s
}

// simDigest sums a run's sims (in sequence order) and hashes them.
type simDigest struct {
	Hash     string
	Cycles   int64
	Insts    int64
	EnergyPJ float64
	QCycles  uint64
}

func digestOf(sims []sim) simDigest {
	h := sha256.New()
	var d simDigest
	for i, s := range sims {
		fmt.Fprintf(h, "%d %+v\n", i, s)
		d.Cycles += s.Cycles
		d.Insts += s.ScalarInsts + s.VectorInsts
		d.EnergyPJ += s.EnergyPJ
		d.QCycles += s.QCycles
	}
	d.Hash = hex.EncodeToString(h.Sum(nil))[:16]
	return d
}

func (d simDigest) String() string {
	return fmt.Sprintf("digest %s modelled_cycles=%d cp_insts=%d energy_pj=%.6e query_cycles=%d",
		d.Hash, d.Cycles, d.Insts, d.EnergyPJ, d.QCycles)
}
