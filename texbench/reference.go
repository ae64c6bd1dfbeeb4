package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/model/reusemodel"
	"texcache/internal/workload"
)

// rateTolerance is the absolute bound on a modeled L1 or L2 full-hit
// rate against the exact reference, the bound TestModelErrorBound pins.
const rateTolerance = 0.02

// Reference is the exact per-seed answer a workload's timed runs are
// checked against. It comes from core.Run, the single-spec simulator,
// one spec at a time, so it shares no code with the sweep engines.
type Reference struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Key identifies the binary and benchmark config that computed it.
	Key string `json:"key"`
	// Digest is the SHA-256 prefix of the recorded texel stream.
	Digest string `json:"digest"`
	// Refs is the number of texel references in the stream.
	Refs   int64            `json:"refs"`
	Specs  []string         `json:"specs"`
	Totals []cache.Counters `json:"totals"`
}

// refJob is one unit of reference work and the slot it fills.
type refJob struct {
	spec   int // index into the spec list; -1 records the digest
	totals cache.Counters
	digest string
	err    error
}

// ComputeReference simulates every spec of the workload with core.Run
// and records the stream digest, on at most
// GOMAXPROCS goroutines. Each goroutine builds its own instance of the
// workload, because texture-set preparation is not safe to share.
func ComputeReference(d Def, seed uint64, key string) (*Reference, error) {
	specs := d.Specs()
	jobs := make([]refJob, 0, len(specs)+1)
	jobs = append(jobs, refJob{spec: -1})
	for i := range specs {
		jobs = append(jobs, refJob{spec: i})
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w := d.Instantiate(seed)
			for j := wk; j < len(jobs); j += workers {
				runRefJob(d, w, specs, &jobs[j])
			}
		}(wk)
	}
	wg.Wait()

	ref := &Reference{
		Workload: d.Name, Seed: seed, Key: key,
		Specs:  make([]string, len(specs)),
		Totals: make([]cache.Counters, len(specs)),
	}
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("texbench: reference %s seed %d: %w", d.Name, seed, j.err)
		}
		if j.spec < 0 {
			ref.Digest = j.digest
			continue
		}
		ref.Specs[j.spec] = specs[j.spec].Name
		ref.Totals[j.spec] = j.totals
	}
	ref.Refs = ref.Totals[0].L1.Accesses
	return ref, nil
}

// runRefJob fills one job's slot.
func runRefJob(d Def, w *workload.Workload, specs []core.CacheSpec, j *refJob) {
	if j.spec < 0 {
		j.digest, j.err = StreamDigest(d, w)
		return
	}
	res, err := core.Run(w, d.SpecConfig(specs[j.spec]))
	if err == nil {
		j.totals = res.Totals
	}
	j.err = err
}

// ModelErrPP returns the largest absolute error, in percentage points,
// of the modeled L1 hit and L2 full-hit rates of cmp against the exact
// totals, over every spec the model reached; 0 with no modeled spec.
func ModelErrPP(cmp *core.Comparison, exact []cache.Counters) float64 {
	worst := 0.0
	if cmp == nil {
		return worst
	}
	for i, m := range cmp.Model {
		if !m.Modeled || m.Pred == nil {
			continue
		}
		e := reusemodel.Compare(*m.Pred, exact[i])
		worst = max(worst, 100*e.L1AbsErr, 100*e.L2AbsErr)
	}
	return worst
}

// refPath is where the reference of (workload, seed, key) is cached.
func refPath(dir, name string, seed uint64, key string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", name, seed, key))
}

// LoadReference reads a cached reference; ok is false when none exists
// for this key.
func LoadReference(dir, name string, seed uint64, key string) (ref *Reference, ok bool, err error) {
	data, err := os.ReadFile(refPath(dir, name, seed, key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	ref = &Reference{}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, false, fmt.Errorf("texbench: reference %s: %w", refPath(dir, name, seed, key), err)
	}
	if ref.Key != key || ref.Seed != seed || ref.Workload != name {
		return nil, false, nil
	}
	return ref, true, nil
}

// SaveReference writes the reference atomically into dir.
func SaveReference(dir string, ref *Reference) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	path := refPath(dir, ref.Workload, ref.Seed, ref.Key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// counterFields lists every counter of c by name, in a fixed order.
func counterFields(c cache.Counters) []struct {
	name string
	v    int64
} {
	return []struct {
		name string
		v    int64
	}{
		{"L1.Accesses", c.L1.Accesses},
		{"L1.Misses", c.L1.Misses},
		{"L2.FullHits", c.L2.FullHits},
		{"L2.PartialHits", c.L2.PartialHits},
		{"L2.FullMisses", c.L2.FullMisses},
		{"L2.Evictions", c.L2.Evictions},
		{"L2.SearchSteps", c.L2.SearchSteps},
		{"L2.MaxSearch", int64(c.L2.MaxSearch)},
		{"TLB.Lookups", c.TLB.Lookups},
		{"TLB.Hits", c.TLB.Hits},
		{"HostBytes", c.HostBytes},
		{"L2ReadBytes", c.L2ReadBytes},
		{"L2WriteBytes", c.L2WriteBytes},
	}
}

// DiffExact compares two counter sets field by field and describes
// every mismatch; nil means equal.
func DiffExact(got, want cache.Counters) []string {
	g, w := counterFields(got), counterFields(want)
	var out []string
	for i := range g {
		if g[i].v != w[i].v {
			out = append(out, fmt.Sprintf("%s = %d, want %d", g[i].name, g[i].v, w[i].v))
		}
	}
	return out
}

// DiffModeled checks a modeled result: TLB statistics are simulated
// exactly inside the probe and must match; the L1 hit and L2 full-hit
// rates must fall within rateTolerance of the exact reference.
func DiffModeled(got, want cache.Counters) []string {
	var out []string
	if got.TLB != want.TLB {
		out = append(out, fmt.Sprintf("TLB = %+v, want %+v", got.TLB, want.TLB))
	}
	if d := abs(got.L1.HitRate() - want.L1.HitRate()); d > rateTolerance {
		out = append(out, fmt.Sprintf("L1 hit rate %.4f, exact %.4f", got.L1.HitRate(), want.L1.HitRate()))
	}
	if d := abs(got.L2.FullHitRate() - want.L2.FullHitRate()); d > rateTolerance {
		out = append(out, fmt.Sprintf("L2 full-hit rate %.4f, exact %.4f", got.L2.FullHitRate(), want.L2.FullHitRate()))
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
