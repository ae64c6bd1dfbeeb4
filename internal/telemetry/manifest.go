// Run manifests: a sidecar record that makes every results file
// traceable to the run that produced it — which binary configuration,
// which environment, how much work. Manifests are observational output
// and may carry wall-clock phase timings; they are never read back by
// the simulator.
package telemetry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
)

// Manifest records the identity of one run.
type Manifest struct {
	// Tool names the producing command (e.g. "texsim -sweep").
	Tool string `json:"tool"`
	// ConfigHash fingerprints the run configuration (see ConfigHash).
	ConfigHash string `json:"config_hash"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Frames     int    `json:"frames"`
	// Specs lists the cache configurations of a comparison run.
	Specs []string `json:"specs,omitempty"`
	// Totals aggregates the run's metric stream.
	Totals RunTotals `json:"totals"`
	// Model carries the per-spec analytic-model report of a sweep run
	// that collected a reuse profile: which specs the model covered,
	// and its absolute error where an exact replay ran alongside.
	Model []SpecModelError `json:"model,omitempty"`
	// Phases carries the per-phase timing table of the run's textrace
	// (Trace.Report().Phases) when one was recorded.
	Phases []PhaseStat `json:"phases,omitempty"`
}

// SpecModelError is one sweep spec's entry in the manifest's model
// report. Modeled marks specs whose counters came from the analytic
// reuse model (the -fast sweep); Unreachable names why the model could
// not cover a spec; the error fields compare model against exact replay
// when both ran (HasExact), in absolute rate terms.
type SpecModelError struct {
	Spec        string  `json:"spec"`
	Modeled     bool    `json:"modeled"`
	Unreachable string  `json:"unreachable,omitempty"`
	HasExact    bool    `json:"has_exact"`
	L1HitAbsErr float64 `json:"l1_hit_abs_err"`
	// L2FullHitAbsErr compares full-hit rates conditioned on an L1 miss,
	// the paper's reporting convention.
	L2FullHitAbsErr float64 `json:"l2_full_hit_abs_err"`
}

// NewManifest returns a manifest pre-filled with the environment: the
// running Go version and effective GOMAXPROCS.
func NewManifest(tool string) Manifest {
	return Manifest{
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ConfigHash fingerprints a run configuration: FNV-1a over the canonical
// parts (workload, resolution, frame count, cache parameters, ...)
// joined with an unambiguous separator. Identical configurations hash
// identically across runs and machines; the hash deliberately excludes
// anything environmental, which the manifest records alongside it.
func ConfigHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		// The writes cannot fail on a hash; ignore via the blank writer
		// contract of io.WriteString on hash.Hash.
		_, _ = io.WriteString(h, p)
		_, _ = h.Write([]byte{0x1f})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
