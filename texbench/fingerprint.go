package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// benchVersion changes whenever the benchmark's own method changes, so
// results and cached references of an older method are not reused.
const benchVersion = "texbench-2"

// Fingerprint identifies the machine and configuration behind a result.
// Two results compare only when every field matches.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	ConfigHash string `json:"config_hash"`
}

// MachineFingerprint reads this host's fingerprint for seed.
func MachineFingerprint(seed uint64) Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		ConfigHash: ConfigHash(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file is unreadable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// ConfigHash hashes everything that fixes what the benchmark measures:
// its version, every workload's scale and spec set, the jitter and the
// iteration policy.
func ConfigHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s jitter=%g iters=%d setups=%d calib=%d/%d/%d ref=%g share=%g sens=%g\n",
		benchVersion, jitterFrac, minIterations, setupRepsPerSample,
		calibSets, calibTableLen, calibBlock*calibBlocks, calibRefSeconds, calibShare, hostSensitivity)
	for _, d := range Defs() {
		fmt.Fprintf(h, "%s kind=%d %dx%dx%d\n", d.Name, d.Kind, d.Width, d.Height, d.Frames)
		for _, s := range d.Specs() {
			fmt.Fprintf(h, "  %s l1=%d ways=%d tlb=%d", s.Name, s.L1Bytes, s.L1Ways, s.TLBEntries)
			if s.L2 != nil {
				fmt.Fprintf(h, " l2=%+v", *s.L2)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// binaryHash hashes the running executable, so a cached reference is
// reused only by the build that computed it.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read-only
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// Mismatch names the first fingerprint field where a and b differ, or
// "" when they match.
func (a Fingerprint) Mismatch(b Fingerprint) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.ConfigHash != b.ConfigHash:
		return fmt.Sprintf("config %s vs %s", a.ConfigHash, b.ConfigHash)
	}
	return ""
}

// Compare writes one line per metric the two results share: the ratio
// new/old and a verdict. The verdict is "failed check" for every metric
// when either run failed its output check, "not comparable" when the
// fingerprints, workloads or run lengths differ, "worse" when the metric
// moved in its bad direction by more than its bound, and "ok"
// otherwise. It returns whether any metric got another verdict than ok.
func Compare(w io.Writer, old, cur *Result) (bad bool, err error) {
	why := old.Fingerprint.Mismatch(cur.Fingerprint)
	switch {
	case old.Workload != cur.Workload:
		why = fmt.Sprintf("workload %s vs %s", old.Workload, cur.Workload)
	case old.Seconds != cur.Seconds:
		why = fmt.Sprintf("run length %gs vs %gs", old.Seconds, cur.Seconds)
	}
	if why != "" {
		if _, err := fmt.Fprintf(w, "not comparable: %s\n", why); err != nil {
			return true, err
		}
	}
	failed := ""
	for _, r := range []*Result{old, cur} {
		if !r.Correct || r.Failed > 0 {
			failed = fmt.Sprintf("%s: %d of %d checks failed", r.RunID, r.Failed, r.Attempted)
			break
		}
	}
	if failed != "" {
		if _, err := fmt.Fprintf(w, "failed check: %s\n", failed); err != nil {
			return true, err
		}
	}
	for _, m := range metricTable {
		o, ok1 := old.Metrics[m.Name]
		c, ok2 := cur.Metrics[m.Name]
		if !ok1 || !ok2 {
			continue
		}
		ratio := 0.0
		if o.Value != 0 {
			ratio = c.Value / o.Value
		}
		verdict := "ok"
		switch {
		case failed != "":
			verdict = "failed check"
		case why != "":
			verdict = "not comparable"
		case m.Bound > 0 && o.Value != 0 && worse(m, o.Value, c.Value):
			verdict = "worse"
		}
		if verdict != "ok" {
			bad = true
		}
		if _, err := fmt.Fprintf(w, "%-30s %14.6g -> %14.6g %-8s x%.3f  %s\n",
			m.Name, o.Value, c.Value, m.Unit, ratio, verdict); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// worse reports whether cur is worse than old by more than m's bound.
func worse(m Metric, old, cur float64) bool {
	if m.Better == "lower" {
		return cur > old*(1+m.Bound)
	}
	return cur < old*(1-m.Bound)
}

// LoadResult reads a result file written by a run.
func LoadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("texbench: %s: %w", path, err)
	}
	return r, nil
}
