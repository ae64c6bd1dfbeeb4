package telemetry

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestConfigHashStable(t *testing.T) {
	// Checked-in value: the hash must be stable across runs, platforms
	// and Go versions, since manifests are compared between machines.
	const want = "453ad41dabbfd00d"
	if got := ConfigHash("village", "608x448", "30"); got != want {
		t.Errorf("ConfigHash = %q, want %q", got, want)
	}
	// Separator must make part boundaries unambiguous.
	if ConfigHash("ab", "c") == ConfigHash("a", "bc") {
		t.Error("ConfigHash collides across part boundaries")
	}
	if ConfigHash() == ConfigHash("") {
		t.Error("ConfigHash conflates zero parts with one empty part")
	}
}

func TestManifestWriteJSON(t *testing.T) {
	m := NewManifest("texsim -sweep")
	if m.GoVersion != runtime.Version() || m.GOMAXPROCS < 1 {
		t.Fatalf("environment not captured: %+v", m)
	}
	m.ConfigHash = ConfigHash("village")
	m.Workload = "village"
	m.Frames = 30
	m.Specs = []string{"pull-16k", "l2-4m"}
	m.Totals = RunTotals{FrameRecords: 60, TexelRefs: 1234}
	m.Phases = []PhaseStat{{
		Name: "frame", Count: 4, TotalNS: 20, MeanNS: 5, MaxNS: 8,
		MaxTrack: "render", PctOfRun: 0.5,
	}}

	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, sb.String())
	}
	if back.Tool != m.Tool || back.Totals != m.Totals || !reflect.DeepEqual(back.Phases, m.Phases) {
		t.Errorf("round trip = %+v, want %+v", back, m)
	}
	if !strings.Contains(sb.String(), `"phases"`) || !strings.Contains(sb.String(), `"max_track": "render"`) {
		t.Errorf("manifest JSON lacks the phases table:\n%s", sb.String())
	}
}
