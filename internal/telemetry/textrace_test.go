package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// stepClock is a non-deterministic-marked test clock: each reading
// advances by a fixed step, giving reproducible wall-regime recordings
// without marking the trace canonical.
type stepClock struct {
	ns   int64
	step int64
}

func (c *stepClock) Now() int64 {
	c.ns += c.step
	return c.ns
}

func TestTraceRegimeDetection(t *testing.T) {
	if tr := NewTrace(&FakeClock{Step: 1}); !tr.Canonical() {
		t.Fatal("FakeClock trace should be canonical")
	}
	if tr := NewTrace(&stepClock{step: 1}); tr.Canonical() {
		t.Fatal("stepClock trace should be wall-regime")
	}
	if tr := NewTrace(NewWallClock()); tr.Canonical() {
		t.Fatal("WallClock trace should be wall-regime")
	}
	var nilTrace *Trace
	if nilTrace.Canonical() {
		t.Fatal("nil trace is not canonical")
	}
}

func TestTraceNewTracePanicsWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTrace(nil) should panic")
		}
	}()
	NewTrace(nil)
}

func TestTextraceNilSafety(t *testing.T) {
	var tr *Trace
	k := tr.Track("render")
	c := tr.Counter("frames")
	if k != nil || c != nil {
		t.Fatal("nil trace must yield nil handles")
	}
	r := k.Begin("render", "frame", 0)
	r.End()
	k.Instant("", "publish", 1, "x")
	c.Add(5)
	c.Set(7)
	c.Sample(0, 1)
	c.Gauge(0)
	if c.Value() != 0 {
		t.Fatal("nil counter Value should be 0")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"traceEvents\":[]}\n" {
		t.Fatalf("nil trace export = %q", got)
	}
	if tr.Report() != nil {
		t.Fatal("nil trace report should be nil")
	}
}

// TestTextraceDisabledAllocFree pins the acceptance criterion: every
// recording call on disabled (nil) handles is allocation-free.
func TestTextraceDisabledAllocFree(t *testing.T) {
	var tr *Trace
	k := tr.Track("render")
	c := tr.Counter("frames")
	allocs := testing.AllocsPerRun(1000, func() {
		r := k.Begin("render", "frame", 3)
		k.Instant("", "publish", 3, "")
		c.Add(1)
		c.Set(2)
		_ = c.Value()
		c.Sample(3, 4)
		c.Gauge(3)
		r.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled emit path allocates %.1f per op, want 0", allocs)
	}
}

func TestTrackRegistryShared(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	if tr.Track("a") != tr.Track("a") {
		t.Fatal("same name must return the same track")
	}
	if tr.Counter("c") != tr.Counter("c") {
		t.Fatal("same name must return the same counter")
	}
	if tr.Track("a") == tr.Track("b") {
		t.Fatal("distinct names must return distinct tracks")
	}
}

func TestCounterLiveValue(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	c := tr.Counter("bytes")
	c.Add(10)
	c.Add(-3)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	c.Set(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterGaugeSuppressedInCanonical(t *testing.T) {
	canon := NewTrace(&FakeClock{Step: 1})
	c := canon.Counter("depth")
	c.Set(9)
	c.Gauge(0)
	if n := len(c.snapshotSamples()); n != 0 {
		t.Fatalf("canonical Gauge recorded %d samples, want 0", n)
	}
	c.Sample(0, 5)
	if n := len(c.snapshotSamples()); n != 1 {
		t.Fatalf("canonical Sample recorded %d samples, want 1", n)
	}

	wall := NewTrace(&stepClock{step: 1})
	wc := wall.Counter("depth")
	wc.Set(9)
	wc.Gauge(0)
	s := wc.snapshotSamples()
	if len(s) != 1 || s[0].value != 9 {
		t.Fatalf("wall Gauge samples = %+v, want one sample of 9", s)
	}
}

// TestTextraceConcurrentRecording exercises the registry under -race: N
// goroutines each own a track and hammer shared counters while the main
// goroutine snapshots and exports concurrently.
func TestTextraceConcurrentRecording(t *testing.T) {
	const workers = 8
	const spans = 200
	tr := NewTrace(&FakeClock{Step: 3})
	shared := tr.Counter("shared")
	mon := NewMonitor(tr, spans)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := tr.Track(fmt.Sprintf("worker %d", g))
			for i := 0; i < spans; i++ {
				r := k.Begin("work", "frame", int64(i))
				shared.Add(1)
				shared.Gauge(int64(i))
				k.Instant("", "edge", int64(i), "x")
				tr.Counter("late").Sample(int64(i), int64(i))
				r.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = mon.Snapshot()
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("concurrent export: %v", err)
				return
			}
			_ = tr.Report()
		}
	}()
	wg.Wait()
	<-done

	if got := shared.Value(); got != workers*spans {
		t.Fatalf("shared counter = %d, want %d", got, workers*spans)
	}
	for g := 0; g < workers; g++ {
		k := tr.Track(fmt.Sprintf("worker %d", g))
		nspans, _, open := k.status()
		if nspans != spans {
			t.Fatalf("worker %d closed %d spans, want %d", g, nspans, spans)
		}
		if open != "" {
			t.Fatalf("worker %d still has open span %q", g, open)
		}
	}
}

func TestTrackStatusOpenSpan(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 5})
	k := tr.Track("w")
	outer := k.Begin("", "outer", 0)
	inner := k.Begin("", "inner", 0)
	if _, _, open := k.status(); open != "inner" {
		t.Fatalf("open = %q, want inner", open)
	}
	inner.End()
	if _, _, open := k.status(); open != "outer" {
		t.Fatalf("open = %q, want outer", open)
	}
	outer.End()
	spans, busy, open := k.status()
	if open != "" || spans != 2 {
		t.Fatalf("status = (%d, %q), want (2, \"\")", spans, open)
	}
	// Only the depth-0 outer span counts toward busy.
	// Clock readings: outer.start=0, inner.start=5, inner.end=10,
	// outer.end=15 → outer dur 15.
	if busy != 15 {
		t.Fatalf("busy = %d, want 15", busy)
	}
}

// TestTraceReport drives the aggregation over a hand-built wall trace
// with a known layout: two workers, a straggler, and a two-step
// critical path.
func TestTraceReport(t *testing.T) {
	sc := &scriptClock{}
	tr := NewTrace(sc)

	a := tr.Track("worker a")
	b := tr.Track("worker b")
	// worker a: frame spans at [0,10), [10,20), [20,100) — the last is
	// a straggler (median 10, 80 > 2*10).
	for i, d := range []int64{10, 10, 80} {
		sc.at = [2]int64{sc.now, sc.now + d}
		r := a.Begin("render", "frame", int64(i))
		r.End()
	}
	// worker b: one span [100,130) that chains after a's last end.
	sc.at = [2]int64{100, 130}
	r := b.Begin("render", "frame", 3)
	r.End()

	rep := tr.Report()
	if rep.DurationNS != 130 {
		t.Fatalf("duration = %d, want 130", rep.DurationNS)
	}
	if len(rep.Tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(rep.Tracks))
	}
	if rep.Tracks[0].Name != "worker a" || rep.Tracks[0].BusyNS != 100 {
		t.Fatalf("track[0] = %+v", rep.Tracks[0])
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "frame" ||
		rep.Phases[0].Count != 4 || rep.Phases[0].TotalNS != 130 ||
		rep.Phases[0].MaxNS != 80 || rep.Phases[0].MaxTrack != "worker a" {
		t.Fatalf("phase = %+v", rep.Phases[0])
	}
	// Phase durations [10,10,30,80]: median 30, so only the 80 ns span
	// passes the 2x bar.
	if len(rep.Stragglers) != 1 || rep.Stragglers[0].Seq != 2 ||
		rep.Stragglers[0].Median != 30 || rep.Stragglers[0].DurNS != 80 {
		t.Fatalf("stragglers = %+v", rep.Stragglers)
	}
	// Critical path: b's span [100,130) ← a's [20,100) ← a's [10,20) ←
	// a's [0,10), total 130, presented in time order.
	if rep.CriticalNS != 130 || len(rep.Critical) != 4 {
		t.Fatalf("critical = %d ns over %d steps, want 130 over 4",
			rep.CriticalNS, len(rep.Critical))
	}
	if rep.Critical[0].StartNS != 0 || rep.Critical[3].Track != "worker b" {
		t.Fatalf("critical path order wrong: %+v", rep.Critical)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"textrace report", "worker a", "worker b",
		"frame", "straggler", "critical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

// scriptClock returns at[0] then at[1] for each Begin/End pair.
type scriptClock struct {
	at  [2]int64
	i   int
	now int64
}

func (c *scriptClock) Now() int64 {
	v := c.at[c.i%2]
	c.i++
	c.now = v
	return v
}

func TestReportEmptyTrace(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	rep := tr.Report()
	if rep.DurationNS != 0 || len(rep.Tracks) != 0 || len(rep.Critical) != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var nilRep *TraceReport
	if err := nilRep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// listClock returns its readings in order, one per call.
type listClock struct {
	at []int64
	i  int
}

func (c *listClock) Now() int64 {
	v := c.at[c.i]
	c.i++
	return v
}

// TestReportTextGolden pins the report table byte for byte against a
// hand-built run of [0, 10ms): a coordinator render phase with a
// repeated nested encode phase, then a replay phase on a second track.
// Nested spans reach the phase table with their exact durations, while
// only the outer one counts toward the track's busy time.
func TestReportTextGolden(t *testing.T) {
	tr := NewTrace(&listClock{at: []int64{
		0, 1e6, 3e6, 4e6, 5.5e6, 6e6, // render [0,6) with encodes [1,3), [4,5.5)
		6e6, 10e6, // replay [6,10)
	}})
	coord := tr.Track("coordinator")
	render := coord.Begin("", "render", 0)
	for i := int64(0); i < 2; i++ {
		coord.Begin("", "encode", i).End()
	}
	render.End()
	tr.Track("replay group 0").Begin("", "replay", 0).End()

	want := "" +
		"textrace report: run 10.000 ms, 2 tracks, critical path 10.000 ms\n" +
		"  track                         busy ms   util   spans\n" +
		"  coordinator                     6.000    60%       3\n" +
		"  replay group 0                  4.000    40%       1\n" +
		"  phase             count     total ms    mean ms     max ms   %run  max track\n" +
		"  render                1        6.000      6.000      6.000    60%  coordinator\n" +
		"  replay                1        4.000      4.000      4.000    40%  replay group 0\n" +
		"  encode                2        3.500      1.750      2.000    35%  coordinator\n" +
		"  critical: coordinator              render           seq 0      0.000 +6.000 ms\n" +
		"  critical: replay group 0           replay           seq 0      6.000 +4.000 ms\n"
	var buf bytes.Buffer
	if err := tr.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("report mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportNestedSpans checks a span opened inside another on the same
// track: each reaches the phase table with its exact FakeClock duration,
// and only the outer one counts toward the track's busy time.
func TestReportNestedSpans(t *testing.T) {
	clock := &FakeClock{Step: 10}
	tr := NewTrace(clock)
	k := tr.Track("w")
	outer := k.Begin("", "render", 0) // t=0
	k.Begin("", "encode", 0).End()    // t=10..20
	clock.NS += 5
	outer.End() // t=35

	rep := tr.Report()
	if rep.DurationNS != 35 || len(rep.Tracks) != 1 ||
		rep.Tracks[0].BusyNS != 35 || rep.Tracks[0].Spans != 2 {
		t.Fatalf("report = %+v", rep)
	}
	got := map[string]int64{}
	for _, p := range rep.Phases {
		if p.Count != 1 {
			t.Errorf("phase %s count = %d, want 1", p.Name, p.Count)
		}
		got[p.Name] = p.TotalNS
	}
	if len(got) != 2 || got["render"] != 35 || got["encode"] != 10 {
		t.Errorf("phase totals = %v, want render 35, encode 10", got)
	}
}

// TestReportPhaseTieBreak pins the deterministic ordering of phases with
// equal totals: name order, whatever order they were recorded in.
func TestReportPhaseTieBreak(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 5})
	k := tr.Track("w")
	k.Begin("", "b", 0).End()
	k.Begin("", "a", 1).End()
	ph := tr.Report().Phases
	if len(ph) != 2 || ph[0].Name != "a" || ph[1].Name != "b" || ph[0].TotalNS != ph[1].TotalNS {
		t.Errorf("equal-total phases not in name order: %+v", ph)
	}
}

// TestReportZeroDurationRun covers the degenerate all-zero-duration run:
// no division by the empty run window.
func TestReportZeroDurationRun(t *testing.T) {
	tr := NewTrace(&FakeClock{NS: 7})
	tr.Track("w").Begin("", "x", 0).End()
	rep := tr.Report()
	if rep.DurationNS != 0 || len(rep.Phases) != 1 || rep.Phases[0].PctOfRun != 0 ||
		rep.Tracks[0].Utilization != 0 {
		t.Fatalf("zero-run report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "run 0.000 ms") || strings.Contains(out, "NaN") {
		t.Errorf("zero-run report text:\n%s", out)
	}
}

// TestChromeTraceGolden pins the canonical export bytes of a small
// hand-built trace, then validates the same document parses as the
// trace_event JSON-object shape Perfetto expects.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 7})
	k := tr.Track("replay group 0")
	r := k.Begin("render", "frame", 0)
	r.End()
	k.Instant("model", "exact-fallback", 1, "pull-2k")
	// Wall-only events must not appear in the canonical export.
	wr := k.Begin("", "replay", 0)
	wr.End()
	k.Instant("", "shard-publish", 0, "")
	c := tr.Counter("replayed/pull-2k")
	c.Sample(0, 1)
	c.Sample(1, 2)
	tr.Counter("empty") // no samples: skipped

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"textrace"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"model"}},
{"ph":"i","pid":1,"tid":1,"ts":0.000,"s":"t","name":"exact-fallback","args":{"seq":1,"detail":"pull-2k"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"render"}},
{"ph":"X","pid":1,"tid":2,"ts":0.000,"dur":1.000,"name":"frame","args":{"seq":0}},
{"ph":"C","pid":1,"tid":0,"ts":0.000,"name":"replayed/pull-2k","args":{"value":1}},
{"ph":"C","pid":1,"tid":0,"ts":1.000,"name":"replayed/pull-2k","args":{"value":2}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Fatalf("canonical export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	validateChromeShape(t, buf.Bytes())
}

// TestChromeTraceWallGolden pins the wall-regime export of the same
// recording under a reproducible step clock.
func TestChromeTraceWallGolden(t *testing.T) {
	tr := NewTrace(&stepClock{step: 500})
	k := tr.Track("render worker 0")
	r := k.Begin("render", "frame", 0)    // start=500
	r.End()                               // end=1000
	k.Instant("", "shard-publish", 0, "") // at=1500
	c := tr.Counter("frames-rendered")
	c.Add(1)
	c.Gauge(0) // at=2000, value 1

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"textrace"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"render worker 0"}},
{"ph":"X","pid":1,"tid":1,"ts":0.500,"dur":0.500,"name":"frame","args":{"seq":0}},
{"ph":"i","pid":1,"tid":1,"ts":1.500,"s":"t","name":"shard-publish","args":{"seq":0}},
{"ph":"C","pid":1,"tid":0,"ts":2.000,"name":"frames-rendered","args":{"value":1}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Fatalf("wall export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	validateChromeShape(t, buf.Bytes())
}

// validateChromeShape checks the exported document against the
// trace_event schema shape: a traceEvents array whose members carry the
// fields Perfetto requires per phase type.
func validateChromeShape(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		DisplayUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("event %d missing ph/name: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing pid: %v", i, ev)
		}
		switch ph {
		case "M":
			args, ok := ev["args"].(map[string]interface{})
			if !ok || args["name"] == nil {
				t.Fatalf("metadata event %d missing args.name: %v", i, ev)
			}
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event %d missing ts: %v", i, ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event %d missing dur: %v", i, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" && s != "p" && s != "g" {
				t.Fatalf("instant event %d has scope %q: %v", i, s, ev)
			}
		case "C":
			args, ok := ev["args"].(map[string]interface{})
			if !ok || args["value"] == nil {
				t.Fatalf("counter event %d missing args.value: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := map[int64]string{
		0:     "0.000",
		1:     "0.001",
		999:   "0.999",
		1000:  "1.000",
		1500:  "1.500",
		-1500: "-1.500",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
	}
}
