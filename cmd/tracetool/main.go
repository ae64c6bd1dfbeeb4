// Command tracetool records, inspects, and replays texel reference traces,
// the trace-driven methodology of the study in file form.
//
// Usage:
//
//	tracetool record -workload village -o village.trace -frames 60
//	tracetool info village.trace
//	tracetool replay -workload village -l1 2048 -l2mb 2 village.trace
//
// The workload passed to replay must match the one that recorded the
// trace: texture ids are assigned by the (deterministic) scene builder.
// Per-phase run timings are not a tracetool concern: texsim -trace
// prints them, and texsim -manifest records them.
package main

import (
	"flag"
	"fmt"
	"os"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool record|info|replay [flags] [file]")
	os.Exit(2)
}

func workloadByName(name string) *workload.Workload {
	switch name {
	case "village":
		return workload.Village()
	case "city":
		return workload.City()
	case "mall":
		return workload.Mall()
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		os.Exit(2)
		return nil
	}
}

func parseMode(s string) raster.SampleMode {
	switch s {
	case "point":
		return raster.Point
	case "bilinear":
		return raster.Bilinear
	case "trilinear":
		return raster.Trilinear
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", s)
		os.Exit(2)
		return 0
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "village", "village | city | mall")
	out := fs.String("o", "out.trace", "output file")
	frames := fs.Int("frames", 60, "frames (0 = paper scale)")
	width := fs.Int("width", 512, "screen width")
	height := fs.Int("height", 384, "screen height")
	mode := fs.String("mode", "trilinear", "point | bilinear | trilinear")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags

	w := workloadByName(*wl)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Width: *width, Height: *height, Frames: *frames,
		Mode: parseMode(*mode), L1Bytes: 2 << 10,
	}
	n, err := core.RecordTrace(w, cfg, f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, _ := os.Stat(*out)
	fmt.Printf("recorded %d frames of %s to %s (%.1f MB)\n",
		n, w.Name, *out, float64(st.Size())/(1<<20))
}

// infoHandler accumulates summary statistics from a trace.
type infoHandler struct {
	frames   int
	events   int64
	pixels   int64
	textures map[uint32]bool
	levels   map[int]int64
}

func (h *infoHandler) BeginFrame() {}

func (h *infoHandler) Texel(tid uint32, u, v, m int) {
	h.events++
	h.textures[tid] = true
	h.levels[m]++
}

func (h *infoHandler) EndFrame(pixels int64) {
	h.frames++
	h.pixels += pixels
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only
	h := &infoHandler{textures: map[uint32]bool{}, levels: map[int]int64{}}
	if _, err := trace.Replay(f, h); err != nil {
		fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("%s: %d frames, %d texel references, %d textures\n",
		path, h.frames, h.events, len(h.textures))
	fmt.Printf("pixels: %d (%.1f refs/pixel)\n",
		h.pixels, float64(h.events)/float64(h.pixels))
	fmt.Printf("size: %.1f MB (%.2f bytes/reference)\n",
		float64(st.Size())/(1<<20), float64(st.Size())/float64(h.events))
	fmt.Printf("MIP level histogram:\n")
	for m := 0; m < 16; m++ {
		if n := h.levels[m]; n > 0 {
			fmt.Printf("  level %2d %12d (%5.1f%%)\n",
				m, n, 100*float64(n)/float64(h.events))
		}
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	wl := fs.String("workload", "village", "workload that recorded the trace")
	l1 := fs.Int("l1", 2048, "L1 bytes")
	l2mb := fs.Int("l2mb", 2, "L2 MB (0 = pull)")
	l2tile := fs.Int("l2tile", 16, "L2 tile edge texels")
	tlb := fs.Int("tlb", 16, "TLB entries")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only

	w := workloadByName(*wl)
	cfg := core.Config{
		Width: 1, Height: 1, // only used for summary normalisation
		L1Bytes:    *l1,
		TLBEntries: *tlb,
	}
	if *l2mb > 0 {
		cfg.L2 = &cache.L2Config{
			SizeBytes: *l2mb << 20,
			Layout:    texture.TileLayout{L2Size: *l2tile, L1Size: 4},
			Policy:    cache.Clock,
		}
	}
	res, err := core.ReplayTrace(f, w.Scene.Textures, cfg)
	if err != nil {
		fatal(err)
	}
	t := res.Totals
	n := float64(len(res.Frames))
	fmt.Printf("replayed %d frames\n", len(res.Frames))
	fmt.Printf("L1 hit rate: %.2f%%\n", 100*t.L1.HitRate())
	if cfg.L2 != nil {
		fmt.Printf("L2: full %.2f%%, partial %.2f%% (of L1 misses)\n",
			100*t.L2.FullHitRate(), 100*t.L2.PartialHitRate())
		fmt.Printf("TLB hit rate: %.2f%%\n", 100*t.TLB.HitRate())
	}
	fmt.Printf("host bandwidth: %.3f MB/frame\n", float64(t.HostBytes)/n/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
