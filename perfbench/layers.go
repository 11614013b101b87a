package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"cardopc/internal/obs"
)

// layers.json is the benchmark's layer map: for every metric its unit and
// direction, for every per-layer metric the workload it is measured on
// and the end-to-end metrics it should move, the serve256 load settings
// and the held-out seed.
//
//go:embed layers.json
var layersJSON []byte

// metricSpec is one metric's entry; its "times" text, which says what
// the metric times, is for readers only.
type metricSpec struct {
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Workloads []string `json:"workloads"`
	Moves     []string `json:"moves"`
}

// layerMap is the part of layers.json the program reads; the file also
// records the held-out seed and the figures printed as info lines.
type layerMap struct {
	Workloads map[string]string     `json:"workloads"`
	EndToEnd  map[string]metricSpec `json:"end_to_end"`
	PerLayer  map[string]metricSpec `json:"per_layer"`
	Serve256  serveSettings         `json:"serve256"`
}

// serveSettings fixes serve256's load.
type serveSettings struct {
	// RatePerS is the open-loop mean arrival rate.
	RatePerS float64 `json:"rate_per_s"`
	// OpenJobs is the number of open-loop arrivals.
	OpenJobs int `json:"open_jobs"`
	// LatencyLimitMS is the open-loop latency limit behind late_ratio.
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	// Iters is every job's iteration count.
	Iters int `json:"iters"`
	// SmallShare is the share of jobs on the 128 px / 16 nm raster.
	SmallShare float64 `json:"small_share"`
}

var loadLayers = sync.OnceValues(func() (*layerMap, error) {
	var m layerMap
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return &m, nil
})

// layerSet is the per-layer metric set of one traced run: every metric
// the layer map declares, zero until the workload measures it (a layer
// the workload does not run stays zero).
type layerSet map[string]metric

func newLayerSet() (layerSet, error) {
	lm, err := loadLayers()
	if err != nil {
		return nil, err
	}
	set := layerSet{}
	for name, spec := range lm.PerLayer {
		set[name] = metric{0, spec.Unit}
	}
	return set, nil
}

// put records a measured value; the name must be declared.
func (s layerSet) put(name string, v float64) {
	m, ok := s[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not in layers.json")
	}
	m.Value = v
	s[name] = m
}

// excludeFFT removes FFT calls made by replays from the operation
// counts.
func (t *tracer) excludeFFT(d fftTally) {
	t.replayFFT.inverse2 += d.inverse2
	t.replayFFT.rforward2 += d.rforward2
}

// layerMetrics derives the span-based per-layer metrics of a traced
// in-process pass. untraced holds the same workload's untraced operation
// times (seconds), the reference for bench.trace_overhead: the median
// over operations of traced time (replays excluded) / untraced time.
func (t *tracer) layerMetrics(reg *obs.Registry, untraced []float64) (layerSet, error) {
	set, err := newLayerSet()
	if err != nil {
		return nil, err
	}
	leds := ledgers(t.spans)
	ops := float64(len(leds))
	putMedian := func(name string, xs []float64) {
		if len(xs) > 0 {
			set.put(name, median(xs))
		}
	}
	putMedian("core.init_ms", t.durations("core.init"))
	putMedian("core.step_self_ms", t.selfTimes("core.step"))
	putMedian("raster.mask_ms", t.durations("raster.mask"))
	putMedian("litho.spectrum_ms", t.durations("litho.spectrum"))
	putMedian("litho.sweep_ms", t.durations("litho.sweep"))
	putMedian("litho.corners_ms", t.durations("litho.corners"))
	putMedian("litho.fwdcache_ms", t.durations("litho.fwdcache"))
	putMedian("litho.gradient_ms", t.durations("litho.gradient"))
	putMedian("metrics.measure_ms", t.durations("metrics.measure"))
	putMedian("ilt.run_ms", t.durations("ilt.run"))
	putMedian("ilt.self_ms", t.selfTimes("ilt.run"))
	putMedian("fit.field_ms", t.durations("fit.field"))
	putMedian("mrc.resolve_ms", t.durations("mrc.resolve"))
	if ops == 0 {
		return set, nil
	}
	set.put("litho.sweeps", float64(len(t.durations("litho.sweep")))/ops)
	inv := reg.Counter("fft.inverse2").Value() - t.replayFFT.inverse2
	rfwd := reg.Counter("fft.rforward2").Value() - t.replayFFT.rforward2
	set.put("fft.inverse2_per_op", float64(inv)/ops)
	set.put("fft.rforward2_per_op", float64(rfwd)/ops)

	// Both passes start the case sequence at op 0, so op i is the same
	// case traced and untraced.
	var ratios, unattributed []float64
	for _, l := range leds {
		unattributed = append(unattributed, l.Unattributed)
		if l.Op < len(untraced) {
			ratios = append(ratios, l.Wall/ms(untraced[l.Op]))
		}
	}
	set.put("bench.unattributed_ms", median(unattributed))
	putMedian("bench.trace_overhead", ratios)
	return set, nil
}
