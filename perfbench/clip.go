package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cardopc/internal/cli"
	"cardopc/internal/core"
	"cardopc/internal/fft"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// clip512 settings: the default raster with a fixed, shortened schedule.
const (
	clipGrid    = 512
	clipPitchNM = 4.0
	clipIters   = 4
	// setupReps is how many times each workload repeats its set-up; the
	// median is reported as setup_s.
	setupReps = 7
)

// allCases returns the built-in testcases V1..V13 then M1..M10.
func allCases() []layout.Clip {
	var out []layout.Clip
	for i := 1; i <= layout.NumViaClips; i++ {
		out = append(out, layout.ViaClip(i))
	}
	return append(out, metalCases()...)
}

func metalCases() []layout.Clip {
	var out []layout.Clip
	for i := 1; i <= layout.NumMetalClips; i++ {
		out = append(out, layout.MetalClip(i))
	}
	return out
}

// shuffled returns a seed-determined permutation of cases. Workloads
// cycle through it, so every case recurs at the same rate whatever the
// seed and a run's mix stays close to the full set.
func shuffled(seed int64, cases []layout.Clip) []layout.Clip {
	out := append([]layout.Clip(nil), cases...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clipConfig is the case's preset with the iteration override applied
// exactly as cardopc -iters and the server's iters field apply it.
func clipConfig(caseName string, iters int) core.Config {
	cfg, err := cli.PickConfig("", caseName)
	if err != nil {
		panic(err) // built-in case names always resolve
	}
	cfg.Iterations = iters
	cfg.DecayAt = []int{iters / 2}
	return cfg
}

func lithoConfig(grid int, pitchNM float64) litho.Config {
	lcfg := litho.DefaultConfig()
	lcfg.GridSize = grid
	lcfg.PitchNM = pitchNM
	return lcfg
}

// clipEnv is the set-up state of the in-process clip flow.
type clipEnv struct {
	proc    *litho.Process
	buildMS float64 // litho.NewProcess wall time
	heapMB  float64 // heap-in-use growth across litho.NewProcess
}

// newClipEnv builds the imaging process. With measureHeap it brackets the
// build with forced collections to measure the kernel set's heap; that
// costs time, so only traced runs ask for it.
func newClipEnv(grid int, pitchNM float64, measureHeap bool) (*clipEnv, error) {
	lcfg := lithoConfig(grid, pitchNM)
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	var h0 float64
	if measureHeap {
		h0 = heapInuseMB()
	}
	t0 := time.Now()
	proc := litho.NewProcess(lcfg, litho.DefaultCorners())
	env := &clipEnv{proc: proc, buildMS: ms(time.Since(t0).Seconds())}
	if measureHeap {
		env.heapMB = heapInuseMB() - h0
	}
	return env, nil
}

// stepScratch holds the buffers the traced run replays Step's stages in.
type stepScratch struct {
	field, aerial *raster.Field
}

// correctClip runs one clip operation: the correction loop, then the
// three-corner measurement cmd/cardopc prints. With a tracer it records
// a span per layer call under root, and before every Step it replays the
// public calls Step is made of (rasterise, spectrum, kernel sweep) so
// Step's self time is the EPE/moves stage.
func correctClip(tr *tracer, op, root int, proc *litho.Process, clip layout.Clip, cfg core.Config) clipRef {
	sim := proc.Nominal
	g := sim.Grid()

	id := tr.begin("core.init", op, root)
	opt := core.NewOptimizer(sim, clip.Targets, cfg)
	tr.end(id)

	var scratch *stepScratch
	if tr != nil {
		scratch = &stepScratch{field: raster.NewField(g), aerial: raster.NewField(g)}
	}
	for it := 0; it < cfg.Iterations; it++ {
		id := tr.begin("core.step", op, root)
		if tr != nil {
			replayStep(tr, op, id, sim, opt.Mask(), cfg, scratch)
			tr.restart(id)
		}
		opt.Step(it)
		tr.end(id)
	}

	id = tr.begin("core.polygons", op, root)
	polys := opt.Mask().Polygons(cfg.SamplesPerSeg)
	tr.end(id)

	id = tr.begin("raster.final", op, root)
	mask := raster.Rasterize(g, polys, 4)
	tgt := raster.Rasterize(g, clip.Targets, 2).Threshold(0.5)
	tr.end(id)

	mf := fft.GetGrid(mask.Size, mask.Size)
	id = tr.begin("litho.spectrum", op, root)
	litho.MaskFreqInto(mf, mask)
	tr.end(id)
	id = tr.begin("litho.corners", op, root)
	nomA, innerA, outerA := proc.AerialAllFromFreq(mf)
	tr.end(id)
	fft.PutGrid(mf)

	id = tr.begin("metrics.measure", op, root)
	ith := sim.Config().Threshold
	probes := metrics.ProbesForLayout(clip.Targets, cfg.ProbeSpacing)
	epe := metrics.MeasureEPE(nomA, probes, metrics.DefaultEPEConfig(ith))
	nomB := nomA.Threshold(ith)
	pvb := metrics.PVB(nomB,
		innerA.Threshold(proc.Inner.Config().Threshold),
		outerA.Threshold(proc.Outer.Config().Threshold))
	l2 := metrics.L2(nomB, tgt)
	tr.end(id)
	return clipRef{EPE: epe.SumAbs, PVB: pvb, L2: l2}
}

// replayStep times, on the optimizer's current mask, the three public
// calls Optimizer.Step makes before its EPE/moves stage. A first,
// untimed round warms caches and pools as Step's own calls find them, so
// the timed round matches what Step pays. The FFTs the replay runs are
// taken out of the per-operation FFT counts.
func replayStep(tr *tracer, op, parent int, sim *litho.Simulator, mask *core.Mask, cfg core.Config, s *stepScratch) {
	c0 := fftCounts()
	for _, weight := range []int{0, 1} {
		id := tr.beginReplay("raster.mask", op, parent, weight)
		mask.RasterizeInto(s.field, cfg.SamplesPerSeg, 4)
		tr.end(id)
		mf := fft.GetGrid(s.field.Size, s.field.Size)
		id = tr.beginReplay("litho.spectrum", op, parent, weight)
		litho.MaskFreqInto(mf, s.field)
		tr.end(id)
		id = tr.beginReplay("litho.sweep", op, parent, weight)
		sim.AerialFromFreqInto(s.aerial, mf)
		tr.end(id)
		fft.PutGrid(mf)
	}
	tr.excludeFFT(fftCounts().sub(c0))
}

// fftTally is a reading of the program's FFT call counters.
type fftTally struct{ inverse2, rforward2 int64 }

func (a fftTally) sub(b fftTally) fftTally {
	return fftTally{a.inverse2 - b.inverse2, a.rforward2 - b.rforward2}
}

// fftCounts reads the FFT counters of the installed obs registry (zero
// when none is installed).
func fftCounts() fftTally {
	return fftTally{obs.C("fft.inverse2").Value(), obs.C("fft.rforward2").Value()}
}

// opFunc runs operation i of a one-client workload, recording spans
// under root when tr is not nil, and returns the oracle's verdict.
type opFunc func(tr *tracer, i, root int) error

// repeatSetup runs setup setupReps times and returns the last
// operation and the set-up times in seconds. The first is timed from process start, so
// it includes runtime and package initialisation; before each later one
// the previous result is dropped and collected, untimed, so two set-ups
// never hold memory at once.
func repeatSetup(setup func() (opFunc, error)) (opFunc, []float64, error) {
	var (
		op    opFunc
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		start := processStart
		if i > 0 {
			op = nil // the operation holds the previous set-up
			runtime.GC()
			start = time.Now()
		}
		var err error
		if op, err = setup(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return op, times, nil
}

// runOneClient runs an in-process workload as a closed loop with one
// client. An untraced run measures the end-to-end metrics for
// rc.seconds. A traced run spends half of that untraced, as the
// reference for bench.trace_overhead, and half traced with the program's
// obs registry installed; finish adds the workload's own per-layer
// metrics.
func runOneClient(rc runConfig, setup func() (*clipEnv, opFunc, error), finish func(layerSet)) (*outcome, error) {
	var builds, heaps []float64
	op, setups, err := repeatSetup(func() (opFunc, error) {
		env, op, err := setup()
		if err == nil {
			builds, heaps = append(builds, env.buildMS), append(heaps, env.heapMB)
		}
		return op, err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{info: []string{setupInfo(setups)}}
	// pass runs operations back to back for seconds and returns their
	// wall times in seconds plus the pass's elapsed seconds.
	pass := func(tr *tracer, seconds float64) (times []float64, elapsed float64) {
		start := time.Now()
		for i := 0; time.Since(start).Seconds() < seconds; i++ {
			t0 := time.Now()
			root := tr.begin("op", i, -1)
			err := op(tr, i, root)
			tr.end(root)
			times = append(times, time.Since(t0).Seconds())
			out.attempted++
			if err != nil {
				out.failed++
				out.wrong++
				out.info = append(out.info, "wrong result: "+err.Error())
			}
		}
		return times, time.Since(start).Seconds()
	}
	if !rc.trace {
		times, elapsed := pass(nil, rc.seconds)
		out.e2e = map[string]metric{
			"setup_s":     {median(setups), "s"},
			"op_s.p50":    {median(times), "s"},
			"ops_per_s":   {float64(len(times)) / elapsed, "1/s"},
			"peak_rss_mb": {peakRSSMB(), "MiB"},
		}
		// The 90th percentile is printed, not reported: a run has too few
		// operations above it for it to hold within a bound.
		out.info = append(out.info, infoLine("op_s.p90", percentile(times, 0.9), "s", fmt.Sprintf("%d operations", len(times))))
		return out, nil
	}
	untraced, _ := pass(nil, rc.seconds/2)
	tr, reg := startTrace()
	defer obs.Setup(nil)
	pass(tr, rc.seconds/2)
	out.spans = tr.spans
	layers, err := tr.layerMetrics(reg, untraced)
	if err != nil {
		return nil, err
	}
	layers.put("litho.build_ms", median(builds))
	layers.put("litho.kernel_mb", median(heaps))
	finish(layers)
	out.layers = layers
	return out, nil
}

// runClip512 is the clip512 workload.
func runClip512(rc runConfig) (*outcome, error) {
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	seq := shuffled(rc.seed, allCases())
	setup := func() (*clipEnv, opFunc, error) {
		env, err := newClipEnv(clipGrid, clipPitchNM, rc.trace)
		if err != nil {
			return nil, nil, err
		}
		return env, func(tr *tracer, i, root int) error {
			c := seq[i%len(seq)]
			got := correctClip(tr, i, root, env.proc, c, clipConfig(c.Name, clipIters))
			return orc.checkClip(clipKey("clip512", c.Name, clipGrid), got, clipPitchNM)
		}, nil
	}
	return runOneClient(rc, setup, func(layerSet) {})
}

// startTrace installs a fresh obs registry (so the program's FFT
// counters count) and returns a tracer plus that registry.
func startTrace() (*tracer, *obs.Registry) {
	reg := obs.NewRegistry()
	obs.Setup(&obs.State{Metrics: reg})
	return newTracer(), reg
}
