package main

import (
	"math"

	"cardopc/internal/core"
	"cardopc/internal/fit"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/mrc"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// hybrid256 settings: metal clips at 256 px / 8 nm with a fixed ILT
// iteration budget.
const (
	hybridGrid    = 256
	hybridPitchNM = 8.0
	hybridILTIter = 10
)

// hybridEnv is the set-up state of the hybrid flow.
type hybridEnv struct {
	*clipEnv
	iltCfg ilt.Config
	fitCfg fit.Config
	rules  mrc.Rules
}

func newHybridEnv(measureHeap bool) (*hybridEnv, error) {
	env, err := newClipEnv(hybridGrid, hybridPitchNM, measureHeap)
	if err != nil {
		return nil, err
	}
	iltCfg := ilt.DefaultConfig()
	iltCfg.Iterations = hybridILTIter
	return &hybridEnv{clipEnv: env, iltCfg: iltCfg, fitCfg: fit.DefaultConfig(), rules: mrc.HybridRules()}, nil
}

// hybridOut is one operation's outcome.
type hybridOut struct {
	iltLoss                     float64
	shapes                      int
	mrcBefore, mrcAfter, passes int
}

func (h hybridOut) ref() hybridRef {
	return hybridRef{ILTLoss: h.iltLoss, Shapes: h.shapes, MRCAfter: h.mrcAfter}
}

// run performs the ILT → fit → MRC sequence exp.Hybrid performs, one
// public call at a time so each layer can be timed. With a tracer it
// first replays one descent iteration's imaging calls (forward pass with
// field cache, adjoint gradient) on the initial mask; they stand for
// every iteration of ilt.Run in the ledger.
func (h *hybridEnv) run(tr *tracer, op, root int, clip layout.Clip) hybridOut {
	sim := h.proc.Nominal
	g := sim.Grid()

	id := tr.begin("raster.target", op, root)
	target := raster.Rasterize(g, clip.Targets, 2)
	for i, v := range target.Data {
		if v >= 0.5 {
			target.Data[i] = 1
		} else {
			target.Data[i] = 0
		}
	}
	tr.end(id)

	id = tr.begin("ilt.run", op, root)
	if tr != nil {
		h.replayILT(tr, op, id, target)
		tr.restart(id)
	}
	iltRes := ilt.Run(sim, target, h.iltCfg)
	tr.end(id)

	id = tr.begin("fit.field", op, root)
	shapes := fit.FitField(iltRes.Mask, 0.5, h.fitCfg)
	tr.end(id)

	id = tr.begin("core.mask", op, root)
	mask := &core.Mask{}
	ccfg := core.Config{Spline: spline.Cardinal, Tension: h.fitCfg.Tension}
	var loops, holes [][]geom.Pt
	for _, s := range shapes {
		if s.Hole {
			holes = append(holes, s.Ctrl)
			continue
		}
		loops = append(loops, s.Ctrl)
	}
	mask.AddFittedShapes(loops, ccfg, false)
	mask.AddHoleShapes(holes, ccfg)
	tr.end(id)

	id = tr.begin("mrc.resolve", op, root)
	checker := mrc.NewChecker(mask, h.rules)
	opt := mrc.DefaultResolveOptions()
	opt.RemoveAreaViolators = true
	opt.MaxPasses = 10
	res := checker.Resolve(opt)
	tr.end(id)

	return hybridOut{iltLoss: iltRes.Loss, shapes: len(shapes), mrcBefore: res.Before, mrcAfter: res.After, passes: res.Passes}
}

// replayILT times AerialWithCacheInto and GradientFromCacheInto on the
// solver's initial mask σ(k·θ₀), with the loss gradient ilt.Run would
// feed the adjoint. A first, untimed pair fills the forward cache from
// the pool the way ilt.Run's first iteration does, so the timed pair
// stands for a steady-state iteration.
func (h *hybridEnv) replayILT(tr *tracer, op, parent int, target *raster.Field) {
	sim := h.proc.Nominal
	cfg := h.iltCfg
	c0 := fftCounts()
	mask := raster.NewField(target.Grid)
	for i, v := range target.Data {
		theta := cfg.InitOutside
		if v >= 0.5 {
			theta = cfg.InitInside
		}
		mask.Data[i] = sigmoid(cfg.MaskSteepness * theta)
	}
	aerial := raster.NewField(target.Grid)
	cache := sim.NewForwardCache()
	defer cache.Release()

	ith := sim.Config().Threshold
	grad := make([]float64, len(aerial.Data))
	dl := make([]float64, len(aerial.Data))
	for _, weight := range []int{0, cfg.Iterations} {
		id := tr.beginReplay("litho.fwdcache", op, parent, weight)
		sim.AerialWithCacheInto(aerial, cache, mask)
		tr.end(id)
		for i, in := range aerial.Data {
			z := sigmoid(cfg.ResistSteepness * (in - ith))
			dl[i] = 2 * (z - target.Data[i]) * cfg.ResistSteepness * z * (1 - z)
		}
		id = tr.beginReplay("litho.gradient", op, parent, weight)
		sim.GradientFromCacheInto(grad, cache, dl)
		tr.end(id)
	}
	tr.excludeFFT(fftCounts().sub(c0))
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// runHybrid256 is the hybrid256 workload.
func runHybrid256(rc runConfig) (*outcome, error) {
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	seq := shuffled(rc.seed, metalCases())
	var results []hybridOut // traced pass only
	setup := func() (*clipEnv, opFunc, error) {
		env, err := newHybridEnv(rc.trace)
		if err != nil {
			return nil, nil, err
		}
		return env.clipEnv, func(tr *tracer, i, root int) error {
			c := seq[i%len(seq)]
			got := env.run(tr, i, root, c)
			if tr != nil {
				results = append(results, got)
			}
			return orc.checkHybrid("hybrid256/"+c.Name, got.ref())
		}, nil
	}
	return runOneClient(rc, setup, func(layers layerSet) {
		var shapes, before, after, passes []float64
		for _, r := range results {
			shapes = append(shapes, float64(r.shapes))
			before = append(before, float64(r.mrcBefore))
			after = append(after, float64(r.mrcAfter))
			passes = append(passes, float64(r.passes))
		}
		layers.put("fit.shapes", median(shapes))
		layers.put("mrc.violations_before", median(before))
		layers.put("mrc.violations_after", median(after))
		layers.put("mrc.passes", median(passes))
	})
}
