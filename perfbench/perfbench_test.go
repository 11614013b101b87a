package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"cardopc/internal/core"
	"cardopc/internal/exp"
	"cardopc/internal/fft"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
)

// maxUnattributed is the largest share of a traced operation's time the
// layer spans may leave uncovered on the in-process workloads.
const maxUnattributed = 0.05

func mustOracle(t *testing.T) *oracle {
	t.Helper()
	orc, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	return orc
}

// TestOracleRejectsInnerCornerAsNominal corrects one clip on the serve256
// raster, then measures it twice: as the program does (accepted) and with
// the inner process corner's image in place of the nominal one (rejected).
func TestOracleRejectsInnerCornerAsNominal(t *testing.T) {
	orc := mustOracle(t)
	lm, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	r := serveRasters[0]
	env, err := newClipEnv(r.grid, r.pitchNM, false)
	if err != nil {
		t.Fatal(err)
	}
	clip := layout.MetalClip(3)
	cfg := clipConfig(clip.Name, lm.Serve256.Iters)
	key := clipKey("serve256", clip.Name, r.grid)

	if err := orc.checkClip(key, correctClip(nil, 0, -1, env.proc, clip, cfg), r.pitchNM); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	opt := core.NewOptimizer(env.proc.Nominal, clip.Targets, cfg)
	opt.Run()
	g := env.proc.Nominal.Grid()
	mask := raster.Rasterize(g, opt.Mask().Polygons(cfg.SamplesPerSeg), 4)
	mf := fft.GetGrid(mask.Size, mask.Size)
	litho.MaskFreqInto(mf, mask)
	nomA, innerA, outerA := env.proc.AerialAllFromFreq(mf)
	fft.PutGrid(mf)
	ith := env.proc.Inner.Config().Threshold
	probes := metrics.ProbesForLayout(clip.Targets, cfg.ProbeSpacing)
	innerB := innerA.Threshold(ith)
	wrong := clipRef{
		EPE: metrics.MeasureEPE(innerA, probes, metrics.DefaultEPEConfig(ith)).SumAbs,
		PVB: metrics.PVB(nomA.Threshold(env.proc.Nominal.Config().Threshold), innerB, outerA.Threshold(env.proc.Outer.Config().Threshold)),
		L2:  metrics.L2(innerB, raster.Rasterize(g, clip.Targets, 2).Threshold(0.5)),
	}
	if err := orc.checkClip(key, wrong, r.pitchNM); err == nil {
		t.Fatalf("inner-corner numbers %v accepted as nominal", wrong)
	}
}

// TestOracleRejectsMismatchedReferences checks each recorded reference
// against a neighbouring key: another raster, another case.
func TestOracleRejectsMismatchedReferences(t *testing.T) {
	orc := mustOracle(t)
	for _, c := range allCases() {
		big, small := clipKey("serve256", c.Name, 256), clipKey("serve256", c.Name, 128)
		if err := orc.checkClip(big, orc.Clip[small], 8); err == nil {
			t.Errorf("%s: the 128 px result passed as the 256 px one", c.Name)
		}
		if err := orc.checkClip(big, orc.Clip[big], 8); err != nil {
			t.Errorf("%s: reference rejected against itself: %v", c.Name, err)
		}
	}
	got := orc.Hybrid["hybrid256/M1"]
	got.ILTLoss *= 1.05
	if err := orc.checkHybrid("hybrid256/M1", got); err == nil {
		t.Error("ILT loss 5 % off accepted")
	}
	got = orc.Hybrid["hybrid256/M1"]
	got.MRCAfter += 2
	if err := orc.checkHybrid("hybrid256/M1", got); err == nil {
		t.Error("two extra MRC violations accepted")
	}
}

func TestSeedsAreDeterministic(t *testing.T) {
	names := func(cs []layout.Clip) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return out
	}
	if a, b := names(shuffled(7, allCases())), names(shuffled(7, allCases())); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different case sequences:\n%v\n%v", a, b)
	}
	if a, b := names(shuffled(7, allCases())), names(shuffled(8, allCases())); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same case sequence")
	}
	a, b := planJobs(7, 200, 4, 0.2), planJobs(7, 200, 4, 0.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different serve256 schedules")
	}
	if reflect.DeepEqual(a, planJobs(8, 200, 4, 0.2)) {
		t.Fatal("seeds 7 and 8 gave the same serve256 schedule")
	}
	small := 0
	for _, j := range a {
		if j.raster == serveRasters[1] {
			small++
		}
	}
	if small != 40 {
		t.Fatalf("%d of 200 jobs on the small raster, want 40", small)
	}
	if got := a[len(a)-1].at.Seconds(); got < 45 || got > 50 {
		t.Fatalf("200 arrivals at 4/s end at %.1f s, want just under 50", got)
	}
}

// checkLedger asserts closure (self times plus unattributed equal the
// operation time) and the unattributed bound on every traced operation.
func checkLedger(t *testing.T, spans []span) []opLedger {
	t.Helper()
	leds := ledgers(spans)
	if len(leds) == 0 {
		t.Fatal("no traced operations")
	}
	for _, l := range leds {
		sum := l.Unattributed
		for _, v := range l.Self {
			sum += v
		}
		if math.Abs(sum-l.Wall) > 1e-6*l.Wall {
			t.Errorf("op %d: self times + unattributed = %.6f ms, wall %.6f ms", l.Op, sum, l.Wall)
		}
		if share := l.Unattributed / l.Wall; share > maxUnattributed {
			t.Errorf("op %d: %.1f %% of %.1f ms unattributed, limit %.0f %%", l.Op, 100*share, l.Wall, 100*maxUnattributed)
		}
	}
	return leds
}

func largestLayer(l opLedger) string {
	best := ""
	for name, v := range l.Self {
		if best == "" || v > l.Self[best] {
			best = name
		}
	}
	return best
}

func TestLedgerClosureClip512(t *testing.T) {
	env, err := newClipEnv(clipGrid, clipPitchNM, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	clip := layout.ViaClip(3)
	root := tr.begin("op", 0, -1)
	correctClip(tr, 0, root, env.proc, clip, clipConfig(clip.Name, clipIters))
	tr.end(root)
	l := checkLedger(t, tr.spans)[0]
	if got := largestLayer(l); got != "litho.sweep" {
		t.Errorf("largest layer %s, want litho.sweep: %v", got, l.Self)
	}
	if n := len(tr.durations("litho.sweep")); n != clipIters {
		t.Errorf("%d sweeps replayed, want %d", n, clipIters)
	}
}

func TestLedgerClosureHybrid256(t *testing.T) {
	env, err := newHybridEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	root := tr.begin("op", 0, -1)
	env.run(tr, 0, root, layout.MetalClip(2))
	tr.end(root)
	l := checkLedger(t, tr.spans)[0]
	// ilt.run's self time is a subtraction of one replayed iteration
	// times the budget and may go either way under host noise; the
	// directly timed layers must all show time.
	for _, name := range []string{"fit.field", "mrc.resolve", "litho.fwdcache", "litho.gradient"} {
		if l.Self[name] <= 0 {
			t.Errorf("layer %s has no time: %v", name, l.Self)
		}
	}
	if d := tr.durations("ilt.run"); len(d) != 1 || d[0] <= 0 {
		t.Errorf("ilt.run durations %v", d)
	}
}

// TestHybridMatchesExp pins the benchmark's step-by-step hybrid flow to
// exp.Hybrid, the sequence it reproduces.
func TestHybridMatchesExp(t *testing.T) {
	env, err := newHybridEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	clip := layout.MetalClip(8)
	got := env.run(nil, 0, -1, clip)
	want := exp.Hybrid(env.proc.Nominal, clip.Targets, env.iltCfg, env.fitCfg, env.rules)
	if got.iltLoss != want.ILTLoss || got.mrcBefore != want.MRCBefore || got.mrcAfter != want.MRCAfter {
		t.Fatalf("benchmark flow %+v, exp.Hybrid loss %v MRC %d -> %d", got, want.ILTLoss, want.MRCBefore, want.MRCAfter)
	}
}

// TestLayerMapMatchesBenchmarkJSON keeps layers.json and the repository's
// BENCHMARK.json in step: same metrics, units and directions.
func TestLayerMapMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	lm, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bench.Workloads {
		wl = append(wl, w.Name)
		if _, ok := lm.Workloads[w.Name]; !ok {
			t.Errorf("workload %s has no entry in layers.json", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, workloadNames())
	}
	compare := func(kind string, listed []struct{ Name, Unit, Better string }, specs map[string]metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in layers.json", kind, len(listed), len(specs))
		}
		for _, m := range listed {
			s, ok := specs[m.Name]
			if !ok || s.Unit != m.Unit || s.Better != m.Better {
				t.Errorf("%s %s: BENCHMARK.json %s/%s, layers.json %+v", kind, m.Name, m.Unit, m.Better, s)
			}
			if kind == "per_layer" && (len(s.Workloads) == 0 || len(s.Moves) == 0) {
				t.Errorf("per-layer %s lacks its workload or the metric it moves", m.Name)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, lm.EndToEnd)
	compare("per_layer", bench.PerLayer, lm.PerLayer)
}

// TestServeLoops drives a daemon through both phases with a few small
// jobs and checks every result against the oracle.
func TestServeLoops(t *testing.T) {
	orc := mustOracle(t)
	lm, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServe(false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	jobs := planJobs(3, 6, 20, lm.Serve256.SmallShare)
	for i := range jobs {
		jobs[i].raster = serveRasters[1] // the small raster keeps the test quick
	}
	tally := &serveTally{limit: time.Minute}
	recs := env.openLoop(jobs, lm.Serve256.Iters)
	closed, elapsed := env.closedLoop(jobs, lm.Serve256.Iters, 2, 0.5)
	recs = append(recs, closed...)
	for i := range recs {
		tally.add(orc, &recs[i])
	}
	if tally.failed != 0 || tally.ok != len(recs) {
		t.Fatalf("%d of %d jobs failed: %v", tally.failed, len(recs), tally.problems)
	}
	if len(closed) < 2 || elapsed < 0.5 {
		t.Fatalf("closed loop ran %d jobs in %.2f s", len(closed), elapsed)
	}
	for _, r := range recs[:len(jobs)] {
		if lat := r.latency(); lat <= 0 || lat > time.Minute {
			t.Fatalf("job %s latency %v", r.view.ID, lat)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 %v, want 4.6", got)
	}
}
