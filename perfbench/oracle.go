package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// oracle.json holds reference outputs recorded from the program at the
// commit that introduced the benchmark (perfbench --record). An
// operation whose output falls outside the tolerances below fails.
//
//go:embed oracle.json
var oracleJSON []byte

// Tolerances: relative to the reference, plus an absolute floor that
// absorbs a pixel flipping at the print threshold when the summation
// order of the kernel sweep changes (worker count, batching).
const (
	tolRel      = 0.01 // 1 % of the reference value
	tolEPEAbsNM = 0.5  // Σ|EPE|, nm
	tolPVBPx    = 4    // PVB, in pixel areas of the raster
	tolL2Px     = 4    // L2, pixels
	tolILTAbs   = 1.0  // final ILT loss (pixel-count scale)
	tolShapes   = 1    // fitted shape count
	tolMRC      = 1    // MRC violations left after resolving, above the reference
)

// clipRef is the reference metric suite of one corrected clip.
type clipRef struct {
	EPE float64 `json:"epe_sum_nm"`
	PVB float64 `json:"pvb_nm2"`
	L2  int     `json:"l2_px"`
}

// hybridRef is the reference outcome of one ILT → fit → MRC operation.
// With the benchmark's 10-iteration ILT budget the resolver leaves a few
// violations on some clips (0–3 when recorded), so MRCAfter is
// pinned to its recorded count rather than to zero.
type hybridRef struct {
	ILTLoss  float64 `json:"ilt_loss"`
	Shapes   int     `json:"shapes"`
	MRCAfter int     `json:"mrc_after"`
}

type oracle struct {
	Clip   map[string]clipRef   `json:"clip"`
	Hybrid map[string]hybridRef `json:"hybrid"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return &o, nil
}

// clipKey names one clip reference: workload, case and raster.
func clipKey(workload, caseName string, grid int) string {
	return fmt.Sprintf("%s/%s@%d", workload, caseName, grid)
}

func within(got, ref, abs float64) bool {
	return math.Abs(got-ref) <= abs+tolRel*math.Abs(ref)
}

// checkClip reports whether got matches the reference for key; pitchNM
// sizes the PVB floor.
func (o *oracle) checkClip(key string, got clipRef, pitchNM float64) error {
	ref, ok := o.Clip[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference", key)
	case !within(got.EPE, ref.EPE, tolEPEAbsNM):
		return fmt.Errorf("%s: EPE sum %.3f nm, reference %.3f", key, got.EPE, ref.EPE)
	case !within(got.PVB, ref.PVB, tolPVBPx*pitchNM*pitchNM):
		return fmt.Errorf("%s: PVB %.1f nm², reference %.1f", key, got.PVB, ref.PVB)
	case !within(float64(got.L2), float64(ref.L2), tolL2Px):
		return fmt.Errorf("%s: L2 %d px, reference %d", key, got.L2, ref.L2)
	}
	return nil
}

func (o *oracle) checkHybrid(key string, got hybridRef) error {
	ref, ok := o.Hybrid[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference", key)
	case !within(got.ILTLoss, ref.ILTLoss, tolILTAbs):
		return fmt.Errorf("%s: ILT loss %.3f, reference %.3f", key, got.ILTLoss, ref.ILTLoss)
	case got.Shapes < ref.Shapes-tolShapes || got.Shapes > ref.Shapes+tolShapes:
		return fmt.Errorf("%s: %d fitted shapes, reference %d", key, got.Shapes, ref.Shapes)
	case got.MRCAfter > ref.MRCAfter+tolMRC:
		return fmt.Errorf("%s: %d MRC violations left after resolving, reference %d", key, got.MRCAfter, ref.MRCAfter)
	}
	return nil
}

// recordOracle recomputes every reference the workloads can draw and
// writes them to path.
func recordOracle(path string) error {
	o := oracle{Clip: map[string]clipRef{}, Hybrid: map[string]hybridRef{}}
	lm, err := loadLayers()
	if err != nil {
		return err
	}
	clip512, err := newClipEnv(clipGrid, clipPitchNM, false)
	if err != nil {
		return err
	}
	for _, c := range allCases() {
		o.Clip[clipKey("clip512", c.Name, clipGrid)] = correctClip(nil, 0, -1, clip512.proc, c, clipConfig(c.Name, clipIters))
		fmt.Fprintln(os.Stderr, "recorded clip512", c.Name)
	}
	for _, r := range serveRasters {
		env, err := newClipEnv(r.grid, r.pitchNM, false)
		if err != nil {
			return err
		}
		for _, c := range allCases() {
			o.Clip[clipKey("serve256", c.Name, r.grid)] = correctClip(nil, 0, -1, env.proc, c, clipConfig(c.Name, lm.Serve256.Iters))
		}
		fmt.Fprintln(os.Stderr, "recorded serve256 at", r.grid, "px")
	}
	henv, err := newHybridEnv(false)
	if err != nil {
		return err
	}
	for _, c := range metalCases() {
		got := henv.run(nil, 0, -1, c)
		o.Hybrid["hybrid256/"+c.Name] = got.ref()
		fmt.Fprintln(os.Stderr, "recorded hybrid256", c.Name, got.ref())
	}
	data, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
