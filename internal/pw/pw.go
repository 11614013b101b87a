// Package pw computes exposure–defocus process windows: for a grid of
// (dose, defocus) conditions it measures the printed critical dimension
// (CD) at a cut line and reports which conditions keep CD within spec.
// Depth of focus, exposure latitude and window area are the classic litho
// figures of merit that PVB summarises into one number; this package
// exposes the full window so OPC solutions can be compared in detail.
package pw

import (
	"math"

	"cardopc/internal/fft"
	"cardopc/internal/litho"
	"cardopc/internal/raster"

	"cardopc/internal/geom"
)

// Cut is a CD measurement site: a centre point and the unit direction along
// which the feature's width is measured.
type Cut struct {
	Center geom.Pt
	Dir    geom.Pt
}

// Point is one (dose, defocus) condition's measurement.
type Point struct {
	Dose      float64
	DefocusNM float64
	// CDNM is the measured critical dimension (0 when the feature fails
	// to print at this condition).
	CDNM float64
	// InSpec is true when |CD - target| <= tol.
	InSpec bool
}

// Window is a full exposure-defocus analysis.
type Window struct {
	TargetCD float64
	TolNM    float64
	Points   []Point
	doses    []float64
	defoci   []float64
}

// Config tunes the analysis.
type Config struct {
	// Doses are the relative exposure doses to sweep.
	Doses []float64
	// DefociNM are the defocus conditions to sweep.
	DefociNM []float64
	// TolFrac is the CD spec as a fraction of target (0.1 = ±10 %).
	TolFrac float64
	// SearchNM bounds the crossing search around the cut centre.
	SearchNM float64
}

// DefaultConfig returns a 5×5 window sweep with the industry ±10 % CD spec.
func DefaultConfig() Config {
	return Config{
		Doses:    []float64{0.94, 0.97, 1.0, 1.03, 1.06},
		DefociNM: []float64{0, 20, 40, 60, 80},
		TolFrac:  0.10,
		SearchNM: 120,
	}
}

// Analyze sweeps the window for one mask. The imaging kernels are rebuilt
// per defocus; dose variation reuses each defocus's aerial image (printing
// at dose d compares I >= threshold/d).
func Analyze(base litho.Config, mask *raster.Field, cut Cut, targetCD float64, cfg Config) *Window {
	w := &Window{
		TargetCD: targetCD,
		TolNM:    cfg.TolFrac * targetCD,
		doses:    cfg.Doses,
		defoci:   cfg.DefociNM,
	}
	mf := fft.GetGrid(mask.Size, mask.Size)
	litho.MaskFreqInto(mf, mask)
	defer fft.PutGrid(mf)
	aerial := raster.NewField(raster.Grid{Size: base.GridSize, Pitch: base.PitchNM})
	for _, z := range cfg.DefociNM {
		zCfg := base
		zCfg.DefocusNM = z
		zCfg.Dose = 1
		litho.NewSimulator(zCfg).AerialFromFreqInto(aerial, mf)
		for _, d := range cfg.Doses {
			th := base.Threshold / d
			cd := MeasureCD(aerial, cut, th, cfg.SearchNM)
			w.Points = append(w.Points, Point{
				Dose:      d,
				DefocusNM: z,
				CDNM:      cd,
				InSpec:    cd > 0 && math.Abs(cd-targetCD) <= w.TolNM,
			})
		}
	}
	return w
}

// MeasureCD returns the printed width at the cut: the distance between the
// two threshold crossings bracketing the cut centre along ±Dir, or 0 when
// the centre does not print or a crossing is missing within searchNM.
func MeasureCD(aerial *raster.Field, cut Cut, th, searchNM float64) float64 {
	if aerial.Bilinear(cut.Center) < th {
		return 0
	}
	right := crossingDistance(aerial, cut.Center, cut.Dir, th, searchNM)
	left := crossingDistance(aerial, cut.Center, cut.Dir.Mul(-1), th, searchNM)
	if right < 0 || left < 0 {
		return 0
	}
	return left + right
}

// crossingDistance walks from the centre along dir until intensity falls
// below th, refining the crossing linearly; returns -1 if none is found.
func crossingDistance(aerial *raster.Field, from, dir geom.Pt, th, searchNM float64) float64 {
	step := aerial.Pitch / 2
	prev := aerial.Bilinear(from)
	for s := step; s <= searchNM; s += step {
		cur := aerial.Bilinear(from.Add(dir.Mul(s)))
		if prev >= th && cur < th {
			t := 0.5
			//cardopc:allow floatcmp exact guard against 0/0 in the linear refinement
			if cur != prev {
				t = (th - prev) / (cur - prev)
			}
			return s - step + t*step
		}
		prev = cur
	}
	return -1
}

// InSpecCount returns how many window points meet the CD spec.
func (w *Window) InSpecCount() int {
	n := 0
	for _, p := range w.Points {
		if p.InSpec {
			n++
		}
	}
	return n
}

// DOFAtNominalDose returns the widest contiguous defocus range (nm) that
// stays in spec at dose 1.0.
func (w *Window) DOFAtNominalDose() float64 {
	var zs []float64
	for _, p := range w.Points {
		if p.Dose == 1.0 && p.InSpec {
			zs = append(zs, p.DefocusNM)
		}
	}
	if len(zs) == 0 {
		return 0
	}
	min, max := zs[0], zs[0]
	for _, z := range zs[1:] {
		if z < min {
			min = z
		}
		if z > max {
			max = z
		}
	}
	return max - min
}

// ExposureLatitude returns the in-spec dose span (fraction) at best focus
// (the defocus with the most in-spec doses).
func (w *Window) ExposureLatitude() float64 {
	byZ := map[float64][]float64{}
	for _, p := range w.Points {
		if p.InSpec {
			byZ[p.DefocusNM] = append(byZ[p.DefocusNM], p.Dose)
		}
	}
	best := 0.0
	for _, doses := range byZ {
		min, max := doses[0], doses[0]
		for _, d := range doses[1:] {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if span := max - min; span > best {
			best = span
		}
	}
	return best
}
