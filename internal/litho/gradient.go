package litho

import (
	"fmt"
	"runtime"
	"sync"

	"cardopc/internal/fft"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// ForwardCache keeps the per-kernel coherent fields A_k = M ⊗ h_k of one
// forward simulation so the adjoint gradient can be evaluated without
// re-convolving. A cache is bound to one simulator, is not safe for
// concurrent use, and may be reused across iterations (each
// AerialWithCacheInto overwrites it in place); Release returns its grids
// to the fft pool when the optimisation loop is done.
type ForwardCache struct {
	amps []*fft.Grid2
	sim  *Simulator
}

// NewForwardCache returns an empty reusable cache bound to s. Grids are
// drawn lazily from the fft pool on the first forward pass.
func (s *Simulator) NewForwardCache() *ForwardCache {
	return &ForwardCache{sim: s}
}

// ensure draws the per-kernel amplitude grids from the fft pool.
func (c *ForwardCache) ensure(n int) {
	if c.amps == nil {
		c.amps = make([]*fft.Grid2, len(c.sim.kernels))
	}
	for i, a := range c.amps {
		if a == nil {
			c.amps[i] = fft.GetGrid(n, n) // cache-owned: Release returns every non-nil slot
		}
	}
}

// Release returns the cached amplitude grids to the fft pool. The cache
// stays usable — the next forward pass draws fresh grids.
func (c *ForwardCache) Release() {
	for i, a := range c.amps {
		if a != nil {
			fft.PutGrid(a)
			c.amps[i] = nil
		}
	}
}

// AerialWithCacheInto computes the aerial image of mask like AerialInto,
// writing it into out (fully overwritten), and retains the coherent
// amplitudes in cache for a subsequent GradientFromCacheInto call. The
// cache's grids are reused when it has been filled before — the
// steady-state path of the ILT descent loop.
//
//cardopc:noalloc
func (s *Simulator) AerialWithCacheInto(out *raster.Field, cache *ForwardCache, mask *raster.Field) *raster.Field {
	defer obs.Start("litho.aerial_cached").End()
	obs.C("litho.aerial.count").Inc()
	n := s.cfg.GridSize
	if cache.sim != s {
		panic("litho: ForwardCache used with a different simulator")
	}
	if out.Size != n || mask.Size != n {
		panic(fmt.Sprintf("litho: aerial out %d px / mask %d px for a %d px imager", out.Size, mask.Size, n))
	}
	mf := fft.GetGrid(n, n)
	MaskFreqInto(mf, mask)
	cache.ensure(n)
	clear(out.Data)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.kernels) {
		workers = len(s.kernels)
	}
	wss := make([]*fft.Workspace, workers) //cardopc:allow noalloc GOMAXPROCS-bounded fan-out slice, inside the litho allocs/op budget
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //cardopc:allow noalloc one worker closure per fan-out, inside the litho allocs/op budget
			defer wg.Done()
			ws := fft.GetWorkspace(n, n)
			for ki := w; ki < len(s.kernels); ki += workers {
				ksp := obs.StartOn(obs.TrackLithoWorker+w, "litho.kernel")
				amp := cache.amps[ki]
				fft.ConvolveInto(amp, mf, s.kernels[ki]) // workers only read mf; wg.Wait fences the PutGrid below
				wk := s.weights[ki]
				for i, v := range amp.Data {
					re, im := real(v), imag(v)
					ws.Acc[i] += wk * (re*re + im*im)
				}
				ksp.End()
			}
			wss[w] = ws
		}(w)
	}
	wg.Wait()
	fft.PutGrid(mf)
	for _, ws := range wss {
		for i, v := range ws.Acc {
			out.Data[i] += v
		}
		ws.Release()
	}

	scaleInto(out.Data, out.Data, s.cfg.Dose)
	return out
}

// GradientFromCache computes ∂L/∂M given G = ∂L/∂I (the loss gradient with
// respect to the aerial image, dose included by the caller — the chain rule
// through the dose factor is handled here). For
//
//	I = Dose · Σ_k w_k |M ⊗ h_k|²   (mask M real)
//
// the adjoint is
//
//	∂L/∂M = Dose · Σ_k 2 w_k · Re[ corr(G ⊙ A_k, h_k) ] ,
//
// where corr is cross-correlation, evaluated in the frequency domain as
// IFFT( FFT(G ⊙ A_k) ⊙ conj(H_k) ).
func (s *Simulator) GradientFromCache(cache *ForwardCache, G []float64) []float64 {
	n := s.cfg.GridSize
	return s.GradientFromCacheInto(make([]float64, n*n), cache, G)
}

// GradientFromCacheInto is GradientFromCache accumulating into grad
// (fully overwritten), drawing worker scratch from the fft workspace
// pool. The reduction runs in worker order, so results are bit-identical
// across runs.
//
//cardopc:noalloc
func (s *Simulator) GradientFromCacheInto(grad []float64, cache *ForwardCache, G []float64) []float64 {
	defer obs.Start("litho.gradient").End()
	obs.C("litho.gradient.count").Inc()
	n := s.cfg.GridSize
	if cache.sim != s {
		panic("litho: ForwardCache used with a different simulator")
	}
	if len(grad) != n*n || len(G) != n*n {
		panic(fmt.Sprintf("litho: gradient buffers %d/%d px for a %d px imager", len(grad), len(G), n))
	}
	clear(grad)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.kernels) {
		workers = len(s.kernels)
	}
	wss := make([]*fft.Workspace, workers) //cardopc:allow noalloc GOMAXPROCS-bounded fan-out slice, inside the litho allocs/op budget
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //cardopc:allow noalloc one worker closure per fan-out, inside the litho allocs/op budget
			defer wg.Done()
			ws := fft.GetWorkspace(n, n)
			buf := ws.Grid
			for ki := w; ki < len(s.kernels); ki += workers {
				ksp := obs.StartOn(obs.TrackLithoWorker+w, "litho.grad_kernel")
				amp := cache.amps[ki]
				for i := range buf.Data {
					buf.Data[i] = complex(G[i], 0) * amp.Data[i]
				}
				fft.Forward2(buf)
				kern := s.kernels[ki]
				for i := range buf.Data {
					kv := kern.Data[i]
					buf.Data[i] *= complex(real(kv), -imag(kv))
				}
				fft.Inverse2(buf)
				wk := 2 * s.weights[ki] * s.cfg.Dose
				for i, v := range buf.Data {
					ws.Acc[i] += wk * real(v)
				}
				ksp.End()
			}
			wss[w] = ws
		}(w)
	}
	wg.Wait()
	for _, ws := range wss {
		for i, v := range ws.Acc {
			grad[i] += v
		}
		ws.Release()
	}
	return grad
}
