package imgproc

import "image"

// Scratch is a free-list of reusable image buffers for the per-frame
// kernels: blur, gradients, pyramid reduction and resize all need temporary
// images whose sizes repeat every frame, and allocating them fresh each time
// dominated the allocation profile of the pixel pipeline.
//
// Ownership rules (see DESIGN.md §8):
//
//   - A Scratch belongs to one logical pipeline stage. It is NOT safe for
//     concurrent use; components whose call lifetimes overlap (e.g. a
//     watchdog-abandoned detector call racing its retry) must use a
//     sync.Pool of Scratch instead of sharing one.
//   - Take hands out a buffer with undefined contents; callers must fully
//     overwrite it. Put returns a buffer to the list; the caller must not
//     retain any alias afterwards.
//   - Buffers that escape into long-lived structures (a pyramid level held
//     across frames, a rendered frame stored in a core.Frame) must never be
//     Put back.
type Scratch struct {
	free []*Gray

	// whole is the one-rectangle list GradientsInto hands GradientsRectsInto;
	// it lives here so the whole-image call allocates no slice.
	whole [1]image.Rectangle

	// Memoized Gaussian kernel: per-frame blurs reuse one sigma, so caching
	// the last kernel keeps GaussianBlurInto allocation-free in steady state.
	kernelSigma float64
	kernel      []float32
}

// gaussianKernel returns GaussianKernel(sigma), reusing the previous result
// when sigma is unchanged.
//
//adavp:amortized allocates only when sigma changes; per-frame blurs reuse one sigma
func (s *Scratch) gaussianKernel(sigma float64) []float32 {
	if s.kernel == nil || s.kernelSigma != sigma {
		s.kernel = GaussianKernel(sigma)
		s.kernelSigma = sigma
	}
	return s.kernel
}

// Take returns a w×h buffer with undefined contents, reusing a free buffer
// whose backing array is large enough, else allocating.
//
//adavp:amortized allocates only when the free list has no buffer of this size; steady-state frames hit the list
func (s *Scratch) Take(w, h int) *Gray {
	need := w * h
	for i := len(s.free) - 1; i >= 0; i-- {
		g := s.free[i]
		if cap(g.Pix) >= need {
			s.free[i] = s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			g.W, g.H = w, h
			g.Pix = g.Pix[:need]
			return g
		}
	}
	return NewGray(w, h)
}

// Put returns a buffer to the free list for reuse by a later Take. Passing
// nil is a no-op.
func (s *Scratch) Put(g *Gray) {
	if g == nil {
		return
	}
	s.free = append(s.free, g)
}
