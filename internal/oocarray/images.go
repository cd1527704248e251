package oocarray

import (
	"sync"
	"sync/atomic"

	"github.com/ooc-hpf/passion/internal/dist"
)

// Images keeps the local images of a plan's inputs: the column-major
// local section of an input array that a rank's fill writes, the bytes
// its local array file holds after the fill. Every run of a plan fills
// its inputs with the same bytes, so the first fill of each rank's share
// makes the image and every later one writes from it, and on MemFS
// leaves its file sharing it copy-on-write (Array.Fill). An image is the
// garbage collector's, never the arena's: the files of runs still going
// may read it after its Images is released.
//
// All the images of every Images held at once are bounded by
// imagesBytes: a share whose image does not fit is filled as though its
// input were not kept. Release gives an Images' bytes back.
type Images struct {
	mu       sync.Mutex
	of       map[imageKey]*image
	inputs   int   // the inputs kept so far, which number them
	bytes    int64 // the images made, counted in imagesHeld
	released bool
}

// imageKey names a share's image: the input's number in its Images, the
// array's mapping and the rank.
type imageKey struct {
	input int
	dmap  *dist.Array
	proc  int
}

// image is one share's image, made once by the first fill that asks.
type image struct {
	once sync.Once
	data []float64 // nil when the image did not fit
}

// imagesBytes bounds the bytes of all images held, as bufpool's and the
// free lists' bounds do: eight images of a 1024 x 1024 input.
const imagesBytes = 64 << 20

// imagesHeld counts the bytes of the images of every unreleased Images.
var imagesHeld atomic.Int64

// NewImages returns an empty store of local images.
func NewImages() *Images {
	return &Images{of: make(map[imageKey]*image)}
}

// Keep returns in with its local images kept in s. A plan's inputs share
// one Images, which they are numbered in, so keep each once.
func (s *Images) Keep(in Input) Input {
	s.mu.Lock()
	defer s.mu.Unlock()
	in.kept, in.id = s, s.inputs
	s.inputs++
	return in
}

// Release gives the bytes of s's images back to the budget and drops
// them; a fill through s from then on makes its columns as though its
// input were not kept. Releasing twice is harmless.
func (s *Images) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	imagesHeld.Add(-s.bytes)
	s.bytes, s.of = 0, nil
}

// image returns a's share's image of in, kept in s (nil: nothing is
// kept), making it on the first call; nil when it does not fit.
func (s *Images) image(in Input, a *Array) []float64 {
	if s == nil {
		return nil
	}
	key := imageKey{in.id, a.dmap, a.proc}
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return nil
	}
	img := s.of[key]
	if img == nil {
		img = new(image)
		s.of[key] = img
	}
	s.mu.Unlock()
	img.once.Do(func() {
		n := int64(a.rows) * int64(a.cols) * 8
		if imagesHeld.Add(n) > imagesBytes {
			imagesHeld.Add(-n)
			return
		}
		s.mu.Lock()
		if s.released {
			s.mu.Unlock()
			imagesHeld.Add(-n)
			return
		}
		s.bytes += n
		s.mu.Unlock()
		data := make([]float64, a.rows*a.cols)
		a.image(in, data)
		img.data = data
	})
	return img.data
}
