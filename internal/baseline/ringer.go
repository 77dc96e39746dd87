package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Ringer errors.
var (
	// ErrMissingRinger indicates the participant failed to report a planted
	// ringer — evidence it skipped part of its domain.
	ErrMissingRinger = errors.New("baseline: planted ringer not reported")
	// ErrNotOneWay is returned when the ringer scheme is requested for a
	// workload without the one-way property it requires.
	ErrNotOneWay = errors.New("baseline: ringer scheme requires a one-way f")
)

// RingerSet is the supervisor's state for one Golle-Mironov exchange: m
// pre-computed images f(x_j) for secret inputs x_j scattered through the
// participant's domain. The participant receives only the images; to report
// the matching inputs it must evaluate f across the domain — the scheme's
// whole leverage, and the reason it only works when f is one-way
// (Section 1.1).
type RingerSet struct {
	// Images are the f(x_j) values handed to the participant, sorted to
	// hide plant order.
	Images [][]byte
	// secrets are the planted inputs, kept supervisor-side.
	secrets []uint64
	// imageIndex maps image bytes to plant position for verification.
	imageIndex map[string]int
}

// PlantRingers precomputes m ringers over the domain [0, n) using eval (the
// supervisor's own access to f). Duplicate plants are re-drawn so the m
// secrets are distinct; m must not exceed n. The images are copied into the
// set, so eval may reuse one buffer between calls.
func PlantRingers(eval func(x uint64) []byte, n uint64, m int, rng *rand.Rand) (*RingerSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadDomain, n)
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	if uint64(m) > n {
		return nil, fmt.Errorf("baseline: cannot plant %d distinct ringers in a domain of %d", m, n)
	}
	if eval == nil {
		return nil, errors.New("baseline: nil eval function")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}

	chosen := make(map[uint64]struct{}, m)
	secrets := make([]uint64, 0, m)
	for len(secrets) < m {
		x := uint64(rng.Int63n(int64(n)))
		if _, dup := chosen[x]; dup {
			continue
		}
		chosen[x] = struct{}{}
		secrets = append(secrets, x)
	}

	set := &RingerSet{
		Images:     make([][]byte, m),
		secrets:    secrets,
		imageIndex: make(map[string]int, m),
	}
	for j, x := range secrets {
		img := bytes.Clone(eval(x))
		set.Images[j] = img
		set.imageIndex[string(img)] = j
	}
	// Sort images so their order leaks nothing about plant positions.
	sort.Slice(set.Images, func(a, b int) bool {
		return string(set.Images[a]) < string(set.Images[b])
	})
	return set, nil
}

// M reports the number of planted ringers.
func (rs *RingerSet) M() int { return len(rs.secrets) }

// Secrets returns a copy of the planted inputs; tests and experiments use it
// as ground truth.
func (rs *RingerSet) Secrets() []uint64 {
	return append([]uint64(nil), rs.secrets...)
}

// FindRingers is the honest participant-side scan: evaluate claim over the
// whole domain and report every input whose value matches a ringer image.
// Passing a cheater's claim function models the lazy participant: it only
// discovers ringers that land in the part of the domain it really computed
// (a guessed value matches an image only with negligible probability).
func (rs *RingerSet) FindRingers(claim func(x uint64) []byte, n uint64) []uint64 {
	images := make(map[string]struct{}, len(rs.Images))
	for _, img := range rs.Images {
		images[string(img)] = struct{}{}
	}
	var found []uint64
	for x := uint64(0); x < n; x++ {
		if _, ok := images[string(claim(x))]; ok {
			found = append(found, x)
		}
	}
	return found
}

// Verify checks the participant's reported ringer inputs: every planted
// secret must be present. Extra reported inputs are ignored (they may be
// legitimate collisions). A missing secret convicts the participant.
func (rs *RingerSet) Verify(reported []uint64) error {
	have := make(map[uint64]struct{}, len(reported))
	for _, x := range reported {
		have[x] = struct{}{}
	}
	for _, secret := range rs.secrets {
		if _, ok := have[secret]; !ok {
			return &SampleError{Index: secret, Err: ErrMissingRinger}
		}
	}
	return nil
}
