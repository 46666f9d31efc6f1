"""Spectrum construction, canonicalization, families, serialization."""

import json

import numpy as np
import pytest

from qpe_bounds import BlockFim, Spectrum, make_spectrum
from qpe_bounds.errors import DegenerateSpectrum
from qpe_bounds.spectrum import (
    geometric_overlaps,
    head_dense_phases,
    tail_dense_phases,
    uniform_phases,
)


def test_sorts_phases_and_carries_overlaps():
    # only a sorted copy is read (gap, coincidence check); the stored order
    # stays as given, and each overlap stays with its own phase
    s = Spectrum([0.5, -0.5, 1.5], [0.2, 0.5, 0.3])
    assert s.phases.tolist() == [0.5, -0.5, 1.5]
    assert s.overlaps.tolist() == [0.2, 0.5, 0.3]
    assert s.gap == 1.0
    ascending = Spectrum([-0.5, 0.5, 1.5], [0.5, 0.2, 0.3])
    assert ascending.gap == s.gap
    assert ascending.second_moment() == pytest.approx(s.second_moment())
    with pytest.raises(DegenerateSpectrum):
        Spectrum([0.3, -0.2, 0.3], [0.2, 0.5, 0.3])


def test_labels_track_original_positions():
    # a mode's label is its position: nothing is sorted or permuted
    s = Spectrum([0.5, -0.5, 1.5], [0.2, 0.5, 0.3])
    assert s.labels.tolist() == [0, 1, 2]
    assert s.phase(0) == 0.5
    assert s.overlap(0) == 0.2
    assert s.phase(1) == -0.5
    assert s.index_of(1) == 1


def test_index_of_is_one_range_check():
    # a label is a whole number in [0, L); -1 never counts from the end
    s = Spectrum([0.5, -0.5, 1.5], [0.2, 0.5, 0.3])
    for owner in (s, BlockFim(np.eye(2 * s.L))):
        for label in (-1, s.L, 1.5, True, "0"):
            with pytest.raises(KeyError):
                owner.index_of(label)
        assert owner.index_of(0.0) == 0
        assert owner.index_of(np.int64(2)) == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        Spectrum([0.1, 0.2], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        Spectrum([0.1], [0.5])  # not normalized
    with pytest.raises(ValueError):
        Spectrum([0.1, 0.2], [-0.1, 1.1])  # negative overlap
    with pytest.raises(ValueError):
        Spectrum([4.0], [1.0])  # outside (-pi, pi]
    with pytest.raises(ValueError):
        Spectrum([np.nan], [1.0])
    with pytest.raises(DegenerateSpectrum):
        Spectrum([0.3, 0.3], [0.5, 0.5])


def test_immutable_arrays():
    mine = np.array([0.1, 0.2])
    s = Spectrum(mine, [0.4, 0.6])
    with pytest.raises(ValueError):
        s.phases[0] = 0.0
    mine[0] = 0.0  # the spectrum froze its own copy, not the caller's array
    assert s.phases[0] == 0.1


def test_gap_and_second_moment():
    s = Spectrum([-0.5, 0.25], [0.5, 0.5])
    assert s.gap == pytest.approx(0.75)
    assert s.second_moment() == pytest.approx(0.5 * 0.25 + 0.5 * 0.0625)
    assert Spectrum([0.3], [1.0]).gap == np.inf


def test_json_round_trip():
    s = Spectrum([0.5, -0.5], [0.25, 0.75])
    text = json.dumps(s.to_dict())
    back = Spectrum.from_dict(json.loads(text))
    assert np.allclose(back.phases, s.phases)
    assert np.allclose(back.overlaps, s.overlaps)
    # label order in the record matches the constructor argument order
    assert back.phase(0) == pytest.approx(s.phase(0))


def test_uniform_phases_layout():
    ph = uniform_phases(20)
    assert ph.size == 20
    assert ph[0] == pytest.approx(-0.95)
    assert ph[-1] == pytest.approx(0.95)
    assert np.allclose(np.diff(ph), 0.1)


def test_head_dense_phases_concentrate_near_start():
    ph = head_dense_phases(20)
    d = np.diff(ph)
    assert ph[0] == pytest.approx(-1.0)
    assert ph[-1] == pytest.approx(1.0)
    assert d[0] < d[-1]
    assert np.all(d > 0)


def test_tail_dense_phases_reverse_head():
    head = head_dense_phases(20)
    tail = tail_dense_phases(20)
    assert np.allclose(tail[::-1], head)


def test_geometric_overlaps_normalized_and_decaying():
    c = geometric_overlaps(20, 0.4)
    assert c.sum() == pytest.approx(1.0)
    assert np.all(np.diff(c) < 0)
    assert c[0] == pytest.approx(0.6 / (1 - 0.4**20))
    with pytest.raises(ValueError):
        geometric_overlaps(5, 1.0)


def test_make_spectrum_families():
    for name in ("uniform", "head_dense", "tail_dense"):
        s = make_spectrum(name, 20, 0.4)
        assert s.L == 20
        # label 0 carries the largest overlap regardless of phase order
        assert s.overlap(0) == pytest.approx(geometric_overlaps(20, 0.4)[0])
    with pytest.raises(ValueError):
        make_spectrum("bogus", 20, 0.4)


def test_tail_dense_target_mode_sits_in_sparse_region():
    s = make_spectrum("tail_dense", 20, 0.4)
    # the largest-overlap mode is at the positive end where spacing is widest
    assert s.phase(0) == pytest.approx(1.0)
