"""Outcome sampling and dataset round-trips."""

import contextlib
import importlib

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import qft_outcome_probs, random_spectrum
from qpe_bounds import (
    QftSample,
    Schedule,
    Spectrum,
    estimate_curvefit_qft,
    make_spectrum,
    qft_fim,
    t_total,
    total_fim,
    ht_expectations,
    qft_probabilities,
    read_ht_csv,
    read_qft_csv,
    realize,
    sample_ht,
    sample_ht_exact,
    sample_qft,
    write_ht_csv,
    write_qft_csv,
)
from qpe_bounds.errors import NormalizationFailure
from qpe_bounds.fim import _ht_outcomes


def test_qft_probabilities_normalized_and_match_oracle():
    rng = np.random.default_rng(41)
    for n in (1, 3, 6):
        s = random_spectrum(rng)
        p = qft_probabilities(s, n)
        assert p.shape == (2**n,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        want = qft_outcome_probs(s.phases, s.overlaps, n)
        assert np.allclose(p, want, rtol=1e-12, atol=1e-15)


def test_qft_probabilities_eigenstate_on_grid_is_deterministic():
    # a phase exactly on bin y0 concentrates all mass there
    n, y0 = 5, 7
    s = Spectrum([2.0 * np.pi * y0 / 2**n], [1.0])
    p = qft_probabilities(s, n)
    assert p[y0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.delete(p, y0) < 1e-12)


def test_qft_probabilities_register_width_validation():
    # every register entry point refuses the width before any bin is built
    s = Spectrum([0.3], [1.0])
    for n in (0, 27, 12.5, True):
        with pytest.raises(ValueError):
            qft_probabilities(s, n)
        with pytest.raises(ValueError):
            sample_qft(s, n, 10)
        with pytest.raises(ValueError):
            qft_fim(s, n)
        with pytest.raises(ValueError):
            total_fim(s, "qft", n if n is True else 2**n - 1, 1, 1)


def test_sample_qft_range_determinism_and_seed_sensitivity():
    s = Spectrum([0.3, -0.8], [0.7, 0.3])
    a = sample_qft(s, 4, 500, seed=9)
    b = sample_qft(s, 4, 500, seed=9)
    c = sample_qft(s, 4, 500, seed=10)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.outcomes, c.outcomes)
    assert a.outcomes.min() >= 0 and a.outcomes.max() < 16
    assert a.N_s == 500
    with pytest.raises(ValueError):
        sample_qft(s, 4, 0)


def test_sample_qft_frequencies_track_distribution():
    s = Spectrum([0.3, -0.8], [0.7, 0.3])
    n, N_s = 4, 40000
    p = qft_probabilities(s, n)
    counts = np.bincount(sample_qft(s, n, N_s, seed=5).outcomes, minlength=2**n)
    sd = np.sqrt(p * (1.0 - p) * N_s)
    assert np.all(np.abs(counts - N_s * p) <= 5.0 * sd + 3.0)


def _small_chunks(monkeypatch):
    # the module, not the kernel function the package exports under its name;
    # qft_fim walks the derivative chunks, qft_probabilities and sample_qft
    # the plain ones
    dirichlet_module = importlib.import_module("qpe_bounds.dirichlet")
    monkeypatch.setattr(dirichlet_module, "_CHUNK", 64)
    monkeypatch.setattr(dirichlet_module, "_DERIVATIVE_CHUNK", 64)


def test_sample_qft_chunked_walk_matches_one_chunk(monkeypatch):
    # the distribution is the same bins concatenated, and the Fisher
    # matrix the same sum in another order
    n = 12
    spectra = [make_spectrum("uniform", 20, alpha) for alpha in (0.2, 0.4, 0.8)]
    whole = [(qft_probabilities(s, n), qft_fim(s, n).full()) for s in spectra]
    _small_chunks(monkeypatch)
    for s, (p, F) in zip(spectra, whole):
        assert np.array_equal(qft_probabilities(s, n), p)
        chunked = qft_fim(s, n).full()
        assert np.max(np.abs(chunked - F)) <= 1e-14 * np.max(np.abs(F))


def test_sample_qft_chunked_walk_draws_the_register_law(monkeypatch):
    # 16 chunks of 64 bins: each takes a binomial share of the shots left,
    # so the draws differ from the one-chunk multinomial but keep its law.
    # Pearson's chi^2 pools 20 seeds' histograms (cells expecting fewer than
    # 5 shots merged into one) and must not fall in either 1e-6 tail of its
    # law; the 16 chunk totals, averaged over 200 seeds, must sit within 5
    # standard errors (two-sided 5.7e-7 each).  A correct sampler fails this
    # test with probability below 3e-5 over the choice of seeds
    n, N_s = 10, 200_000
    _small_chunks(monkeypatch)
    for s in (make_spectrum("uniform", 20, 0.4), Spectrum([0.7, -1.3], [0.6, 0.4])):
        p = qft_probabilities(s, n)
        hists = np.array([
            np.bincount(sample_qft(s, n, N_s, seed=k).outcomes, minlength=2**n)
            for k in range(200)
        ])
        big = N_s * p >= 5.0
        expect = N_s * np.append(p[big], p[~big].sum())
        seen = np.column_stack([hists[:20, big], hists[:20, ~big].sum(axis=1)])
        x2, dof = np.sum((seen - expect) ** 2 / expect), 20 * (expect.size - 1)
        assert chi2.cdf(x2, dof) > 1e-6 and chi2.sf(x2, dof) > 1e-6, x2 / dof
        mass = p.reshape(-1, 64).sum(axis=1)
        totals = hists.reshape(200, -1, 64).sum(axis=2).mean(axis=0)
        z = (totals - N_s * mass) / np.sqrt(N_s * mass * (1.0 - mass) / 200)
        assert np.max(np.abs(z)) <= 5.0, z


def _scaled_register(monkeypatch, factor):
    # every register chunk the samplers read, times factor
    simulate = importlib.import_module("qpe_bounds.simulate")
    walk = simulate.register_chunks
    monkeypatch.setattr(simulate, "register_chunks",
                        lambda n, theta: (factor * K for K in walk(n, theta)))


@pytest.mark.parametrize("factor", [1 + 2e-9, 1 - 2e-9, 1 + 5e-10, 1 - 5e-10])
def test_register_probabilities_must_sum_to_one_within_1e9(monkeypatch, factor):
    s = make_spectrum("uniform", 20, 0.4)
    _small_chunks(monkeypatch)
    _scaled_register(monkeypatch, factor)
    for call in (lambda: qft_probabilities(s, 10), lambda: sample_qft(s, 10, 1000, seed=1)):
        with (pytest.raises(NormalizationFailure, match="probabilities sum to")
              if abs(factor - 1.0) > 1e-9 else contextlib.nullcontext()):
            call()


class _HalfShare(np.random.Generator):
    """A generator whose binomial places half the shots, whatever the mass."""

    def binomial(self, n, p):
        return n // 2


def test_shots_left_at_a_zero_mass_last_chunk_fall_in_the_last_bin(monkeypatch):
    # phase 0 puts all mass on bin 0 and exactly none on the second chunk.
    # A total a rounding below 1 leaves shots unplaced at such a chunk only
    # rarely, so the first chunk's share is forced to half
    s = Spectrum([0.0], [1.0])
    _small_chunks(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _HalfShare(np.random.PCG64(seed)))
    out = sample_qft(s, 7, 9, seed=2).outcomes
    assert out.tolist() == [0] * 4 + [127] * 5


def test_sample_qft_chunked_path_matches_eigenstate():
    # 2^21 bins exceeds the tabulation chunk
    n, y0 = 21, 1234
    s = Spectrum([2.0 * np.pi * y0 / 2**n], [1.0])
    out = sample_qft(s, n, 64, seed=3).outcomes
    assert np.all(out == y0)


# Both samplers against their Fisher matrices (the Bartlett identities): over
# seeded samples at the true spectrum the theta score has mean 0 and
# covariance N_s I_theta_theta.  The overlaps are free coordinates, so the
# register's c score has mean N_s, not 0, and only the theta rows are tested.
# The probability gradients come from the oracles, not the library's walks
_BARTLETT = Spectrum([0.7, -1.3], [0.6, 0.4])


def _assert_bartlett(scores, fisher):
    mean, cov = scores.mean(axis=0), np.cov(scores, rowvar=False)
    se = np.sqrt(np.diag(cov) / scores.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * se), (mean, se)
    assert np.max(np.abs(cov - fisher)) <= 0.1 * np.max(np.abs(fisher)), (cov, fisher)


def test_register_score_has_the_register_information():
    s, n, N_s = _BARTLETT, 6, 50
    p = qft_outcome_probs(s.phases, s.overlaps, n)
    h = 1e-6
    grad = np.array([
        (qft_outcome_probs(s.phases + h * e, s.overlaps, n)
         - qft_outcome_probs(s.phases - h * e, s.overlaps, n)) / (2.0 * h)
        for e in np.eye(s.L)
    ])
    scores = np.array([
        grad @ (np.bincount(sample_qft(s, n, N_s, seed=k).outcomes, minlength=2**n) / p)
        for k in range(4000)
    ])
    _assert_bartlett(scores, N_s * qft_fim(s, n).theta_theta)


def test_hadamard_test_score_has_the_schedule_information():
    s, T, N_t, N_s = _BARTLETT, 8, 8, 20
    sched = realize("qcels", T, N_t)
    t = sched.times
    C, S = ht_expectations(s, t)
    phase = np.outer(s.phases, t)
    dC = -s.overlaps[:, None] * t * np.sin(phase)
    dS = s.overlaps[:, None] * t * np.cos(phase)
    scores = []
    for k in range(4000):
        sample = sample_ht(s, sched, N_s, seed=k)
        wC = 2.0 * (sample.n_re0 - N_s * (1.0 + C) / 2.0) / (1.0 - C**2)
        wS = 2.0 * (sample.n_im0 - N_s * (1.0 + S) / 2.0) / (1.0 - S**2)
        scores.append(dC @ wC + dS @ wS)
    _assert_bartlett(np.array(scores), total_fim(s, "qcels", T, N_t, N_s).theta_theta)


def test_exact_ht_sample_reproduces_expectations():
    s = Spectrum([0.6, -0.2], [0.55, 0.45])
    sched = realize("qcels", 10, 8, seed=0)
    z = sample_ht_exact(s, sched).z_hat
    for k, t in enumerate(sched.times):
        C, S = ht_expectations(s, t)
        assert z[k].real == pytest.approx(C, abs=1e-14)
        assert z[k].imag == pytest.approx(S, abs=1e-14)


def test_sample_ht_counts_and_determinism():
    s = Spectrum([0.6, -0.2], [0.55, 0.45])
    sched = realize("csqpe", 12, 6, seed=1)
    a = sample_ht(s, sched, 200, seed=4)
    b = sample_ht(s, sched, 200, seed=4)
    c = sample_ht(s, sched, 200, seed=5)
    assert np.array_equal(a.n_re0, b.n_re0) and np.array_equal(a.n_im0, b.n_im0)
    assert not (np.array_equal(a.n_re0, c.n_re0) and np.array_equal(a.n_im0, c.n_im0))
    assert np.all(a.n_re0 + a.n_re1 == 200)
    assert np.all(a.n_im0 + a.n_im1 == 200)
    # one stream, the real part drawn before the imaginary, at the law's
    # outcome-0 probabilities; the exact sampler reads the same ones, and
    # they are (1 + C) / 2 and (1 + S) / 2 of ht_expectations
    rng = np.random.default_rng(4)
    p_re, p_im = _ht_outcomes(s, sched.times)
    assert np.array_equal(a.n_re0, rng.binomial(200, p_re))
    assert np.array_equal(a.n_im0, rng.binomial(200, p_im))
    exact = sample_ht_exact(s, sched, 200)
    assert np.array_equal(exact.n_re0, 200 * p_re) and np.array_equal(exact.n_im0, 200 * p_im)
    for p, e in zip((p_re, p_im), ht_expectations(s, sched.times)):
        assert np.max(np.abs(2.0 * p - s.overlaps.sum() - e)) <= 1e-15
    with pytest.raises(ValueError):
        sample_ht(s, sched, 0)


def test_sample_ht_statistics_track_expectations():
    s = Spectrum([0.6, -0.2], [0.55, 0.45])
    sched = realize("qcels", 10, 8, seed=0)
    N_s = 20000
    z = sample_ht(s, sched, N_s, seed=11).z_hat
    for k, t in enumerate(sched.times):
        C, S = ht_expectations(s, t)
        assert abs(z[k].real - C) <= 5.0 * np.sqrt((1.0 - C**2) / N_s) + 1e-9
        assert abs(z[k].imag - S) <= 5.0 * np.sqrt((1.0 - S**2) / N_s) + 1e-9


def test_qft_csv_round_trip(tmp_path):
    s = Spectrum([0.3, -0.8], [0.7, 0.3])
    samples = [sample_qft(s, 4, 50, seed=k) for k in range(3)]
    path = tmp_path / "qft.csv"
    write_qft_csv(samples, path, header_comment="# run meta seed=0")
    back = read_qft_csv(path, 4)
    assert len(back) == 3
    for orig, rec in zip(samples, back):
        assert rec.n == 4
        assert np.array_equal(orig.outcomes, rec.outcomes)


def test_ht_csv_round_trip_is_exact(tmp_path):
    s = Spectrum([0.6, -0.2], [0.55, 0.45])
    sched = realize("qmegs", 30, 12, seed=2)
    samples = [sample_ht(s, sched, 17, seed=k) for k in range(2)]
    path = tmp_path / "ht.csv"
    write_ht_csv(samples, path, header_comment="# run meta seed=2")
    back = read_ht_csv(path)
    assert len(back) == 2
    for orig, rec in zip(samples, back):
        assert np.array_equal(orig.times, rec.times)  # repr round-trip
        assert np.array_equal(orig.n_re0, rec.n_re0)
        assert np.array_equal(orig.n_im1, rec.n_im1)
        assert rec.N_s == 17.0


def test_csv_readers_skip_comment_lines(tmp_path):
    path = tmp_path / "with_comments.csv"
    path.write_text("# one\n# two\ntrial,y\n0,3\n0,5\n1,2\n")
    back = read_qft_csv(path, 3)
    assert np.array_equal(back[0].outcomes, [3, 5])
    assert np.array_equal(back[1].outcomes, [2])


def test_sample_files_end_lines_in_a_bare_newline(tmp_path):
    s = Spectrum([0.3, -0.8], [0.7, 0.3])
    ht = tmp_path / "ht.csv"
    write_ht_csv([sample_ht(s, realize("qcels", 8, 4), 5, seed=k) for k in range(2)], ht, "# c")
    qft = tmp_path / "qft.csv"
    write_qft_csv([sample_qft(s, 3, 6, seed=k) for k in range(2)], qft, "# c")
    for path, rows in ((ht, 8), (qft, 12)):
        data = path.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == rows + 2


def test_csv_readers_take_crlf_files(tmp_path):
    # the layout csv.writer gave: the comment line ends in LF, every other in CRLF
    qft = tmp_path / "qft.csv"
    qft.write_bytes(b"# c\ntrial,y\r\n0,3\r\n0,5\r\n1,2\r\n")
    back = read_qft_csv(qft, 3)
    assert [b.outcomes.tolist() for b in back] == [[3, 5], [2]]
    ht = tmp_path / "ht.csv"
    ht.write_bytes(
        b"# c\ntrial,t,n_re0,n_re1,n_im0,n_im1\r\n"
        b"0,0.1,3.0,2.0,4.0,1.0\r\n0,0.30000000000000004,1.0,4.0,2.5,2.5\r\n"
    )
    (rec,) = read_ht_csv(ht)
    assert rec.times.tolist() == [0.1, 0.30000000000000004]
    assert rec.n_im0.tolist() == [4.0, 2.5] and rec.N_s == 5.0


@pytest.mark.parametrize("rows, message", [
    # N_s = 4 from trial 1's first row; its second row's real pair sums to 10
    (["0,0.5,1,3,2,2", "1,1.5,3,1,2,2", "1,2.5,10,0,1,3"],
     "trial 1 has a counter pair that does not sum to N_s=4.0"),
    (["0,0.5,1,3,2,2", "0,0.7,1,3,2,1"], "trial 0 has a counter pair that does not sum to N_s=4.0"),
    (["0,0.5,1,3,2,2", "0,2.0,-3,7,2,2"], "trial 0 has a negative counter"),
    (["0,0.5,1,3,2,2", "0,2.0,1,3,-1,5"], "trial 0 has a negative counter"),
])
def test_ht_reader_refuses_counters_no_sampler_writes(tmp_path, rows, message):
    path = tmp_path / "ht.csv"
    path.write_text("\n".join(["trial,t,n_re0,n_re1,n_im0,n_im1", *rows, ""]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_ht_csv(path)


def test_ht_reader_takes_the_exact_sampler_fractional_counters(tmp_path):
    # N p + (N - N p) is N again in floating point, so every row's pair sums to N_s
    s = make_spectrum("uniform", 20, 0.4)
    samples = [sample_ht_exact(s, realize("qmegs", 1000, 5000, seed=k), N_s)
               for k, N_s in enumerate((1, 7, 10**5))]
    path = tmp_path / "ht.csv"
    write_ht_csv(samples, path)
    for orig, rec in zip(samples, read_ht_csv(path), strict=True):
        assert rec.N_s == orig.N_s
        assert np.array_equal(rec.n_re1, orig.n_re1) and np.array_equal(rec.n_im1, orig.n_im1)


@pytest.mark.parametrize("bad", [5000, 4096, -1])
def test_qft_reader_refuses_a_bin_outside_the_register(tmp_path, bad):
    path = tmp_path / "qft.csv"
    path.write_text(f"trial,y\n0,4095\n1,3\n1,{bad}\n")
    with pytest.raises(ValueError, match=rf"^trial 1 has a bin outside \[0, 2\^12\)$"):
        read_qft_csv(path, 12)
    with pytest.raises(ValueError, match="^n must be between 1 and 26$"):
        read_qft_csv(path, 27)


def test_the_reader_and_the_fit_share_one_register_bin_rule(tmp_path):
    # the edges of a 4-qubit register: 0 and 15 are bins, -1 and 16 are not
    s = Spectrum([0.3, -0.5], [0.6, 0.4])
    shots = sample_qft(s, 4, 2000, seed=3).outcomes
    for edge in (0, 15):
        y = np.append(shots, edge)
        path = tmp_path / "qft.csv"
        write_qft_csv([QftSample(4, y)], path)
        (read,) = read_qft_csv(path, 4)
        assert np.array_equal(read.outcomes, y)
        assert np.isfinite(estimate_curvefit_qft(QftSample(4, y)).theta_hat)
    for bad in (-1, 16):
        y = np.append(shots, bad)
        path.write_text("trial,y\n" + "".join(f"0,{v}\n" for v in y))
        with pytest.raises(ValueError, match=r"^trial 0 has a bin outside \[0, 2\^4\)$"):
            read_qft_csv(path, 4)
        with pytest.raises(ValueError, match=r"^the sample has a bin outside \[0, 2\^4\)$"):
            estimate_curvefit_qft(QftSample(4, y))


@pytest.mark.parametrize("reader, text, message", [
    # a row with a missing column, which read as an IndexError
    (read_ht_csv, "trial,t,n_re0,n_re1,n_im0,n_im1\n0,0.5,1,3,2\n",
     "trial 0, line 2 has 5 columns, not 6"),
    (read_ht_csv, "# c\ntrial,t,n_re0,n_re1,n_im0,n_im1\n0,0.5,1,3,2,2\n1,0.5,1,3,2,2,7\n",
     "trial 1, line 4 has 7 columns, not 6"),
    (read_ht_csv, "trial,t,n_re0,n_re1,n_im0,n_im1\n0,0.5,1,3,2,2\n0,0.7,one,3,2,2\n",
     "trial 0, line 3 has 'one', not a number"),
    # a bin that is not a number, which read as int()'s own message
    (lambda path: read_qft_csv(path, 4), "trial,y\n0,x\n",
     "trial 0, line 2 has 'x', not a whole number"),
    (lambda path: read_qft_csv(path, 4), "# c\ntrial,y\n1,3\n0,2\n1,2.5\n",
     "trial 1, line 5 has '2.5', not a whole number"),
    (lambda path: read_qft_csv(path, 4), "trial,y\n0,3\nzero,2\n",
     "line 3 has the trial 'zero', not a whole number"),
])
def test_sample_readers_name_the_trial_and_line_of_a_malformed_row(tmp_path, reader, text, message):
    path = tmp_path / "sample.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reader(path)


def test_fractional_shot_counts_are_rejected_not_truncated():
    # a binomial or shot count cannot be 2.5; drawing 2 and charging 2.5
    # would put fractional counts into n_re1 and scale the cost wrongly
    s = Spectrum([0.3, -0.5], [0.6, 0.4])
    sched = realize("qcels", 10, 4)
    calls = {
        "sample_ht": lambda N_s: sample_ht(s, sched, N_s, seed=1).n_re1,
        "sample_qft": lambda N_s: sample_qft(s, 4, N_s, seed=1).outcomes,
        "t_total": lambda N_s: t_total("qcels", 10, 4, N_s),
        "total_fim": lambda N_s: total_fim(s, "qcels", 10, 4, N_s).full(),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="N_s=2.5 is not a whole number"):
            call(2.5)
        assert np.array_equal(call(4.0), call(4)), name


@pytest.mark.parametrize("N_s", [-3, 0, 2.5, np.nan], ids=["-3", "0", "2.5", "nan"])
def test_exact_ht_sample_refuses_what_sample_ht_refuses(N_s):
    # it returned negative or NaN counters for these shot counts
    s = Spectrum([0.3, -0.5], [0.6, 0.4])
    sched = realize("qcels", 10, 2)
    with pytest.raises(ValueError, match=f"N_s={N_s}"):
        sample_ht(s, sched, N_s)
    with pytest.raises(ValueError, match=f"N_s={N_s}"):
        sample_ht_exact(s, sched, N_s)


def test_ht_samplers_take_overlaps_that_sum_a_rounding_above_one():
    # the spectrum accepts these overlaps, yet their sum C(0) is
    # 1.0000000000000004, so (1 + C) / 2 passes 1 before it is clipped
    s = Spectrum(
        np.linspace(-0.9, 0.9, 5),
        [0.4712589073634205, 0.030878859857482194, 0.09406175771971499,
         0.28218527315914493, 0.12161520190023756],
    )
    assert ht_expectations(s, 0.0)[0] > 1.0
    sched = Schedule("qmegs", 1.0, 1, np.array([0.0]))
    for sample in (sample_ht(s, sched, 7, seed=1), sample_ht_exact(s, sched, 7)):
        counts = np.array([sample.n_re0, sample.n_re1, sample.n_im0, sample.n_im1])
        assert np.all(counts >= 0.0) and np.all(counts <= 7.0)
    assert sample_ht(s, sched, 7, seed=1).n_re0[0] == 7.0
