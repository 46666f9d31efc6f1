"""Correctness gate: every run's CSVs against the committed references.

The references were written by the CLI at ``REFERENCE_SEED``.  Accounting
columns do not depend on the seed and must match to the quadrature's own
relative tolerance.  Sampled columns do, so they are checked statistically:
``mse`` against the reference and the efficiency ratio ``R`` against the
criterion-10 bands, both at the coverage of three standard errors.
"""

import csv
import math

from scipy.stats import norm, t as student_t

REFERENCE_SEED = 42
KEY = ("spectrum", "L", "alpha", "protocol", "T")
ACCOUNTING_COLUMNS = ("c0", "g0", "gamma", "bound", "t_total", "f0_max")
REL_TOL = 1e-6
# diag_ratio tolerances, from perturbing the accounting of this workload:
# - qmegs rows: the cc block is a regularised surrogate at the quadrature's
#   stopping resolution.  Tightening rel_tol from 1e-6 to 1e-8 moved
#   diag_ratio by up to 1e-4 on the uniform rows while g0 moved by 4e-10.
# - breakdown rows (diag_ratio >= 1e3, the head_dense short horizons): the
#   matrix is so ill-conditioned that a 1e-14 relative perturbation of the
#   Fisher blocks moves diag_ratio by up to 4e-4 (qcels), and the tighter
#   quadrature moved a qmegs entry by 72%.  Only its order of magnitude is
#   a result there.
QMEGS_DIAG_TOL = 1e-3
BREAKDOWN = 1e3
BREAKDOWN_FACTOR = 10.0
# Statistical checks reject at the coverage of three normal standard errors
# (99.73%), with the Student-t quantile for the trials behind the estimate:
# squared errors are heavy-tailed, and with a dozen trials a plain 3-sigma
# test rejects correct code on roughly one seed in 300.
COVERAGE = 2.0 * norm.cdf(3.0) - 1.0
R_BAND = (0.5, 3.0)
R_BANDED = ("qmegs", "qft")
R_ABOVE_QMEGS = ("csqpe", "qcels")


def read_csv(path):
    """(header comment, list of row dicts) of a CSV the CLI wrote."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        return header, list(csv.DictReader(fh))


def _key(row):
    return tuple(row.get(k) for k in KEY)


def _float(text):
    return float(text) if text not in (None, "") else math.nan


def _close(a, b, tol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(a), abs(b))


def compare(name, rows, ref_rows):
    """Problems found comparing one command's rows with its reference."""
    problems = []
    ref = {_key(r): r for r in ref_rows}
    got = {_key(r): r for r in rows}
    if len(got) != len(rows) or set(got) != set(ref):
        return [f"{name}: rows {sorted(got)} differ from the reference rows {sorted(ref)}"]
    for key, row in got.items():
        want = ref[key]
        where = f"{name} {dict(zip(KEY, key))}"
        if set(row) != set(want):
            problems.append(f"{where}: columns {sorted(row)} differ from {sorted(want)}")
            continue
        if row.get("error"):
            problems.append(f"{where}: error {row['error']!r}")
            continue
        for col in ("N_t", "N_s", "trials"):
            if col in want and row[col] != want[col]:
                problems.append(f"{where}: {col} {row[col]} != {want[col]}")
        for col in ACCOUNTING_COLUMNS:
            a, b = _float(row.get(col)), _float(want.get(col))
            if col in want and not _close(a, b, REL_TOL):
                problems.append(f"{where}: {col} {a!r} vs reference {b!r} (rel tol {REL_TOL:g})")
        if "diag_ratio" in want:
            problems += _check_diag(where, _float(row["diag_ratio"]), _float(want["diag_ratio"]), key[3])
        if "mse" in want:
            problems += _check_mse(where, row, want)
    return problems


def _check_diag(where, a, b, protocol):
    if b >= BREAKDOWN:
        ok = b / BREAKDOWN_FACTOR <= a <= b * BREAKDOWN_FACTOR
        tol = f"factor {BREAKDOWN_FACTOR:g}"
    else:
        rel = QMEGS_DIAG_TOL if protocol == "qmegs" else REL_TOL
        ok, tol = _close(a, b, rel), f"rel tol {rel:g}"
    return [] if ok else [f"{where}: diag_ratio {a!r} vs reference {b!r} ({tol})"]


def sigmas(trials):
    """Standard errors a statistic of ``trials`` samples may lie from its target."""
    return float(student_t.ppf(0.5 + COVERAGE / 2.0, trials - 1))


def _check_mse(where, row, want):
    mse, se = _float(row["mse"]), _float(row["mse_se"])
    ref, ref_se = _float(want["mse"]), _float(want["mse_se"])
    # two independent seeds: the difference has variance se^2 + ref_se^2
    k = sigmas(min(int(row["trials"]), int(want["trials"])))
    allowed = k * math.hypot(se, ref_se)
    if not abs(mse - ref) <= allowed:
        return [f"{where}: mse {mse!r} is {abs(mse - ref):.3g} from the reference "
                f"{ref!r}, more than {k:.3g} combined standard errors ({allowed:.3g})"]
    return []


def check_bands(name, rows):
    """Criterion-10 bands on R, with its standard error R * mse_se / mse.

    A protocol fails its band only when R lies outside it by more than
    ``sigmas(trials)`` standard errors: with a dozen heavy-tailed trials a
    plain band rejects correct code on about one seed in twenty.
    """
    problems = []
    by_alpha = {}
    for row in rows:
        if row.get("error"):
            continue
        r, mse, se = _float(row["ratio_r"]), _float(row["mse"]), _float(row["mse_se"])
        margin = sigmas(int(row["trials"])) * (r * se / mse if mse > 0 else 0.0)
        by_alpha.setdefault(row["alpha"], {})[row["protocol"]] = r
        lo, hi = R_BAND
        if row["protocol"] in R_BANDED and not (r + margin >= lo and r - margin <= hi):
            problems.append(f"{name} {row['protocol']} alpha={row['alpha']}: R={r:.3g} "
                            f"(margin {margin:.2g}) is outside [{lo:g}, {hi:g}]")
    for alpha, ratios in by_alpha.items():
        if "qmegs" not in ratios:
            continue
        for kind in R_ABOVE_QMEGS:
            if kind in ratios and not ratios[kind] > ratios["qmegs"]:
                problems.append(f"{name} alpha={alpha}: R({kind})={ratios[kind]:.3g} "
                                f"is not above R(qmegs)={ratios['qmegs']:.3g}")
    return problems


def check_header(name, header, ref_header, seed):
    want = ref_header.replace(f"seed={REFERENCE_SEED}", f"seed={seed}")
    return [] if header == want else [f"{name}: header {header!r}, expected {want!r}"]
