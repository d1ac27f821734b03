"""Acceptance gate: every criterion at its stated tolerance.

Each case prints one PASS/FAIL line per criterion entry (through the
capture, so the lines always appear in the terminal).  Tolerances are
pinned inside :mod:`chainrec.verify`; nothing here loosens them.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import scipy.integrate

from chainrec import exact, verify
from chainrec.cli import main
from oracles import height_factor_density

CRITERIA = list(verify.CRITERIA)


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(cid, capsys):
    results = verify.CRITERIA[cid](verify.DEFAULT_SEED, {}, 1)
    with capsys.disabled():
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"\n[{status}] {r.criterion}: {r.name} "
                f"(value={r.value:.6g}, target={r.target:.6g}, tolerance={r.tolerance:.6g})",
                end="",
            )
    failed = [r.as_dict() for r in results if not r.passed]
    assert not failed, failed


def test_suite_registry_covers_every_criterion():
    assert set(verify.SUITES["all"]) == set(CRITERIA)
    listed = [c for s in ("exact", "oracle", "asymptotic", "limit", "repro")
              for c in verify.SUITES[s]]
    assert sorted(listed) == sorted(CRITERIA)


@pytest.mark.parametrize("tolerance", [None, 5.0])
@pytest.mark.parametrize("cid", ["c01", "c03"])
def test_exact_count_criteria_pass_iff_the_count_is_within_the_tolerance(
    cid, tolerance, monkeypatch
):
    # one wrong d=1 entry: p_5 = 1 is neither 1/5 nor at most the weak p_5 = 1/5
    table = exact.chain_record_prob_table

    def one_wrong_entry(d, n_max, **kwargs):
        probs = table(d, n_max, **kwargs)
        return probs[:4] + (Fraction(1),) + probs[5:] if d == 1 else probs

    monkeypatch.setattr(exact, "chain_record_prob_table", one_wrong_entry)
    overrides = {} if tolerance is None else {cid: tolerance}
    [result] = verify.CRITERIA[cid](verify.DEFAULT_SEED, overrides)
    assert (result.value, result.tolerance) == (1.0, tolerance or 0.0)
    assert result.passed is (tolerance is not None)


def test_c12_passes_iff_the_mismatches_are_within_the_tolerance(monkeypatch):
    def fake_cli(args, cwd):
        # every file of a run holds its arguments: the worker variants differ
        out = args[args.index("--out") + 1]
        text = repr([a for a in args if a != out])
        for suffix in ("", ".json", ".csv"):
            Path(out + suffix).write_text(text)

    monkeypatch.setattr(verify, "_cli", fake_cli)
    [strict] = verify.c12_reproducibility(verify.DEFAULT_SEED, {})
    [loose] = verify.c12_reproducibility(verify.DEFAULT_SEED, {"c12": 2.0})
    assert (strict.value, strict.passed) == (2.0, False)
    assert (loose.value, loose.tolerance, loose.passed) == (2.0, 2.0, True)


def test_cli_child_runs_the_callers_package(tmp_path, monkeypatch):
    # a relative PYTHONPATH does not resolve from the child's temp cwd
    monkeypatch.setenv("PYTHONPATH", "src")
    child = tmp_path / "t.csv"
    verify._cli(["exact", "--d", "2", "--n", "6", "--out", str(child)], tmp_path)
    here = tmp_path / "here.csv"
    assert main(["exact", "--d", "2", "--n", "6", "--out", str(here)]) == 0
    assert child.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("d, beta, t", list(product((1, 2), (1, 2), (0.5, 1.0, 2.0))))
def test_c05_laguerre_integral_matches_adaptive_quadrature(d, beta, t):
    # the integral in s on (0, 1] that the Gauss-Laguerre rule replaced
    def integrand(s):
        return s**beta * exact.moment_series(d, beta, t * s) * height_factor_density(d, s)

    reference, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(verify._renewal_integral(d, beta, t) - reference) < 1e-10


def test_c04_passes_when_its_tolerance_equals_its_value():
    [result] = verify.c04_poisson_mixture(verify.DEFAULT_SEED, {})
    assert result.value > 0.0
    [at_value] = verify.c04_poisson_mixture(verify.DEFAULT_SEED, {"c04": result.value})
    assert (at_value.tolerance, at_value.passed) == (result.value, True)
