"""Acceptance gate: every criterion at its stated tolerance.

Each case prints one PASS/FAIL line per criterion entry (through the
capture, so the lines always appear in the terminal).  Tolerances are
pinned inside :mod:`chainrec.verify`; nothing here loosens them.
"""

from itertools import product

import pytest
import scipy.integrate

from chainrec import exact, verify
from chainrec.cli import main

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
        return s**beta * exact.moment_series(d, beta, t * s) * exact.height_factor_density(d, s)

    reference, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(verify._renewal_integral(d, beta, t) - reference) < 1e-10
