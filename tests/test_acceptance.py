"""End-to-end acceptance gates for the package.

Each test here is a release gate: it pins the scope (primes, degrees,
sample counts, grids) and the tolerance it must meet, so a regression
anywhere in the stack fails loudly.  The unit-test modules probe the
same machinery piecewise; this module asserts the advertised guarantees
in one place, including the wall-clock budgets for the exhaustive runs.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest
from mpmath import mp

from fsusy.afalg import AAlgebra, a_axiom_suite
from fsusy.bessel import bessel_eval
from fsusy.cli import main
from fsusy.duality import (
    DualityContext,
    duality_suite,
    fractional_root_suite,
    integral_suite,
    reo_conformance,
    star_representation_suite,
)
from fsusy.kernels import KernelParams, QuadrantPoint, d_ladder_suite, kernel_eval, kernel_verify
from fsusy.pirep import gram_signature, representation_suite
from fsusy.scalars import FieldContext
from fsusy.ufalg import UAlgebra, u_axiom_suite

PRIMES = (3, 5, 7)


def _ctx(p):
    return FieldContext(p)


def _assert_passed(report):
    assert report.passed, report.summary()


# -- gate 1: Hopf axioms, exact, three primes, 200 random samples --


def test_hopf_axioms_exact_across_primes():
    t0 = time.perf_counter()
    for p in PRIMES:
        ctx = _ctx(p)
        _assert_passed(u_axiom_suite(UAlgebra(ctx), degree_bound=3, samples=200, seed=1))
        _assert_passed(a_axiom_suite(AAlgebra(ctx), degree_bound=2, samples=200, seed=1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"axiom suites took {elapsed:.1f}s, budget 120s"


# -- gate 2: duality pairing, exact on bounded monomial pairs --


@pytest.mark.parametrize("p", (3, 5))
def test_duality_pairing_exact(p):
    _assert_passed(duality_suite(_ctx(p), exponent_bound=2, samples=50, seed=1))


# -- gate 3: nilpotency survives the coproduct; the fractional root holds
#    in the representation on a long window and symbolically of degree 4 --


@pytest.mark.parametrize("p", PRIMES)
def test_coproduct_nilpotency(p):
    alg = AAlgebra(_ctx(p))
    assert (alg.eta_plus().coproduct() ** p).is_zero()
    assert (alg.eta_minus().coproduct() ** p).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_representation_fractional_root_on_window(p):
    report = representation_suite(_ctx(p), chain_length=3 * p)
    _assert_passed(report)
    roots = [row for row in report.checks if row[0].startswith("root_")]
    assert len(roots) == 4 and all(row[1] for row in roots)


@pytest.mark.parametrize("p", (3, 5))
def test_right_action_fractional_root_symbolic(p):
    _assert_passed(fractional_root_suite(_ctx(p), degree_bound=4))


# -- gate 4: the grading projector system, exact --


@pytest.mark.parametrize("p", PRIMES)
def test_grading_projector_system(p):
    ctx = _ctx(p)
    alg = AAlgebra(ctx)
    zetas = [alg.zeta_projector(j) for j in range(p)]
    dd = alg.delta()
    total = alg.zero()
    for j, zj in enumerate(zetas):
        total = total + zj
        assert zj * zj == zj
        assert dd * zj == zj * ctx.q(j)
        for j2 in range(j + 1, p):
            assert (zj * zetas[j2]).is_zero()
    assert total == alg.one()
    for j in range(p):
        back = alg.zero()
        for m in range(p):
            back = back + zetas[m] * ctx.q(j * m)
        assert back == alg.delta(j)


# -- gate 5: Gram signature of the cyclic form --


@pytest.mark.parametrize("p", PRIMES)
def test_gram_signature(p):
    sig = gram_signature(p)
    assert (sig.n_plus, sig.n_minus, sig.n_zero) == ((p + 1) // 2, (p - 1) // 2, 0)


# -- gate 6: invariant integral and formal adjointness on the Gaussian sector --


@pytest.mark.parametrize("p", PRIMES)
def test_integral_value_and_invariance(p):
    ctx = _ctx(p)
    report = integral_suite(ctx)
    _assert_passed(report)
    dual = DualityContext(ctx)
    top = dual.aalg.monomial(n=p - 1, m=p - 1)
    assert dual.grassmann_integral(top) == ctx.q(-1)


def test_star_adjointness_recorded():
    report = star_representation_suite(_ctx(3), zbound=1)
    _assert_passed(report)
    for g in ("k", "H", "P+", "P-"):
        assert any(row[0] == f"self_adjoint[{g}]" and row[1] for row in report.checks)
    # the fractional pair has no asserted adjoint; the candidate tallies
    # must be present in the record
    assert "adjoint_candidate[p+ vs p-]" in report.measurements
    assert "adjoint_candidate[p- vs p+]" in report.measurements


# -- gate 7: closed right-action formulas against the duality route --


@pytest.mark.parametrize("p", (3, 5))
def test_right_action_conformance(p):
    report = reo_conformance(_ctx(p))
    _assert_passed(report)
    assert "ratio[p+]" in report.measurements
    assert "ratio[p-]" in report.measurements


# -- gate 8: kernel grid, two independent routes, quadrant tolerances --


def test_kernel_grid_two_routes():
    report = kernel_verify()
    _assert_passed(report)
    rows = report.measurements["rows"]
    assert len(rows) == 4 * 3 * 3 * 3 * 3
    for row in rows:
        assert row["rel_err"] < 1e-8, row
    assert report.measurements["elapsed_seconds"] < 300


# -- gate 9: cylinder-function identities at pinned tolerances --


def test_cylinder_function_identities():
    def val(kind, order, x):
        return bessel_eval(kind, order, x, precision="1e-24").to_mpc()

    with mp.workdps(50):
        got = val("K", Fraction(1, 2), 1)
        assert abs(got - mp.sqrt(mp.pi / 2) / mp.e) < mp.mpf("1e-10")

        nu, x = mp.mpf("0.4"), mp.mpf("1.5")
        resid = val("K", nu + 1, x) - val("K", nu - 1, x) - (2 * nu / x) * val("K", nu, x)
        assert abs(resid) < mp.mpf("1e-9")

        nu, x = mp.mpf("0.3"), mp.mpf("2")
        d1 = (val("H1", nu - 1, x) - val("H1", nu + 1, x)) / 2
        d2 = (val("H2", nu - 1, x) - val("H2", nu + 1, x)) / 2
        wron = val("H1", nu, x) * d2 - d1 * val("H2", nu, x)
        assert abs(wron - (-4j / (mp.pi * x))) < mp.mpf("1e-8")

        for nu, x in ((mp.mpf("0.3"), mp.mpf("2")), (mp.mpf("-1.2"), mp.mpf("0.5"))):
            assert abs(val("H1", nu, x) - mp.conj(val("H2", nu, x))) < mp.mpf("1e-10")


# -- gate 10: the ladder of symmetry actions on the kernel family --


@pytest.mark.parametrize("n", (0, 1))
def test_symmetry_ladder(n):
    report = d_ladder_suite(n=n, nu=Fraction(1, 5))
    _assert_passed(report)
    labels = [row[0] for row in report.checks]
    assert any(lbl.startswith("kappa rescales") for lbl in labels)
    assert any("alternative omega denominator breaks" in lbl for lbl in labels)


# -- gate 11: reports are byte-reproducible up to the timestamp --


def _canonical(path):
    lines = path.read_text().splitlines()
    return "\n".join(
        ln for ln in lines if '"timestamp"' not in ln and not ln.startswith("# timestamp")
    )


def test_cli_reports_reproducible(tmp_path, capsys):
    pairs = []
    for tag, argv in (
        ("sig", ["signature", "--p", "5"]),
        ("ker", ["kernel-verify", "--quad", "2"]),
        ("pair", ["pair", "p+^2", "e+^2", "--format", "json"]),
    ):
        outs = []
        for run in ("a", "b"):
            path = tmp_path / f"{tag}-{run}.out"
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path)
        pairs.append(outs)
        capsys.readouterr()
    for first, second in pairs:
        assert _canonical(first) == _canonical(second)


def test_cli_signature_example(capsys):
    assert main(["signature", "--p", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"n_plus": 3, "n_minus": 2, "n_zero": 0}


def test_cli_normalization_example(capsys):
    assert main(["normalize-u", "--p", "3", "k p+"]) == 0
    assert capsys.readouterr().out == "q * p+ k\n"
