"""Command-line interface: dispatch, formats, exit codes, determinism."""

import hashlib
import json

import pytest
from mpmath import mp

from fsusy.cli import CONVENTIONS, _join_negative_values, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# -- normalization and products --


def test_normalize_u_example(capsys):
    code, out, err = run(capsys, "normalize-u", "--p", "3", "k p+")
    assert code == 0
    assert out == "q * p+ k\n"


def test_normalize_a_folds_cyclic_inverse(capsys):
    code, out, _ = run(capsys, "normalize-a", "d^-1")
    assert code == 0
    assert out == "d^2\n"


def test_mul_u_collapses_to_translation(capsys):
    code, out, _ = run(capsys, "mul", "--alg", "u", "p+^2", "p+")
    assert code == 0
    assert out == "P+\n"


def test_mul_a_reorders(capsys):
    code, out, _ = run(capsys, "mul", "--alg", "a", "e-", "e+")
    assert code == 0
    assert out == "q^2 * e+ e-\n"


def test_right_act_text(capsys):
    code, out, _ = run(capsys, "right-act", "p+", "e+^2")
    assert code == 0
    assert out == "i*q^2 * e+\n"


def test_pair_payload(capsys):
    code, doc = run_json(capsys, "pair", "p+", "e+")
    assert code == 0
    pairing = doc["result"]["pairing"]
    assert set(pairing) == {"exact", "canonical", "numeric"}
    assert pairing["exact"] == "-i*q^2"


# -- envelope and ledger --


def test_envelope_embeds_config_and_conventions(capsys):
    code, doc = run_json(capsys, "signature", "--p", "5", "--seed", "9")
    assert code == 0
    assert doc["command"] == "signature"
    assert doc["config"]["p"] == 5
    assert doc["config"]["seed"] == 9
    assert doc["conventions"] == list(CONVENTIONS)
    assert "timestamp" in doc
    assert doc["result"] == {"n_plus": 3, "n_minus": 2, "n_zero": 0}


@pytest.mark.parametrize("p, plus, minus", [(3, 2, 1), (5, 3, 2), (7, 4, 3)])
def test_signature_values(capsys, p, plus, minus):
    code, doc = run_json(capsys, "signature", "--p", str(p))
    assert code == 0
    assert doc["result"]["n_plus"] == plus
    assert doc["result"]["n_minus"] == minus


def test_ledger_lists_conventions(capsys):
    code, out, _ = run(capsys, "ledger")
    assert code == 0
    assert "quadrant-table (v2)" in out
    assert "sqrt_q = -1 * q^((p+1)/2)" in out
    code, doc = run_json(capsys, "ledger")
    assert len(doc["result"]["conventions"]) == len(CONVENTIONS)
    assert doc["result"]["empirical"]["sqrt_q_sign"] == -1
    assert doc["result"]["empirical"]["left_first"] is True


# -- suites through the front door --


def test_hopf_quick(capsys):
    code, doc = run_json(capsys, "hopf", "--samples", "2")
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["enveloping"]["passed"] is True
    assert doc["result"]["functions"]["passed"] is True


def test_duality_suite_quick(capsys):
    code, doc = run_json(capsys, "duality-suite", "--samples", "2")
    assert code == 0
    assert doc["result"]["passed"] is True


def test_reo_conformance(capsys):
    code, doc = run_json(capsys, "reo-conformance")
    assert code == 0
    assert doc["result"]["passed"] is True


def test_pi_suite_quick(capsys):
    code, doc = run_json(capsys, "pi-suite", "--samples", "2", "--root-degree", "2")
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["fractional_root"]["passed"] is True


def test_ladder_suite_cli(capsys):
    code, doc = run_json(capsys, "ladder-suite", "--n", "1")
    assert code == 0
    assert doc["result"]["passed"] is True
    # volatile cache measurements must not leak into reports
    assert not any(k.endswith("_cache_entries") for k in doc["result"]["measurements"])


def test_trterm(capsys):
    code, doc = run_json(capsys, "trterm", "--n", "1", "--k", "1", "--mu", "1/3")
    assert code == 0
    assert doc["result"]["image"] == "(mu=2/3, j=1)"
    assert "e+" in doc["result"]["function_factor"]


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("trterm", "--n", "1", "--k", "1"), "--mu", "-1/3"),
        (("kernel-eval", "--quad", "2"), "--nu", "-1/5"),
        (("kernel-eval", "--quad", "3"), "--beta", "-1/2"),
        (("kernel-eval", "--quad", "1"), "--beta", "-2.5e-1"),
    ],
)
def test_negative_value_as_separate_argument(capsys, argv, option, value):
    joined = run(capsys, *argv, f"{option}={value}", "--format", "text")
    separate = run(capsys, *argv, option, value, "--format", "text")
    assert joined[0] == 0 and joined[2] == ""
    assert separate == joined


def test_only_unread_negative_values_are_joined():
    argv = ["trterm", "--mu", "-1/3", "--", "--j", "-2/5"]
    assert _join_negative_values(argv) == ["trterm", "--mu=-1/3", "--", "--j", "-2/5"]
    # forms argparse already reads as numbers are left to it
    argv = ["omega", "--literal", "-1", "--p", "-0.5"]
    assert _join_negative_values(argv) == argv


def test_omega_literal_flag(capsys):
    code, default = run_json(capsys, "omega", "0")
    assert code == 0
    code, literal = run_json(capsys, "omega", "0", "--literal")
    assert code == 0
    dc = default["result"]["coefficients"]
    lc = literal["result"]["coefficients"]
    assert dc[0] == lc[0] and dc[1] == lc[1]
    assert dc[2]["numeric"] != lc[2]["numeric"]


# -- kernel commands --


def test_kernel_eval_both_routes(capsys):
    code, doc = run_json(
        capsys, "kernel-eval", "--quad", "2", "--nu", "0.3", "--beta", "0.5"
    )
    assert code == 0
    gap = float(doc["result"]["relative_gap"])
    assert gap < 1e-12
    diag = doc["result"]["integral"]["diagnostics"]
    assert set(diag) == {
        "route", "family", "phase_sign", "theta", "cutoff", "step", "node_pairs",
        "strip", "discretisation", "tail", "rounding",
    }


def test_kernel_eval_single_route_text(capsys):
    code, out, _ = run(
        capsys, "kernel-eval", "--mode", "closed", "--quad", "3", "--format", "text"
    )
    assert code == 0
    assert out.startswith("closed: (")
    assert len(out.strip().splitlines()) == 1


def test_kernel_verify_csv(capsys):
    code, out, err = run(capsys, "kernel-verify", "--quad", "3")
    assert code == 0
    lines = out.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("conventions:" in ln and "quadrant-table@v2" in ln for ln in comments)
    table = [ln for ln in lines if not ln.startswith("#")]
    header, data = table[0], table[1:]
    assert header.split(",")[:5] == ["quadrant", "r", "rho", "beta", "exponent"]
    assert len(data) == 81  # 3 r x 3 rho x 3 beta x 3 exponents
    rel_col = header.split(",").index("rel_err")
    assert all(float(row.split(",")[rel_col]) < 1e-8 for row in data)


# -- error handling and output plumbing --


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_expression_is_usage_error(capsys):
    code, out, err = run(capsys, "normalize-u", "zz")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ("foo^x", "foo"))
@pytest.mark.parametrize("command", ("normalize-u", "normalize-a"))
def test_unknown_token_message_is_shared(capsys, command, expr):
    code, out, err = run(capsys, command, expr)
    assert code == 2
    assert out == ""
    assert err == "error: unknown generator token 'foo'\n"


@pytest.mark.parametrize(
    "argv, message",
    (
        (("duality-suite", "--bound", "-1"), "exponent_bound must be non-negative, got -1"),
        (("pi-suite", "--root-degree", "-1"), "degree_bound must be non-negative, got -1"),
        (("pi-suite", "--chain", "0"), "chain_length must be at least 1, got 0"),
        (("hopf", "--degree", "-1"), "degree_bound must be non-negative, got -1"),
        (("duality-suite", "--samples", "-1"), "samples must be non-negative, got -1"),
        (("hopf", "--samples", "-1"), "samples must be non-negative, got -1"),
        (("pi-suite", "--samples", "-1"), "samples must be non-negative, got -1"),
    ),
)
def test_empty_window_is_usage_error(capsys, argv, message):
    # an empty window would pass every check vacuously
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("normalize-a", "exp(1/0L)"),
        ("mul", "--alg", "a", "e+", "exp(1/0L)^2"),
        ("pair", "p+", "exp(1/0L)"),
        ("right-act", "p+", "exp(1/0L)"),
    ),
)
def test_zero_denominator_weight_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: unknown generator token 'exp(1/0L)'\n"


@pytest.mark.parametrize(
    "argv, prec",
    (
        (("omega", "1", "--prec", "-40", "--format", "text"), -40),
        (("pair", "--prec", "-100", "p+", "e+"), -100),
        (("kernel-eval", "--prec", "0"), 0),
    ),
)
def test_prec_below_one_is_usage_error(capsys, argv, prec):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --prec must be at least 1, got {prec}\n"


def test_bad_grid_is_usage_error(capsys):
    # kernel-verify has one grid and no --grid option
    with pytest.raises(SystemExit) as exc:
        main(["kernel-verify", "--grid", "fancy"])
    assert exc.value.code == 2


def test_bad_prime_is_usage_error(capsys):
    code, out, err = run(capsys, "signature", "--p", "4")
    assert code == 2


def test_strip_violation_is_usage_error(capsys):
    code, out, err = run(capsys, "kernel-eval", "--nu", "1.5")
    assert code == 2
    assert "strip" in err


def test_csv_rejected_without_table(capsys):
    code, out, err = run(capsys, "signature", "--format", "csv")
    assert code == 2


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "sig.json"
    code, out, err = run(capsys, "signature", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["n_plus"] == 2


def _strip_timestamp(text):
    return "\n".join(
        ln for ln in text.splitlines() if '"timestamp"' not in ln and not ln.startswith("# timestamp")
    )


def test_reports_deterministic_modulo_timestamp(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "ladder-suite", "--n", "1", "--seed", "3", "--out", str(path)
        )
        assert code == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        code, _, _ = run(capsys, "kernel-verify", "--quad", "4", "--out", str(path))
        assert code == 0
    assert _strip_timestamp(c.read_text()) == _strip_timestamp(d.read_text())


# -- presentation golden values --

# both kernel routes at a tight target with every label nonzero
_KERNEL_EVAL_BOTH = (
    "kernel-eval", "--p", "3", "--r", "3/2", "--rho", "1.3", "--beta", "-0.2",
    "--lam", "0.4", "--s", "1", "--nu", "0.1", "--mu", "-1/5", "--tol", "1e-30",
    "--mode", "both", "--format", "text",
)


def _both_routes(closed, integral, gap):
    return f"closed: {closed}\nintegral: {integral}\nrelative gap: {gap}"


@pytest.mark.parametrize("quad", ["1", "2", "3", "4"])
def test_kernel_eval_both_routes_agree_within_their_errors(capsys, quad):
    # the golden values below differ past the target's digits; each route
    # is certified, so they differ by at most the sum of their errors
    code, doc = run_json(capsys, *_KERNEL_EVAL_BOTH, "--quad", quad)
    assert code == 0
    with mp.workprec(256):
        closed, integral = (
            (mp.mpmathify(doc["result"][mode]["value"].replace(" ", "")),
             mp.mpf(doc["result"][mode]["err_estimate"]))
            for mode in ("closed", "integral")
        )
        assert abs(closed[0] - integral[0]) <= closed[1] + integral[1]
        assert closed[1] + integral[1] <= mp.mpf("2e-30") * abs(closed[0])


@pytest.mark.parametrize(
    "argv, want",
    [
        (("mul", "--alg", "u", "--p", "3", "H^2", "P+"), "- P+ + 2*i * P+ H + P+ H^2"),
        (
            ("mul", "--alg", "u", "--p", "3", "H^2", "p-^2"),
            "-4/9 * p-^2 + -4/3*i * p-^2 H + p-^2 H^2",
        ),
        (("right-act", "--p", "3", "H H", "z+"), "-1 * z+"),
        (
            ("normalize-a", "--p", "7", "z+ e- e+ L^2 exp(-2/7L)"),
            "q^2 * e+ e- z+ L^2 exp(-2/7L)",
        ),
        (
            ("mul", "--alg", "a", "--p", "5", "e- exp(1/5L) z+", "e+ d exp(-2/5L)"),
            "q^2 * e+ e- d z+ exp(-1/5L)",
        ),
        (
            ("pair", "--p", "3", "H^2 p+", "e+ L exp(2/3L)"),
            "2*i*q^2  =  (1.7320508075688772935274463415058723669 - 1.0j)",
        ),
        (
            (
                "trterm", "--p", "5", "--n", "2", "--m", "1", "--k", "3", "--t", "1",
                "--l", "2", "--mu", "2/5", "--j", "2", "--format", "text",
            ),
            "function factor: c0s0:1/10,0,-1/10,0,0,0,-1/10,0 * e+^2 e- z+ L^2"
            " + c0s0:-1/10,0,0,0,-1/10,0,0,0 * e+^2 e- d z+ L^2"
            " + c0s0:-1/10,0,0,0,0,0,1/10,0 * e+^2 e- d^2 z+ L^2"
            " + c0s0:0,0,1/10,0,0,0,1/10,0 * e+^2 e- d^3 z+ L^2"
            " + c0s0:1/10,0,0,0,1/10,0,-1/10,0 * e+^2 e- d^4 z+ L^2\n"
            "scalar: -4/25*q*c^3 = (-0.049442719099991587856366946749251049418"
            " - 0.15216904260722457153863029334070114294j)\n"
            "image: (mu=8/5, j=3)",
        ),
        pytest.param(
            _KERNEL_EVAL_BOTH + ("--quad", "1"),
            _both_routes(
                "(0.10931712273283368316980078571288170359"
                " + 0.28121060145560038578641385956593796467j)",
                "(0.10931712273283368316980078571288170516"
                " + 0.28121060145560038578641385956593796337j)",
                "6.7229e-36",
            ),
            id="kernel-eval-both-q1",
        ),
        pytest.param(
            _KERNEL_EVAL_BOTH + ("--quad", "2"),
            _both_routes(
                "(0.03687157816422071830826146529075710189"
                " - 0.023944682833020462074753576249924318902j)",
                "(0.03687157816422071830826146529075710204"
                " - 0.023944682833020462074753576249924318999j)",
                "4.0689e-36",
            ),
            id="kernel-eval-both-q2",
        ),
        pytest.param(
            _KERNEL_EVAL_BOTH + ("--quad", "3"),
            _both_routes(
                "(-0.10931712273283368316980078571288170359"
                " + 0.28121060145560038578641385956593796467j)",
                "(-0.10931712273283368316980078571288170516"
                " + 0.28121060145560038578641385956593796337j)",
                "6.7229e-36",
            ),
            id="kernel-eval-both-q3",
        ),
        pytest.param(
            _KERNEL_EVAL_BOTH + ("--quad", "4"),
            _both_routes(
                "(-0.03687157816422071830826146529075710189"
                " - 0.023944682833020462074753576249924318902j)",
                "(-0.03687157816422071830826146529075710204"
                " - 0.023944682833020462074753576249924318999j)",
                "4.0689e-36",
            ),
            id="kernel-eval-both-q4",
        ),
    ],
)
def test_presentation_golden(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == want + "\n"


def test_kernel_verify_csv_digest(capsys):
    """The whole grid report, every value and error, pinned by its
    sha256 with the timestamp line left out."""
    code, out, err = run(capsys, "kernel-verify", "--format", "csv")
    assert code == 0 and err == ""
    kept = "".join(
        ln for ln in out.splitlines(keepends=True) if not ln.startswith("# timestamp:")
    )
    assert len(kept.splitlines()) == 328
    assert (
        hashlib.sha256(kept.encode()).hexdigest()
        == "dbec0613da4b0d200c2450c21c92ea7b7757006cb9975f71cf214039a636894d"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--n", "0"), "8047c89d4bc4dfcd0e495cd03f8e81953463a53c0446b41cdde79a7f57230925"),
        (("--n", "1"), "1497ff973385948a4823583b1a9e895b397c51144e2b14b4a6058a3a2f5784f8"),
        (
            ("--p", "5", "--n", "3"),
            "a01374aca4aaf1c4e8d1976b2b7b0358a48e7fe6949b01dd3ca06ad4dc457bd7",
        ),
    ],
    ids=["p3-n0", "p3-n1", "p5-n3"],
)
def test_ladder_suite_digest(capsys, argv, digest):
    """Every ladder residual, detail string and measurement, pinned by the
    sha256 of the JSON report with the timestamp line left out."""
    code, out, err = run(capsys, "ladder-suite", *argv, "--format", "json")
    assert code == 0 and err == ""
    kept = "".join(
        ln for ln in out.splitlines(keepends=True) if not ln.startswith('  "timestamp":')
    )
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ((), "c363c2f339a148f6cad76d1954d2e03131675fcf4ce025d02c8dae48feb0524b"),
        (
            ("--p", "5", "--samples", "3"),
            "15c85dfab490dc3dc0816fdf4ad39b577a530ecb3989a5a0295a12a1c0ef223e",
        ),
    ],
    ids=["p3", "p5-samples3"],
)
def test_pi_suite_digest(capsys, argv, digest):
    """Every representation and fractional-root row and measurement, pinned
    by the sha256 of the JSON report with the timestamp line left out."""
    code, out, err = run(capsys, "pi-suite", *argv, "--format", "json")
    assert code == 0 and err == ""
    kept = "".join(
        ln for ln in out.splitlines(keepends=True) if not ln.startswith('  "timestamp":')
    )
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
