"""End-to-end command-line coverage: every verb, the JSON envelope,
exit codes, CSV forms, and the frozen decompose regression."""
import argparse
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gowers_lab as gl
from gowers_lab import cli
from gowers_lab.cli import _threshold_value, build_parser, main
from gowers_lab.errors import InvalidConfigurationError
from gowers_lab.structure import TRACE_COLUMNS

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    return rc, json.loads(capsys.readouterr().out)


def deep_close(a, b, tol, path="$"):
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), path
        for key in a:
            deep_close(a[key], b[key], tol, f"{path}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            deep_close(x, y, tol, f"{path}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, abs=tol), path
    else:
        assert a == b, path


# ---------------------------------------------------------------------------
# envelope and exit codes


def test_envelope_shape_and_canonical_form(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "re": [1.0] * 7, "im": [0.0] * 7})
    rc = main(["gowers", "norm", "--input", f, "--order", "2"])
    raw = capsys.readouterr().out
    assert rc == 0
    env = json.loads(raw)
    assert sorted(env) == ["config_digest", "report", "seed", "version"]
    assert env["seed"] == 0
    assert env["version"] == gl.VERSION
    assert env["report"] == {"order": 2, "value": 1.0}
    # output is already in canonical form: sorted keys, tight separators
    assert raw == json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n"


def test_order_zero_reports_complex_mean(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 5, "set": [0, 1]})
    rc, env = run_json(capsys, ["gowers", "norm", "--input", f, "--order", "0"])
    assert rc == 0
    assert env["report"] == {"order": 0, "value": [0.4, 0.0]}


def test_byte_identical_reruns(tmp_path):
    inp = str(DATA / "golden_input_n53.json")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["structure", "decompose", "--input", inp, "--k", "3", "--delta", "0.3"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_structure_decompose_golden_replay(tmp_path):
    golden = json.loads((DATA / "structure_n53.json").read_text())
    out = str(tmp_path / "replay.json")
    rc = main([
        "structure", "decompose", "--input", str(DATA / "golden_input_n53.json"),
        "--k", "3", "--delta", "0.3", "--seed", "0", "--out", out,
    ])
    assert rc == 0
    replay = json.loads(Path(out).read_text())
    assert replay["config_digest"] == golden["config_digest"]
    assert replay["seed"] == golden["seed"]
    assert replay["report"]["checks"]["holds"]
    deep_close(replay["report"], golden["report"], tol=1e-9)


def test_domain_error_exits_one(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 1]})
    rc, err = run_json(capsys, ["gowers", "norm", "--input", f, "--order", "-2"])
    assert rc == 1
    assert err["error"]["type"] == "UnsupportedOrderError"
    assert err["version"] == gl.VERSION
    assert "seed" in err


def test_missing_file_exits_one(capsys):
    rc, err = run_json(
        capsys, ["gowers", "norm", "--input", "/no/such/file.json", "--order", "2"]
    )
    assert rc == 1
    assert err["error"]["type"] == "FileNotFoundError"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gowers"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_csv_without_csv_form_errors(tmp_path, capsys):
    """--format exists only on the verbs with a CSV form; elsewhere it is
    a usage error."""
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 1]})
    with pytest.raises(SystemExit) as exc:
        main(["gowers", "norm", "--input", f, "--order", "2", "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run settings: each verb takes only the ones it reads


SETTINGS = {"--seed", "--tol", "--budget-driver-steps", "--budget-cert-nodes",
            "--budget-vdw-nodes", "--budget-digit-limit"}
VERB_SETTINGS = {
    ("gowers", "norm"): set(),
    ("gowers", "dual"): set(),
    ("gowers", "vnn"): {"--tol"},
    ("uap", "verify"): {"--tol"},
    ("uap", "dual"): {"--budget-cert-nodes", "--tol"},
    ("uap", "audit"): {"--tol"},
    ("partition", "join"): set(),
    ("partition", "condexp"): set(),
    ("partition", "energy"): set(),
    ("levelset", "build"): {"--seed"},
    ("structure", "decompose"): {"--seed", "--tol", "--budget-driver-steps",
                                 "--budget-cert-nodes"},
    ("recur", "average"): set(),
    ("recur", "empirical-c"): {"--seed"},
    ("recur", "find-ap"): set(),
    ("recur", "net"): set(),
    ("recur", "sample"): {"--seed", "--tol"},
    ("vdw", "number"): {"--budget-vdw-nodes"},
    ("vdw", "bound"): {"--budget-digit-limit"},
    ("vdw", "check"): set(),
}


def leaf_flags():
    """(group, verb) -> every option string the leaf parser accepts."""
    def children(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {
        (group, verb): {opt for a in leaf._actions for opt in a.option_strings}
        for group, sub in children(build_parser()).items()
        for verb, leaf in children(sub).items()
    }


CSV_VERBS = {("structure", "decompose"), ("recur", "empirical-c")}


def test_each_verb_accepts_exactly_its_settings():
    flags = leaf_flags()
    assert sorted(flags) == sorted(VERB_SETTINGS)
    for verb, opts in flags.items():
        assert opts & SETTINGS == VERB_SETTINGS[verb], verb
        assert "--out" in opts, verb
        assert ("--format" in opts) == (verb in CSV_VERBS), verb
    settable = sum(len(opts & (SETTINGS | {"--format", "--out"})) for opts in flags.values())
    assert settable == 36


def test_settings_table_matches_run_config():
    """One table names every RunConfig field and its flag, so a setting
    removed from RunConfig cannot linger in the parser, nor the reverse."""
    assert [f.name for f in dataclasses.fields(gl.RunConfig)] == list(cli._SETTINGS)
    assert SETTINGS == set(cli._SETTINGS.values())


def test_unread_setting_is_a_usage_error(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 1]})
    for argv in (
        ["gowers", "norm", "--input", f, "--order", "2", "--budget-vdw-nodes", "5"],
        ["structure", "decompose", "--input", f, "--k", "3", "--delta", "0.3",
         "--budget-poly-degree", "64"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["vdw", "bound", "--k", "3", "--m", "2", "--budget-digit-limit", "-1"],
    ["structure", "decompose", "--input", "F", "--k", "3", "--delta", "0.3",
     "--budget-driver-steps", "-3"],
    ["gowers", "vnn", "--inputs", "F", "--lambdas", "1", "--tol", "-1"],
    ["uap", "verify", "--cert", "CERT", "--tol", "nan"],
    ["gowers", "vnn", "--inputs", "F", "--lambdas", "1", "--tol", "inf"],
    ["levelset", "build", "--g", "F", "--eps", "0.25", "--seed", "-1"],
    ["recur", "empirical-c", "--k", "3", "--delta", "0.3", "--n", "7", "--seed", "-1"],
], ids=["digit-limit", "driver-steps", "tol-negative", "tol-nan", "tol-inf",
        "seed-levelset", "seed-empirical-c"])
def test_bad_run_settings_exit_before_any_work(tmp_path, capsys, argv):
    """A negative budget or seed, or a negative or non-finite --tol, is
    rejected up front, not misread by the handler (an infinite digit count,
    a spent step budget, a failed imaginary-part check, a valid certificate
    refused, a seed numpy refuses only once a verb draws)."""
    f, cert = write(tmp_path, "f.json", {"n": 7, "set": [0, 2, 3]}), str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0
    files = {"F": f, "CERT": cert}
    rc, err = run_json(capsys, [files.get(a, a) for a in argv])
    assert rc == 1
    assert err["error"]["type"] == "InvalidConfigurationError"


@pytest.mark.parametrize("argv", [
    ["levelset", "build", "--g", "G", "--eps", "nan"],
    ["levelset", "build", "--g", "G", "--g", "G", "--g", "G", "--eps", "0.25", "--eps", "0.1"],
    ["recur", "net", "--inputs", "C", "C", "--theta", "nan"],
    ["recur", "sample", "--inputs", "C", "C", "--weights", "nan", "0.5", "--d", "4"],
    ["recur", "sample", "--inputs", "C", "C", "--weights", "0", "0", "--d", "4"],
    # M/eps at or beyond 2^53: cell coordinates are no longer exact integers
    ["levelset", "build", "--g", "F", "--eps", "1e-300"],
    ["levelset", "build", "--g", "F", "--eps", "1e-310"],
], ids=["eps-nan", "eps-count", "theta-nan", "weight-nan", "weights-zero",
        "eps-1e-300", "eps-1e-310"])
def test_bad_scales_get_error_envelope(tmp_path, capsys, argv):
    g = {"n": 13, "terms": [{"c": [1.0, 0.0], "poly": [0, 1]}]}
    files = {"G": write(tmp_path, "g.json", g),
             "C": write(tmp_path, "c.json", {"n": 5, "re": [1.0] * 5}),
             "F": write(tmp_path, "f.json", {"n": 7, "set": [0, 2, 3]})}
    rc, err = run_json(capsys, [files.get(a, a) for a in argv])
    assert rc == 1
    assert err["error"]["type"] == "InvalidConfigurationError"


def test_dataclass_reports_keep_their_keys(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 2, 3]})
    cert = str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0
    want = {
        ("uap", "verify", "--cert", cert):
            {"max_reconstruction_error", "depth", "total_nodes", "ok"},
        ("uap", "audit", "--input", f, "--cert", cert):
            {"k", "lhs", "rhs", "norm", "bound", "holds"},
        ("recur", "net", "--inputs", f, f, "--theta", "0.5"):
            {"representatives", "radius", "separation", "dimension",
             "natural_termination", "packing_ok"},
        ("vdw", "number", "--k", "3", "--m", "2"):
            {"k", "m", "value", "lower_bound", "complete", "nodes", "avoider"},
        ("vdw", "bound", "--k", "3", "--m", "2"):
            {"k", "m", "value", "digits", "overflow", "tower"},
    }
    for argv, keys in want.items():
        rc, env = run_json(capsys, list(argv))
        assert rc == 0 and set(env["report"]) == keys, argv
        if argv[1] == "number":
            assert set(env["report"]["avoider"]) == {"n", "m", "colours"}
    rc, env = run_json(capsys, ["recur", "empirical-c", "--k", "3", "--delta", "0.5", "--n", "5"])
    assert rc == 0
    assert set(env["report"][0]) == {"n", "k", "delta", "mode", "c_min", "count_min",
                                     "witness", "sets_checked"}


# ---------------------------------------------------------------------------
# gowers group


def test_gowers_dual_then_norm_composes(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 1, 3]})
    dual = str(tmp_path / "dual.json")
    assert main(["gowers", "dual", "--input", f, "--order", "2", "--out", dual]) == 0
    # the dual envelope feeds straight back in as a function
    rc, env = run_json(capsys, ["gowers", "norm", "--input", dual, "--order", "2"])
    assert rc == 0
    assert 0.0 < env["report"]["value"] <= 1.0 + 1e-9


def test_gowers_norm_of_values_whose_power_overflows(tmp_path, capsys):
    """max|f|^(2^d) = 1e2400 is no double; the norm of seven values 1e300
    is 1e300 all the same, with nothing on stderr."""
    f = write(tmp_path, "f.json", {"n": 7, "re": [1e300] * 7})
    rc = main(["gowers", "norm", "--input", f, "--order", "3"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert json.loads(out)["report"] == {"order": 3, "value": 1e300}


def test_gowers_dual_of_values_whose_power_overflows(tmp_path, capsys):
    """D_d has degree 2^d - 1, so the duals of seven values 1e300 are no
    doubles from order 2 on: exit 1 with an envelope and nothing on stderr.
    Order 1 is the mean, 1e300 to rounding."""
    f = write(tmp_path, "f.json", {"n": 7, "re": [1e300] * 7})
    for order in ("2", "3"):
        rc = main(["gowers", "dual", "--input", f, "--order", order])
        out, err = capsys.readouterr()
        assert (rc, err) == (1, "")
        assert json.loads(out)["error"]["type"] == "NumericalInconsistencyError"
    rc = main(["gowers", "dual", "--input", f, "--order", "1"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert json.loads(out)["report"]["re"] == [pytest.approx(1e300, rel=1e-15)] * 7


def test_uap_dual_rejects_values_whose_leaf_coefficients_exceed_one(tmp_path, capsys):
    """max|f| = 1 + 9e-10 is within tol, but the order-1 coefficients
    E(conj(f) T^h f) = max|f|^2 are not: the input is refused before any
    certificate is built, not certified into one that `uap verify` rejects."""
    f = write(tmp_path, "f.json", {"n": 7, "re": [1.0000000009] * 7})
    rc = main(["uap", "dual", "--input", f, "--order", "2"])
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "BoundednessError"


def test_uap_dual_order_one_honours_tol(tmp_path, capsys):
    """At order 1 the rule is max|f| <= 1 + tol, and the constant E(f) is
    certified under the same --tol, so `uap verify --tol` accepts it."""
    f = write(tmp_path, "f.json", {"n": 7, "re": [1.0000005] * 7})
    cert = str(tmp_path / "cert.json")
    rc = main(["uap", "dual", "--input", f, "--order", "1", "--tol", "1e-6", "--out", cert])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    rc, env = run_json(capsys, ["uap", "verify", "--cert", cert, "--tol", "1e-6"])
    assert rc == 0 and env["report"]["ok"]


def test_gowers_vnn(tmp_path, capsys):
    files = []
    rng = gl.derive_rng(1, "cli-vnn")
    for i in range(3):
        vals = rng.uniform(-1, 1, 7)
        files.append(write(tmp_path, f"v{i}.json", {"n": 7, "re": list(vals)}))
    rc, env = run_json(
        capsys, ["gowers", "vnn", "--inputs", *files, "--lambdas", "1", "2", "3"]
    )
    assert rc == 0
    rep = env["report"]
    assert rep["holds"]
    assert len(rep["witnesses"]) == 3
    assert rep["bound"] == pytest.approx(min(rep["witnesses"]))
    assert rep["value"] <= rep["bound"] + 1e-9


# ---------------------------------------------------------------------------
# uap group


def test_uap_dual_verify_audit(tmp_path, capsys):
    f = write(
        tmp_path, "f.json", {"n": 11, "terms": [{"c": [0.5, 0.0], "poly": [0, 1]}]}
    )
    cert = str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0

    rc, env = run_json(capsys, ["uap", "verify", "--cert", cert])
    assert rc == 0
    assert env["report"]["ok"]
    assert env["report"]["max_reconstruction_error"] <= 1e-9
    assert env["report"]["depth"] == 0  # order-1 tree, no nesting
    assert env["report"]["total_nodes"] == 1

    rc, env = run_json(capsys, ["uap", "audit", "--input", f, "--cert", cert])
    assert rc == 0
    assert env["report"]["holds"]
    assert env["report"]["k"] == 3  # an order-1 certificate audits against U^2


def test_uap_verify_rejects_a_nan_literal(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 2, 3]})
    cert = str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0
    obj = json.loads(Path(cert).read_text())
    obj["report"]["coeffs"][2][3][0] = float("nan")
    Path(cert).write_text(json.dumps(obj))
    assert "NaN" in Path(cert).read_text()  # the literal json.load accepts
    rc, env = run_json(capsys, ["uap", "verify", "--cert", cert])
    assert rc == 1
    assert env["error"]["type"] == "CertificateInvalidError"


# ---------------------------------------------------------------------------
# partition group


def test_partition_verbs(tmp_path, capsys):
    pa = write(tmp_path, "pa.json", {"n": 7, "labels": [0, 0, 1, 1, 2, 2, 0]})
    pb = write(tmp_path, "pb.json", {"n": 7, "labels": [0, 1, 0, 1, 0, 1, 0]})
    rc, env = run_json(capsys, ["partition", "join", "--inputs", pa, pb])
    assert rc == 0
    joined = gl.partition_from_json(env["report"])
    assert joined.atom_count == len(
        {(a, b) for a, b in zip([0, 0, 1, 1, 2, 2, 0], [0, 1, 0, 1, 0, 1, 0])}
    )

    f = write(tmp_path, "f.json", {"n": 7, "set": [0, 1, 2]})
    rc, env = run_json(capsys, ["partition", "condexp", "--input", f, "--partition", pa])
    assert rc == 0
    g = gl.function_from_json(env["report"])
    part = gl.partition_from_json(json.loads(Path(pa).read_text()))
    for atom in part.atoms():
        assert np.allclose(g.values[atom], g.values[atom][0])

    rc, env = run_json(capsys, ["partition", "energy", "--inputs", f, "--partition", pa])
    assert rc == 0
    assert env["report"]["value"] >= 0.0


# ---------------------------------------------------------------------------
# levelset group


def test_levelset_build(tmp_path, capsys):
    f = write(
        tmp_path, "g.json", {"n": 13, "terms": [{"c": [1.0, 0.0], "poly": [0, 1]}]}
    )
    rc, env = run_json(capsys, ["levelset", "build", "--g", f, "--eps", "0.25"])
    assert rc == 0
    diag = env["report"]["diagnostics"]
    assert diag["atoms"] >= 2
    assert diag["linf_error"] <= np.sqrt(2) * 0.25 + 1e-9
    assert 0.0 <= diag["alpha"] < 1.0
    part = gl.partition_from_json(env["report"]["partition"])
    assert part.n == 13

    # a certificate envelope passes through as its own generator
    cert = str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0
    rc, env = run_json(capsys, ["levelset", "build", "--g", cert, "--eps", "0.25"])
    assert rc == 0
    dual = gl.certify_dual(gl.function_from_json(json.loads(Path(f).read_text())), 2)
    want = gl.level_set_algebra([dual], 0.25)
    assert env["report"]["partition"] == gl.partition_to_json(want.partition)
    assert env["report"]["diagnostics"]["complexity"] == want.complexity
    assert env["report"]["diagnostics"]["boundary_mass"] == want.boundary_mass()


# a certificate input that fails verification: an order-0 function that is
# not its constant, and a `uap dual` output whose "M" is the Infinity literal
BAD_CERTS = [
    ("not-constant", lambda dual: {"order": 0, "M": 0.25, "value": [0, 0], "func": {
        "n": 7, "re": [1, 0, 0, 0.5, 0, 0, 0], "im": [0] * 7}},
     "order-0 function is not the certified constant"),
    ("infinite-M", lambda dual: {**dual, "M": float("inf")}, "infinite bound"),
]


@pytest.mark.parametrize("case", BAD_CERTS, ids=[c[0] for c in BAD_CERTS])
def test_bad_certificate_inputs_exit_one_with_empty_stderr(tmp_path, case):
    """`uap verify` and `levelset build` reject the certificate with the
    verifier's message, before any arithmetic can warn on stderr."""
    _, make, message = case
    f = write(tmp_path, "f.json", {"n": 7, "re": [0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.625]})
    cert = str(tmp_path / "cert.json")
    assert main(["uap", "dual", "--input", f, "--order", "2", "--out", cert]) == 0
    dual = json.loads(Path(cert).read_text())["report"]
    Path(cert).write_text(json.dumps(make(dual)))  # json writes inf as Infinity
    for argv in (["uap", "verify", "--cert", cert], ["levelset", "build", "--g", cert, "--eps", "0.25"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert (rc, err.getvalue()) == (1, "")
        assert json.loads(out.getvalue())["error"]["message"].startswith(message)


# ---------------------------------------------------------------------------
# structure group


def test_structure_threshold_expression_and_trace_csv(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 13, "re": [0.4] * 13})
    csv_path = str(tmp_path / "trace.csv")
    rc, env = run_json(capsys, [
        "structure", "decompose", "--input", f, "--k", "3", "--delta", "0.3",
        "--threshold", "min(delta,0.5)/8", "--trace-csv", csv_path,
    ])
    assert rc == 0
    assert env["report"]["threshold"] == pytest.approx(0.3 / 8)
    assert env["report"]["checks"]["holds"]
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + len(env["report"]["trace"])

    rc, env = run_json(capsys, [
        "structure", "decompose", "--input", f, "--k", "3", "--delta", "0.3",
        "--threshold", "0.9",
    ])
    assert rc == 0
    assert env["report"]["threshold"] == 0.9
    assert len(env["report"]["trace"]) == 1


@pytest.mark.parametrize("expr", ["M", "().__class__", "__import__('os')", "1/0"])
def test_structure_threshold_rejects_non_arithmetic(tmp_path, capsys, expr):
    f = write(tmp_path, "f.json", {"n": 13, "re": [0.4] * 13})
    rc, err = run_json(capsys, [
        "structure", "decompose", "--input", f, "--k", "3", "--delta", "0.3",
        "--threshold", expr,
    ])
    assert rc == 1
    assert err["error"]["type"] == "InvalidConfigurationError"


def test_threshold_expression_whitelist():
    assert _threshold_value("min(delta,0.5)/8", 3, 0.3) == pytest.approx(0.3 / 8)
    assert _threshold_value("-k**2 + max(1, delta)", 3, 0.3) == -8.0
    assert _threshold_value("2**-1", 3, 0.3) == 0.5
    assert _threshold_value(None, 3, 0.3) is None
    for bad in ("10**400", "(-8)**0.5", "1+", "k.real", "True", "1j", "min(1)",
                "delta if k else 1", "-" * 300 + "1"):
        with pytest.raises(InvalidConfigurationError):
            _threshold_value(bad, 3, 0.3)


def test_structure_csv_format_streams_trace(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 13, "re": [0.4] * 13})
    rc = main([
        "structure", "decompose", "--input", f, "--k", "3", "--delta", "0.3",
        "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == ",".join(TRACE_COLUMNS)


# ---------------------------------------------------------------------------
# recur group


def test_recur_average_and_find_ap(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"n": 5, "set": [0, 1, 2]})
    rc, env = run_json(capsys, ["recur", "average", "--input", f, "--k", "3"])
    assert rc == 0
    assert env["report"]["average"] == pytest.approx(0.2)
    assert env["report"]["r_range"] == [0, 4]

    s = write(tmp_path, "s.json", {"n": 20, "set": [0, 2, 4, 8]})
    rc, env = run_json(capsys, ["recur", "find-ap", "--input", s, "--k", "3"])
    assert rc == 0
    assert env["report"]["ap"] == [0, 2, 3]

    bad = write(tmp_path, "bad.json", {"n": 20, "members": [0, 2]})
    rc, err = run_json(capsys, ["recur", "find-ap", "--input", bad, "--k", "3"])
    assert rc == 1
    assert err["error"]["type"] == "InvalidConfigurationError"
    assert '"set"' in err["error"]["message"]


def test_recur_empirical_c_json_and_csv(capsys):
    args = ["recur", "empirical-c", "--k", "3", "--delta", "0.6", "--n", "5"]
    rc, env = run_json(capsys, args)
    assert rc == 0
    row = env["report"][0]
    assert row["count_min"] == 5
    assert row["c_min"] == pytest.approx(0.2)
    assert row["witness"] == [0, 1, 2]

    rc = main(args + ["--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,k,delta,c_min,witness_set"
    assert lines[1] == "5,3,0.6,0.2,0 1 2"


def test_recur_net_and_sample(tmp_path, capsys):
    files = []
    for i in range(3):
        re = [0.0] * 5
        re[i] = float(np.sqrt(5))
        files.append(write(tmp_path, f"e{i}.json", {"n": 5, "re": re}))
    rc, env = run_json(capsys, ["recur", "net", "--inputs", *files, "--theta", "1.0"])
    assert rc == 0
    assert env["report"]["representatives"] == [0, 1, 2]
    assert env["report"]["natural_termination"]

    c0 = write(tmp_path, "c0.json", {"n": 5, "re": [1.0] * 5})
    c1 = write(tmp_path, "c1.json", {"n": 5, "re": [-1.0] * 5})
    rc, env = run_json(capsys, [
        "recur", "sample", "--inputs", c0, c1, "--weights", "0.5", "0.5", "--d", "4",
    ])
    assert rc == 0
    assert len(env["report"]["indices"]) == 4
    assert env["report"]["approximant"]["n"] == 5


# ---------------------------------------------------------------------------
# vdw group


def test_vdw_number_and_check(tmp_path, capsys):
    rc, env = run_json(capsys, ["vdw", "number", "--k", "3", "--m", "2"])
    assert rc == 0
    rep = env["report"]
    assert rep["value"] == 9 and rep["complete"] and rep["nodes"] == 79
    assert rep["avoider"]["colours"] == [1, 1, 2, 2, 1, 1, 2, 2]

    col = write(tmp_path, "col.json", rep["avoider"])
    rc, env = run_json(capsys, ["vdw", "check", "--colouring", col, "--k", "3"])
    assert rc == 0
    assert env["report"]["mono_ap"] is None
    rc, env = run_json(capsys, ["vdw", "check", "--colouring", col, "--k", "2"])
    assert rc == 0
    assert env["report"]["mono_ap"] == [1, 1]


def test_vdw_node_budget_binds(capsys):
    argv = ["vdw", "number", "--k", "3", "--m", "2", "--budget-vdw-nodes"]
    rc, env = run_json(capsys, argv + ["5"])
    assert rc == 0
    rep = env["report"]
    assert rep["nodes"] == 5 and not rep["complete"] and rep["value"] is None
    col = gl.Colouring(rep["avoider"]["n"], 2, tuple(rep["avoider"]["colours"]))
    assert rep["lower_bound"] == col.n + 1
    assert gl.find_mono_ap(col, 3) is None
    rc, env = run_json(capsys, argv + ["79"])
    assert rc == 0
    assert env["report"]["value"] == 9 and env["report"]["complete"]


@pytest.mark.parametrize("argv", [
    ["recur", "empirical-c", "--k", "3", "--delta", "0.5", "--n", "0"],
    ["recur", "empirical-c", "--k", "3", "--delta", "0.5", "--n", "-2"],
    ["recur", "empirical-c", "--k", "0", "--delta", "0.5", "--n", "5"],
    ["vdw", "number", "--k", "3", "--m", "2", "--max", "-1"],
    # JSON inputs without a required field: the message names it and the form
    ["vdw", "check", "--colouring", "NO_N_M", "--k", "3"],
    ["partition", "join", "--inputs", "NO_LABELS", "NO_LABELS"],
    ["gowers", "norm", "--input", "DENSE_NO_N", "--order", "2"],
    ["gowers", "norm", "--input", "TERM_NO_POLY", "--order", "2"],
    ["uap", "verify", "--cert", "CERT_NO_FUNC"],
    # a field of the wrong JSON type, or a file that is not a JSON object
    ["recur", "find-ap", "--input", "SET_INT", "--k", "3"],
    ["gowers", "norm", "--input", "C_REAL", "--order", "2"],
    ["gowers", "norm", "--input", "C_SHORT", "--order", "2"],
    ["gowers", "norm", "--input", "N_HUGE", "--order", "2"],
    ["gowers", "norm", "--input", "TOP_NUMBER", "--order", "2"],
    ["uap", "verify", "--cert", "VALUE_INT"],
    ["uap", "audit", "--input", "F7", "--cert", "VALUE_INT"],
    ["gowers", "norm", "--input", "SET_STR", "--order", "2"],
    ["gowers", "norm", "--input", "N_FLOAT", "--order", "2"],
    ["partition", "join", "--inputs", "LABELS_FLOAT", "LABELS_FLOAT"],
    ["vdw", "check", "--colouring", "N_BOOL", "--k", "3"],
    ["gowers", "norm", "--input", "RE_STR", "--order", "2"],
    ["gowers", "norm", "--input", "NOT_JSON", "--order", "2"],
    ["gowers", "norm", "--input", "NOT_UTF8", "--order", "2"],
    ["vdw", "check", "--colouring", "COLOUR_STR", "--k", "3"],
    # functions on different Z_N
    ["recur", "net", "--inputs", "F5", "F7", "--theta", "0.5"],
    ["recur", "sample", "--inputs", "F5", "F7", "--weights", "0.5", "0.5", "--d", "4"],
])
def test_bad_search_inputs_get_error_envelope(tmp_path, capsys, argv):
    """Every malformed input exits 1 with one envelope that names the
    field and its form; a str or bytes value is written as the raw file."""
    files = {
        "NO_N_M": ({"colours": [1, 1, 2, 2, 1, 1, 2, 2]},
                   '"n", "m"; expected {"n", "m", "colours"}'),
        "NO_LABELS": ({"n": 7}, '"labels"; expected {"n", "labels"}'),
        "DENSE_NO_N": ({"re": [1.0] * 7}, '"n"; expected {"n", "re"}'),
        "TERM_NO_POLY": ({"n": 7, "terms": [{"c": [1.0, 0.0]}]}, '"poly"; expected {"c", "poly"}'),
        "CERT_NO_FUNC": ({"order": 1, "M": 1.0}, '"func"; expected {"order", "M", "func"}'),
        "SET_INT": ({"n": 20, "set": 5}, 'field "set" must be a list of integers'),
        "C_REAL": ({"n": 7, "terms": [{"c": 1.0, "poly": [0, 1]}]},
                   'field "c" must be an [re, im] pair'),
        "C_SHORT": ({"n": 7, "terms": [{"c": [1.0], "poly": [0, 1]}]},
                    'field "c" must be an [re, im] pair'),
        "N_HUGE": ('{"n": 1e400, "set": [1]}', 'field "n" must be an integer'),
        "TOP_NUMBER": ("5", "function JSON must be an object"),
        "VALUE_INT": ({"order": 0, "M": 1.0, "func": {"n": 7, "re": [0.5] * 7}, "value": 5},
                      'field "value" must be an [re, im] pair'),
        "SET_STR": ({"n": 7, "set": "135"}, 'field "set" must be a list of integers'),
        "N_FLOAT": ({"n": 7.9, "set": [1]}, 'field "n" must be an integer'),
        "LABELS_FLOAT": ({"n": 5, "labels": [0.5, 1.5, 0, 0, 0]},
                         'field "labels" must be a list of integers'),
        "N_BOOL": ({"n": True, "m": 2, "colours": [1]}, 'field "n" must be an integer'),
        "RE_STR": ({"n": 7, "re": [0.0] * 6 + ["x"]}, 'field "re" must be a list of numbers'),
        "NOT_JSON": ("{n: 7}", "is not UTF-8 JSON"),
        "NOT_UTF8": (b'{"n": 7, "set": [\xff]}', "is not UTF-8 JSON"),
        "COLOUR_STR": ({"n": 3, "m": 2, "colours": [1, "a", 2]},
                       'field "colours" must be a list of integers'),
        "F5": ({"n": 5, "set": [0, 1]}, "different lengths"),
        "F7": ({"n": 7, "set": [0, 2, 3]}, ""),
    }
    paths = {}
    for key, (obj, _) in files.items():
        paths[key] = tmp_path / f"{key}.json"
        raw = obj if isinstance(obj, (str, bytes)) else json.dumps(obj)
        paths[key].write_bytes(raw.encode() if isinstance(raw, str) else raw)
    rc, err = run_json(capsys, [str(paths[a]) if a in paths else a for a in argv])
    assert rc == 1
    want = "DimensionMismatchError" if "F5" in argv else "InvalidConfigurationError"
    assert err["error"]["type"] == want
    for key, (_, named) in files.items():
        if key in argv:
            assert named in err["error"]["message"]


# one valid input of each kind, N <= 13; CERT is written by `uap dual`
VALID = {
    "F": {"n": 7, "re": [0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.625], "im": [0.0] * 7},
    "S": {"n": 7, "set": [0, 2, 3]},
    "T": {"n": 7, "terms": [{"c": [0.5, 0.0], "poly": [0, 1, 2]}, {"c": [0.0, 0.5], "poly": [3]}]},
    "P": {"n": 7, "labels": [0, 0, 1, 1, 2, 2, 0]},
    "COL": {"n": 8, "m": 2, "colours": [1, 1, 2, 2, 1, 1, 2, 2]},
}
# every verb that reads a file, with its input slots named by VALID keys
FILE_VERBS = [
    ["gowers", "norm", "--input", "T", "--order", "2"],
    ["gowers", "dual", "--input", "S", "--order", "2"],
    ["gowers", "vnn", "--inputs", "F", "S", "--lambdas", "1", "2"],
    ["uap", "verify", "--cert", "CERT"],
    ["uap", "dual", "--input", "T", "--order", "2"],
    ["uap", "audit", "--input", "T", "--cert", "CERT"],
    ["partition", "join", "--inputs", "P", "P"],
    ["partition", "condexp", "--input", "S", "--partition", "P"],
    ["partition", "energy", "--inputs", "F", "--partition", "P"],
    ["levelset", "build", "--g", "T", "--g", "CERT", "--eps", "0.25"],
    ["structure", "decompose", "--input", "F", "--k", "3", "--delta", "0.3"],
    ["recur", "average", "--input", "S", "--k", "3"],
    ["recur", "find-ap", "--input", "S", "--k", "3"],
    ["recur", "net", "--inputs", "F", "T", "--theta", "0.5"],
    ["recur", "sample", "--inputs", "T", "S", "--weights", "0.5", "0.5", "--d", "4"],
    ["vdw", "check", "--colouring", "COL", "--k", "3"],
]
OTHER_TYPE = [None, True, 0.5, 3, "x", [], {}]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The valid inputs as objects and as files, and a fresh file name per
    call: rewriting one file in place is far slower than making a new one."""
    work = tmp_path_factory.mktemp("valid")
    paths = {key: write(work, f"{key}.json", obj) for key, obj in VALID.items()}
    paths["CERT"] = str(work / "CERT.json")
    assert main(["uap", "dual", "--input", paths["T"], "--order", "2", "--out", paths["CERT"]]) == 0
    inputs = {**VALID, "CERT": json.loads(Path(paths["CERT"]).read_text())}
    fresh = (str(work / f"mutant{i}.json") for i in itertools.count())
    return inputs, paths, fresh


def mutate(data, obj):
    """At a drawn node of the JSON tree (the root included): drop a key,
    swap in a value of another JSON type, or resize a list by dropping or
    repeating an element.  No number is enlarged."""
    root = [obj]
    holder, key = root, 0
    while True:
        node = holder[key]
        if isinstance(node, dict):
            inner = sorted(node)
        else:
            inner = range(len(node)) if isinstance(node, list) else ()
        if not inner or data.draw(st.booleans()):
            break
        holder, key = node, data.draw(st.sampled_from(inner))
    ops = ["swap"]
    if node and isinstance(node, dict):
        ops.append("drop")
    if node and isinstance(node, list):
        ops.append("resize")
    op = data.draw(st.sampled_from(ops))
    if op == "swap":
        other = [v for v in OTHER_TYPE if type(v) is not type(node)]
        holder[key] = copy.deepcopy(data.draw(st.sampled_from(other)))
    elif op == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif data.draw(st.booleans()):
        node.append(copy.deepcopy(node[data.draw(st.integers(0, len(node) - 1))]))
    else:
        del node[data.draw(st.integers(0, len(node) - 1))]
    return root[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_inputs_end_in_one_envelope(valid_inputs, data):
    """A valid input with one field dropped, retyped or resized, or with
    a non-object top level, exits 0, or exits 1 with one envelope line on
    stdout and nothing on stderr; no exception escapes main."""
    inputs, paths, fresh = valid_inputs
    argv = data.draw(st.sampled_from(FILE_VERBS))
    slot = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a in inputs]))
    mutant = next(fresh)
    Path(mutant).write_text(json.dumps(mutate(data, copy.deepcopy(inputs[argv[slot]]))))
    argv = [mutant if i == slot else paths.get(a, a) for i, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert err.getvalue() == ""
    if rc == 1:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and sorted(json.loads(lines[0])) == ["error", "seed", "version"]
    else:
        assert rc == 0


def test_vdw_bound(capsys):
    rc, env = run_json(capsys, ["vdw", "bound", "--k", "2", "--m", "3"])
    assert rc == 0
    rep = env["report"]
    assert rep["value"] == 512
    assert not rep["overflow"]
    assert rep["digits"] == 3
    assert rep["tower"][-1]["kind"] == "vdw"


# ---------------------------------------------------------------------------
# serialization round trips


def test_certificate_round_trip_order_one():
    """Orders 1 and 0 (a constant phase sum) round-trip to the same bytes."""
    for terms in ([(0.5, (0, 1)), (0.25j, (3,))], [(0.3 - 0.4j, (0,))]):
        cf = gl.certify_phase_sum(11, terms)
        obj = gl.certificate_to_json(cf)
        back = gl.certificate_from_json(json.loads(json.dumps(obj)))
        assert back.cert.order == cf.cert.order
        assert np.allclose(back.func.values, cf.func.values)
        assert back.cert.bound == cf.cert.bound
        gl.verify_certificate(back)
        assert gl.canonical_dumps(gl.certificate_to_json(back)) == gl.canonical_dumps(obj)


def test_certificate_round_trip_nested():
    """A dual at order 2, a phase sum promoted to order 3, and a shifted dual."""
    rng = gl.derive_rng(5, "cli-roundtrip")
    f = gl.GroupFunction(7, (rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)) / 2)
    promoted = gl.cert_promote(gl.certify_phase_sum(7, [(0.5, (0, 1)), (0.25j, (0, 3))]), 3)
    shifted = gl.cert_shift(gl.certify_dual(f, 3), 3)  # a root read at a non-zero offset
    for cf, order in ((gl.certify_dual(f, 3), 2), (promoted, 3), (shifted, 2)):
        obj = gl.certificate_to_json(cf)
        back = gl.certificate_from_json(json.loads(json.dumps(obj)))
        assert back.cert.order == order
        gl.verify_certificate(back)
        assert np.allclose(back.func.values, cf.func.values)
        assert gl.canonical_dumps(gl.certificate_to_json(back)) == gl.canonical_dumps(obj)


def test_function_json_forms():
    ind = gl.function_from_json({"n": 7, "set": [0, 3]})
    assert np.array_equal(ind.values, gl.GroupFunction.indicator(7, [0, 3]).values)
    qp = gl.function_from_json(
        {"n": 7, "terms": [{"c": [0.5, 0.5], "poly": [0, 0, 1]}]}
    )
    want = gl.quasiperiodic(7, [((0.5 + 0.5j), (0, 0, 1))])
    assert np.allclose(qp.values, want.values)
    dense = gl.function_to_json(want)
    again = gl.function_from_json(json.loads(json.dumps(dense)))
    assert np.array_equal(again.values, want.values)
    with pytest.raises(gl.errors.InvalidConfigurationError):
        gl.function_from_json({"n": 7})


def test_partition_and_colouring_round_trips():
    p = gl.Partition(6, [2, 2, 0, 1, 0, 2])
    back = gl.partition_from_json(json.loads(json.dumps(gl.partition_to_json(p))))
    assert np.array_equal(back.labels, p.labels)
    c = gl.Colouring(4, 3, (1, 3, 2, 1))
    back_c = gl.colouring_from_json(json.loads(json.dumps(gl.colouring_to_json(c))))
    assert back_c == c


def test_canonical_dumps_numpy_values():
    obj = {
        "b": np.float64(0.1),
        "a": [np.int64(3), np.float32(0.5), 1 + 2j, np.complex128(3 - 1j)],
        "c": np.array([1.5, 2.0]),
        "d": (1, np.array([1j])),
    }
    assert gl.canonical_dumps(obj) == (
        '{"a":[3,0.5,[1.0,2.0],[3.0,-1.0]],"b":0.1,"c":[1.5,2.0],"d":[1,[[0.0,1.0]]]}'
    )
    with pytest.raises(TypeError):
        gl.canonical_dumps({"x": object()})


# ---------------------------------------------------------------------------
# README drift


def test_readme_cli_lines_parse():
    """Every concrete command line in the README's CLI block parses with the
    real parser; only the verb summaries ("a|b|c ...") are skipped."""
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    concrete = [line for line in lines if "..." not in line]
    assert len(concrete) >= 8
    for line in concrete:
        argv = shlex.split(line.replace("[", "").replace("]", ""))
        assert argv[0] == "gowers-lab", line
        args = build_parser().parse_args(argv[1:])
        assert args.group == argv[1] and args.verb == argv[2], line


def test_readme_lists_each_verbs_settings():
    """The README's run-settings table names, for every verb, exactly the
    settings its parser accepts."""
    text = README.read_text()
    table = re.search(r"\| verb \| run settings \|\n\|[-| ]+\|\n((?:\|.*\|\n)+)", text).group(1)
    listed = {}
    for row in table.splitlines():
        verbs, settings = row.strip("|").split("|")
        for verb in re.findall(r"`(\w+ [\w-]+)`", verbs):
            listed[tuple(verb.split())] = set(re.findall(r"`(--[\w-]+)`", settings))
    flags = leaf_flags()
    assert sorted(listed) == sorted(flags)
    for verb, opts in flags.items():
        assert listed[verb] == opts & SETTINGS, verb
