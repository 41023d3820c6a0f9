"""Command-line front end.

One executable, seven command groups (gowers, uap, partition, levelset,
structure, recur, vdw).  Every run prints a single JSON envelope
{seed, version, config_digest, report} in canonical form, so identical
inputs and seed give byte-identical output; --format csv prints a verb's
CSV form instead, where it has one.  Each verb accepts only the run
settings (seed, tol, budgets) its handler reads.  Domain failures and
bad settings exit 1 with a structured error object; argparse usage
failures, an unknown flag among them, exit 2.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from dataclasses import asdict
from functools import reduce

from .config import VERSION, RunConfig
from .cyclic import GroupFunction
from .errors import GowersLabError, InvalidConfigurationError
from .gowers import dual_function, gowers_norm, von_neumann_check
from .levelset import level_set_algebra, oscillation
from .partitions import conditional_expectation, energy, join
from .recurrence import (
    empirical_c,
    find_k_ap_in_set,
    finite_rank_sample,
    greedy_net,
    recurrence_average,
)
from .serialize import (
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    colouring_from_json,
    empirical_c_to_csv,
    function_from_json,
    function_to_json,
    member_set_from_json,
    partition_from_json,
    partition_to_json,
    trace_to_csv,
)
from .structure import decompose, verify_decomposition
from .uap import (
    CertifiedFunction,
    certify_dual,
    certify_spectrum,
    duality_audit,
    verify_certificate,
)
from .vdw import bound_recursion, find_mono_ap, vdw_number


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise InvalidConfigurationError(f"{path} is not UTF-8 JSON: {exc}") from None
    # outputs of other runs feed back in directly
    if isinstance(obj, dict) and "report" in obj and "version" in obj:
        return obj["report"]
    return obj


def _load_function(path: str) -> GroupFunction:
    return function_from_json(_load(path))


def _certify_input(obj: dict) -> CertifiedFunction:
    """Certificate JSON passes through once it verifies at the default tol;
    a bare function gets its spectral certificate."""
    if isinstance(obj, dict) and "order" in obj and "M" in obj:
        cf = certificate_from_json(obj)
        verify_certificate(cf)
        return cf
    return certify_spectrum(function_from_json(obj))


_ARITH_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow, ast.USub: operator.neg,
}


def _threshold_value(expr: str | None, k: int, delta: float):
    """A float, or arithmetic in k and delta: numbers (as floats, so **
    cannot build huge integers), + - * / **, unary minus, min and max.
    The length cap keeps the parser clear of deep nesting."""
    if expr is None:
        return None
    try:
        return float(expr)
    except ValueError:
        pass
    if len(expr) > 200:
        raise InvalidConfigurationError("--threshold expression over 200 characters")
    try:
        value = _arith(ast.parse(expr, mode="eval").body, {"k": float(k), "delta": float(delta)})
    except (SyntaxError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidConfigurationError(f"--threshold {expr!r}: {exc}") from exc
    if not isinstance(value, float):  # a negative base to a fractional power
        raise InvalidConfigurationError(f"--threshold {expr!r} is not a real number")
    return value


def _arith(node, names: dict):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITH_OPS:
        return _ARITH_OPS[type(node.op)](_arith(node.left, names), _arith(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ARITH_OPS:
        return _ARITH_OPS[type(node.op)](_arith(node.operand, names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max") and len(node.args) >= 2 and not node.keywords):
        return (min if node.func.id == "min" else max)(_arith(a, names) for a in node.args)
    raise InvalidConfigurationError(f"--threshold: {ast.unparse(node)!r} is not allowed")


# ---------------------------------------------------------------------------
# handlers, one per verb; each returns its report, or its CSV text under --format csv


def _gowers_norm(args, cfg):
    gn = gowers_norm(_load_function(args.input), args.order)
    if gn.value is None:
        return {"order": gn.order, "value": [gn.u0_value.real, gn.u0_value.imag]}
    return {"order": gn.order, "value": gn.value}


def _gowers_dual(args, cfg):
    return function_to_json(dual_function(_load_function(args.input), args.order))


def _gowers_vnn(args, cfg):
    fs = [_load_function(p) for p in args.inputs]
    rep = von_neumann_check(fs, args.lambdas, tol=cfg.tol)
    return {
        "value": rep.lhs,
        "witnesses": list(rep.norms),
        "bound": rep.rhs,
        "holds": rep.holds,
    }


def _uap_verify(args, cfg):
    cf = certificate_from_json(_load(args.cert))
    return {**asdict(verify_certificate(cf, tol=cfg.tol)), "ok": True}


def _uap_dual(args, cfg):
    f = _load_function(args.input)
    cf = certify_dual(f, args.order, node_budget=cfg.cert_nodes, tol=cfg.tol)
    return certificate_to_json(cf)


def _uap_audit(args, cfg):
    f = _load_function(args.input)
    cf = certificate_from_json(_load(args.cert))
    return asdict(duality_audit(f, cf, tol=cfg.tol))


def _partition_join(args, cfg):
    return partition_to_json(reduce(join, [partition_from_json(_load(p)) for p in args.inputs]))


def _partition_condexp(args, cfg):
    f = _load_function(args.input)
    B = partition_from_json(_load(args.partition))
    return function_to_json(conditional_expectation(f, B))


def _partition_energy(args, cfg):
    fs = [_load_function(p) for p in args.inputs]
    B = partition_from_json(_load(args.partition))
    return {"value": energy(fs, B)}


def _levelset_build(args, cfg):
    certs = [_certify_input(_load(p)) for p in args.g]
    algebra = level_set_algebra(certs, args.eps, seed=cfg.seed)
    return {
        "partition": partition_to_json(algebra.partition),
        "diagnostics": {
            "atoms": algebra.partition.atom_count,
            "linf_error": oscillation(algebra),
            "boundary_mass": algebra.boundary_mass(),
            "alpha": algebra.generators[0].alpha,
            "complexity": algebra.complexity,
        },
    }


def _structure_decompose(args, cfg):
    f = _load_function(args.input)
    thr = _threshold_value(args.threshold, args.k, args.delta)
    dec = decompose(
        f,
        args.k,
        args.delta,
        seed=cfg.seed,
        threshold=thr,
        budget=cfg.driver_steps,
        node_budget=cfg.cert_nodes,
        tol=cfg.tol,
    )
    checks = asdict(verify_decomposition(f, dec, tol=cfg.tol))
    csv_text = trace_to_csv(dec.trace)
    if args.trace_csv:
        with open(args.trace_csv, "w") as fh:
            fh.write(csv_text)
    if args.format == "csv":
        return csv_text
    return {
        "k": dec.k,
        "delta": dec.delta,
        "threshold": dec.threshold,
        "norm_fU": dec.norm_fU,
        "approx_method": dec.approximation.method,
        "approx_error": dec.approximation.error,
        "f_U": function_to_json(dec.f_U),
        "f_Uperp": function_to_json(dec.f_Uperp),
        "certificate": certificate_to_json(dec.certified),
        "partition": partition_to_json(dec.algebra.partition),
        "trace": [list(entry.as_row()) for entry in dec.trace],
        # norm_fU and threshold are reported once, above
        "checks": {k: v for k, v in checks.items() if k not in ("norm_fU", "threshold")},
    }


def _recur_average(args, cfg):
    return asdict(recurrence_average(_load_function(args.input), args.k, mu=args.mu))


def _recur_empirical_c(args, cfg):
    rows = [
        empirical_c(args.k, args.delta, n, mode=args.mode, samples=args.samples, seed=cfg.seed)
        for n in args.n
    ]
    return empirical_c_to_csv(rows) if args.format == "csv" else [asdict(r) for r in rows]


def _recur_find_ap(args, cfg):
    ap = find_k_ap_in_set(member_set_from_json(_load(args.input)), args.k)
    return {"k": args.k, "ap": list(ap) if ap is not None else None}


def _recur_net(args, cfg):
    return asdict(greedy_net([_load_function(p) for p in args.inputs], args.theta))


def _recur_sample(args, cfg):
    cols = [_load_function(p) for p in args.inputs]
    samp = finite_rank_sample(cols, args.weights, args.d, seed=cfg.seed,
                              trial=args.trial, tol=cfg.tol)
    return {
        "error": samp.error,
        "indices": list(samp.indices),
        "approximant": function_to_json(GroupFunction(cols[0].n, samp.approximant)),
    }


def _vdw_number(args, cfg):
    return asdict(vdw_number(args.k, args.m, n_max=args.max, max_nodes=cfg.vdw_nodes))


def _vdw_bound(args, cfg):
    return asdict(bound_recursion(args.k, args.m, digit_limit=cfg.digit_limit))


def _vdw_check(args, cfg):
    ap = find_mono_ap(colouring_from_json(_load(args.colouring)), args.k)
    return {"k": args.k, "mono_ap": list(ap) if ap is not None else None}


# ---------------------------------------------------------------------------
# parser


# RunConfig field -> flag; the default and the type come from RunConfig
_SETTINGS = {
    "seed": "--seed",
    "tol": "--tol",
    "driver_steps": "--budget-driver-steps",
    "cert_nodes": "--budget-cert-nodes",
    "vdw_nodes": "--budget-vdw-nodes",
    "digit_limit": "--budget-digit-limit",
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gowers-lab")
    groups = top.add_subparsers(dest="group", required=True)
    defaults = RunConfig()

    def leaf(group_sub, name, run, *settings, csv=False):
        """A verb bound to its handler, accepting exactly the run settings
        the handler reads, and --format only when it has a CSV form."""
        p = group_sub.add_parser(name)
        p.set_defaults(run=run)
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        for field in settings:
            default = getattr(defaults, field)
            p.add_argument(_SETTINGS[field], dest=field, type=type(default), default=default)
        return p

    g = groups.add_parser("gowers").add_subparsers(dest="verb", required=True)
    p = leaf(g, "norm", _gowers_norm)
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(g, "dual", _gowers_dual)
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(g, "vnn", _gowers_vnn, "tol")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--lambdas", nargs="+", type=int, required=True)

    u = groups.add_parser("uap").add_subparsers(dest="verb", required=True)
    p = leaf(u, "verify", _uap_verify, "tol")
    p.add_argument("--cert", required=True)
    p = leaf(u, "dual", _uap_dual, "cert_nodes", "tol")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(u, "audit", _uap_audit, "tol")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)

    q = groups.add_parser("partition").add_subparsers(dest="verb", required=True)
    p = leaf(q, "join", _partition_join)
    p.add_argument("--inputs", nargs="+", required=True)
    p = leaf(q, "condexp", _partition_condexp)
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p = leaf(q, "energy", _partition_energy)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--partition", required=True)

    l = groups.add_parser("levelset").add_subparsers(dest="verb", required=True)
    p = leaf(l, "build", _levelset_build, "seed")
    p.add_argument("--g", action="append", required=True,
                   help="generator file (function or certificate JSON); repeatable")
    p.add_argument("--eps", action="append", type=float, required=True,
                   help="scale; one shared value or one per generator")

    s = groups.add_parser("structure").add_subparsers(dest="verb", required=True)
    p = leaf(s, "decompose", _structure_decompose, "seed", "tol", "driver_steps", "cert_nodes",
             csv=True)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--threshold", default=None,
                   help="float or expression in k and delta")
    p.add_argument("--trace-csv", default=None, help="also write the energy trace here")

    r = groups.add_parser("recur").add_subparsers(dest="verb", required=True)
    p = leaf(r, "average", _recur_average)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=int, default=1)
    p = leaf(r, "empirical-c", _recur_empirical_c, "seed", csv=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", action="append", type=int, required=True,
                   help="group size; repeatable for a sweep")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p = leaf(r, "find-ap", _recur_find_ap)
    p.add_argument("--input", required=True, help='member set JSON {"n","set"}')
    p.add_argument("--k", type=int, required=True)
    p = leaf(r, "net", _recur_net)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--theta", type=float, required=True)
    p = leaf(r, "sample", _recur_sample, "seed", "tol")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)

    v = groups.add_parser("vdw").add_subparsers(dest="verb", required=True)
    p = leaf(v, "number", _vdw_number, "vdw_nodes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max", type=int, default=10000)
    p = leaf(v, "bound", _vdw_bound, "digit_limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = leaf(v, "check", _vdw_check)
    p.add_argument("--colouring", required=True)
    p.add_argument("--k", type=int, required=True)

    return top


def _check_settings(cfg: RunConfig):
    """--seed and the budgets are non-negative integers and --tol a finite slack;
    anything else exits 1 before any work."""
    if not 0 <= cfg.tol < math.inf:
        raise InvalidConfigurationError(f"--tol must be finite and non-negative, got {cfg.tol}")
    for field, flag in _SETTINGS.items():
        value = getattr(cfg, field)
        if field != "tol" and value < 0:
            raise InvalidConfigurationError(f"{flag} must be non-negative, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(**{f: v for f, v in vars(args).items() if f in _SETTINGS})
    try:
        _check_settings(cfg)
        report = args.run(args, cfg)
        if not isinstance(report, str):  # a CSV form is written as it is
            envelope = {
                "seed": cfg.seed,
                "version": VERSION,
                "config_digest": cfg.digest(),
                "report": report,
            }
            report = canonical_dumps(envelope) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
        return 0
    except (GowersLabError, OSError) as exc:
        err = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "seed": cfg.seed,
            "version": VERSION,
        }
        sys.stdout.write(canonical_dumps(err) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
