"""Command-line front end.

One executable, seven command groups (gowers, uap, partition, levelset,
structure, recur, vdw).  Every run prints a single JSON envelope
{seed, version, config_digest, report} in canonical form, so identical
inputs and seed give byte-identical output.  Each verb accepts only the
run settings (seed, tol, budgets) its handler reads.  Domain failures and
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

from .config import VERSION, RunConfig
from .cyclic import GroupFunction
from .errors import GowersLabError, InvalidConfigurationError, ModeError
from .gowers import (
    dual_function,
    fourier_coefficients,
    gowers_norm,
    von_neumann_check,
)
from .levelset import _boundary_mass, BOUNDARY_SIGMA, level_set_algebra, oscillation
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
    partition_from_json,
    partition_to_json,
    trace_to_csv,
)
from .structure import decompose, verify_decomposition
from .uap import cert_zero, CertifiedFunction, certify_dual, certify_phase_sum, duality_audit, verify_certificate
from .vdw import bound_recursion, find_mono_ap, vdw_number


def _load(path: str) -> dict:
    with open(path, "r") as fh:
        obj = json.load(fh)
    # outputs of other runs feed back in directly
    if isinstance(obj, dict) and "report" in obj and "version" in obj:
        return obj["report"]
    return obj


def _load_function(path: str) -> GroupFunction:
    return function_from_json(_load(path))


def _certify_input(obj: dict) -> CertifiedFunction:
    """Certificate JSON passes through; a bare function is certified
    exactly through its Fourier expansion (order 1, Wiener-norm bound)."""
    if "order" in obj and "M" in obj:
        return certificate_from_json(obj)
    f = function_from_json(obj)
    fhat = fourier_coefficients(f)
    terms = [(fhat[t], (0, t)) for t in range(f.n) if abs(fhat[t]) > 1e-13]
    if not terms:
        return cert_zero(f.n, 1)
    return certify_phase_sum(f.n, terms)


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
# handlers; each returns (report_dict, csv_text_or_None)


def _run_gowers(args, cfg):
    if args.verb == "norm":
        f = _load_function(args.input)
        gn = gowers_norm(f, args.order, tol=cfg.tol)
        if gn.value is None:
            return {"order": gn.order, "value": [gn.u0_value.real, gn.u0_value.imag]}, None
        return {"order": gn.order, "value": gn.value}, None
    if args.verb == "dual":
        f = _load_function(args.input)
        return function_to_json(dual_function(f, args.order)), None
    if args.verb == "vnn":
        fs = [_load_function(p) for p in args.inputs]
        rep = von_neumann_check(fs, args.lambdas, tol=cfg.tol)
        return {
            "value": rep.lhs,
            "witnesses": list(rep.norms),
            "bound": rep.rhs,
            "holds": rep.holds,
        }, None
    raise ModeError(f"unknown gowers verb {args.verb!r}")


def _run_uap(args, cfg):
    if args.verb == "verify":
        cf = certificate_from_json(_load(args.cert))
        rep = verify_certificate(cf, tol=cfg.tol)
        return {**asdict(rep), "ok": True}, None
    if args.verb == "dual":
        f = _load_function(args.input)
        cf = certify_dual(f, args.order, node_budget=cfg.cert_nodes, tol=cfg.tol)
        return certificate_to_json(cf), None
    if args.verb == "audit":
        f = _load_function(args.input)
        cf = certificate_from_json(_load(args.cert))
        return asdict(duality_audit(f, cf, tol=cfg.tol)), None
    raise ModeError(f"unknown uap verb {args.verb!r}")


def _run_partition(args, cfg):
    if args.verb == "join":
        parts = [partition_from_json(_load(p)) for p in args.inputs]
        out = parts[0]
        for p in parts[1:]:
            out = join(out, p)
        return partition_to_json(out), None
    if args.verb == "condexp":
        f = _load_function(args.input)
        B = partition_from_json(_load(args.partition))
        return function_to_json(conditional_expectation(f, B)), None
    if args.verb == "energy":
        fs = [_load_function(p) for p in args.inputs]
        B = partition_from_json(_load(args.partition))
        return {"value": energy(fs, B)}, None
    raise ModeError(f"unknown partition verb {args.verb!r}")


def _run_levelset(args, cfg):
    certs = [_certify_input(_load(p)) for p in args.g]
    algebra = level_set_algebra(certs, args.eps, seed=cfg.seed)
    alpha = algebra.generators[0].alpha
    mass = _boundary_mass(
        [gen.certified.func.values for gen in algebra.generators],
        [gen.eps for gen in algebra.generators],
        alpha,
        BOUNDARY_SIGMA,
    )
    return {
        "partition": partition_to_json(algebra.partition),
        "diagnostics": {
            "atoms": algebra.partition.atom_count,
            "linf_error": oscillation(algebra),
            "boundary_mass": int(mass),
            "alpha": alpha,
            "complexity": algebra.complexity,
        },
    }, None


def _run_structure(args, cfg):
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
    checks = verify_decomposition(f, dec, tol=cfg.tol)
    report = {
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
        "checks": {
            "split_error": checks.split_error,
            "approx_l2": checks.approx_l2,
            "approx_cap": checks.approx_cap,
            "mean_structured": checks.mean_structured,
            "max_atom_pairing": checks.max_atom_pairing,
            "certificate_nodes": checks.certificate_nodes,
            "holds": checks.holds,
        },
    }
    csv_text = trace_to_csv(dec.trace)
    if args.trace_csv:
        with open(args.trace_csv, "w") as fh:
            fh.write(csv_text)
    return report, csv_text


def _run_recur(args, cfg):
    if args.verb == "average":
        f = _load_function(args.input)
        rep = recurrence_average(f, args.k, mu=args.mu)
        return {
            "k": rep.k,
            "n": rep.n,
            "average": rep.average,
            "mu": rep.mu,
            "r_range": list(rep.r_range),
        }, None
    if args.verb == "empirical-c":
        rows = [
            empirical_c(args.k, args.delta, n, mode=args.mode,
                        samples=args.samples, seed=cfg.seed)
            for n in args.n
        ]
        return [asdict(r) for r in rows], empirical_c_to_csv(rows)
    if args.verb == "find-ap":
        obj = _load(args.input)
        ap = find_k_ap_in_set(obj["set"], args.k)
        return {"k": args.k, "ap": list(ap) if ap is not None else None}, None
    if args.verb == "net":
        vecs = [_load_function(p) for p in args.inputs]
        return asdict(greedy_net(vecs, args.theta)), None
    if args.verb == "sample":
        cols = [_load_function(p) for p in args.inputs]
        samp = finite_rank_sample(cols, args.weights, args.d, seed=cfg.seed,
                                  trial=args.trial, tol=cfg.tol)
        return {
            "error": samp.error,
            "indices": list(samp.indices),
            "approximant": function_to_json(GroupFunction(cols[0].n, samp.approximant)),
        }, None
    raise ModeError(f"unknown recur verb {args.verb!r}")


def _run_vdw(args, cfg):
    if args.verb == "number":
        return asdict(vdw_number(args.k, args.m, n_max=args.max, max_nodes=cfg.vdw_nodes)), None
    if args.verb == "bound":
        return asdict(bound_recursion(args.k, args.m, digit_limit=cfg.digit_limit)), None
    if args.verb == "check":
        col = colouring_from_json(_load(args.colouring))
        ap = find_mono_ap(col, args.k)
        return {"k": args.k, "mono_ap": list(ap) if ap is not None else None}, None
    raise ModeError(f"unknown vdw verb {args.verb!r}")


_HANDLERS = {
    "gowers": _run_gowers,
    "uap": _run_uap,
    "partition": _run_partition,
    "levelset": _run_levelset,
    "structure": _run_structure,
    "recur": _run_recur,
    "vdw": _run_vdw,
}


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

    def leaf(group_sub, name, *settings):
        """A verb that accepts exactly the run settings its handler reads."""
        p = group_sub.add_parser(name)
        p.set_defaults(verb=name)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        for field in settings:
            default = getattr(defaults, field)
            p.add_argument(_SETTINGS[field], dest=field, type=type(default), default=default)
        return p

    g = groups.add_parser("gowers").add_subparsers(dest="verb", required=True)
    p = leaf(g, "norm", "tol")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(g, "dual")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(g, "vnn", "tol")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--lambdas", nargs="+", type=int, required=True)

    u = groups.add_parser("uap").add_subparsers(dest="verb", required=True)
    p = leaf(u, "verify", "tol")
    p.add_argument("--cert", required=True)
    p = leaf(u, "dual", "cert_nodes", "tol")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, required=True)
    p = leaf(u, "audit", "tol")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)

    q = groups.add_parser("partition").add_subparsers(dest="verb", required=True)
    p = leaf(q, "join")
    p.add_argument("--inputs", nargs="+", required=True)
    p = leaf(q, "condexp")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p = leaf(q, "energy")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--partition", required=True)

    l = groups.add_parser("levelset").add_subparsers(dest="verb", required=True)
    p = leaf(l, "build", "seed")
    p.add_argument("--g", action="append", required=True,
                   help="generator file (function or certificate JSON); repeatable")
    p.add_argument("--eps", action="append", type=float, required=True,
                   help="scale; one shared value or one per generator")

    s = groups.add_parser("structure").add_subparsers(dest="verb", required=True)
    p = leaf(s, "decompose", "seed", "tol", "driver_steps", "cert_nodes")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--threshold", default=None,
                   help="float or expression in k and delta")
    p.add_argument("--trace-csv", default=None, help="also write the energy trace here")

    r = groups.add_parser("recur").add_subparsers(dest="verb", required=True)
    p = leaf(r, "average")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=int, default=1)
    p = leaf(r, "empirical-c", "seed")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", action="append", type=int, required=True,
                   help="group size; repeatable for a sweep")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p = leaf(r, "find-ap")
    p.add_argument("--input", required=True, help='member set JSON {"n","set"}')
    p.add_argument("--k", type=int, required=True)
    p = leaf(r, "net")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--theta", type=float, required=True)
    p = leaf(r, "sample", "seed", "tol")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)

    v = groups.add_parser("vdw").add_subparsers(dest="verb", required=True)
    p = leaf(v, "number", "vdw_nodes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max", type=int, default=10000)
    p = leaf(v, "bound", "digit_limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = leaf(v, "check")
    p.add_argument("--colouring", required=True)
    p.add_argument("--k", type=int, required=True)

    return top


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        report, csv_text = _HANDLERS[args.group](args, cfg)
        if args.format == "csv":
            if csv_text is None:
                raise ModeError(f"no csv form for {args.group} {args.verb}")
            _emit(csv_text, args.out)
            return 0
        envelope = {
            "seed": cfg.seed,
            "version": VERSION,
            "config_digest": cfg.digest(),
            "report": report,
        }
        _emit(canonical_dumps(envelope) + "\n", args.out)
        return 0
    except (GowersLabError, OSError, KeyError, ValueError) as exc:
        err = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "seed": cfg.seed,
            "version": VERSION,
        }
        sys.stdout.write(canonical_dumps(err) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
