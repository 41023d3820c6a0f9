"""JSON and CSV round-tripping for every public object.

Canonical output is deterministic: sorted keys, fixed separators, no
whitespace variance, numpy scalars converted to native types.  Floats
are emitted in Python's shortest round-trip form, which re-reads to the
identical double.
"""
from __future__ import annotations

import json

import numpy as np

from .cyclic import GroupFunction, quasiperiodic
from .errors import InvalidConfigurationError
from .partitions import Partition
from .structure import TRACE_COLUMNS
from .uap import CertifiedFunction, UapCertificate
from .vdw import Colouring


def _native(obj):
    """json.dumps hook for numpy values and complex numbers.  Converting at
    encode time, not by copying the report first, keeps large certificates
    from being held twice in memory; np.float64 is a float, written as one."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(np.real(obj)), float(np.imag(obj))]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_native)


def _fields(obj: dict, what: str, *keys):
    """obj[key] for each key; a missing key is named with the form expected."""
    missing = [f'"{k}"' for k in keys if k not in obj]
    if missing:
        form = ", ".join(f'"{k}"' for k in keys)
        raise InvalidConfigurationError(
            f"{what} JSON lacks {', '.join(missing)}; expected {{{form}}}")
    return [obj[k] for k in keys]


# ---------------------------------------------------------------------------
# functions


def function_to_json(f: GroupFunction) -> dict:
    return {"n": f.n, "re": f.values.real.tolist(), "im": f.values.imag.tolist()}


def function_from_json(obj: dict) -> GroupFunction:
    """Accepts the dense {"n","re","im"} form, the indicator shorthand
    {"n","set"}, and the quasiperiodic shorthand {"n","terms"}."""
    if "re" in obj:
        n, re = _fields(obj, "function", "n", "re")
        n, re = int(n), np.asarray(re, dtype=float)
        im = np.asarray(obj.get("im", np.zeros(n)), dtype=float)
        if re.shape != (n,) or im.shape != (n,):
            raise InvalidConfigurationError("re/im length must equal n")
        return GroupFunction(n, re + 1j * im)
    if "set" in obj:
        n, members = _fields(obj, "function", "n", "set")
        return GroupFunction.indicator(int(n), members)
    if "terms" in obj:
        n, raw = _fields(obj, "function", "n", "terms")
        terms = []
        for t in raw:
            c, poly = _fields(t, "phase term", "c", "poly")
            terms.append((complex(c[0], c[1]), tuple(int(a) for a in poly)))
        return quasiperiodic(int(n), terms)
    raise InvalidConfigurationError("unrecognized function JSON shape")


def member_set_from_json(obj: dict) -> list:
    """The members of an integer set {"n", "set"}; only "set" is read."""
    return _fields(obj, "member set", "set")[0]


# ---------------------------------------------------------------------------
# partitions and colourings


def partition_to_json(p: Partition) -> dict:
    return {"n": p.n, "labels": [int(v) for v in p.labels]}


def partition_from_json(obj: dict) -> Partition:
    n, labels = _fields(obj, "partition", "n", "labels")
    return Partition(int(n), np.asarray(labels, dtype=np.int64))


def colouring_to_json(c: Colouring) -> dict:
    return {"n": c.n, "m": c.m, "colours": list(c.colours)}


def colouring_from_json(obj: dict) -> Colouring:
    n, m, colours = _fields(obj, "colouring", "n", "m", "colours")
    return Colouring(int(n), int(m), tuple(int(v) for v in colours))


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(cf: CertifiedFunction) -> dict:
    """Recursive tree; structural sharing is expanded on output."""
    cert = cf.cert
    out = {
        "order": cert.order,
        "M": float(cert.bound),
        "func": function_to_json(cf.func),
    }
    if cert.order == 0:
        out["value"] = [float(np.real(cert.value)), float(np.imag(cert.value))]
        return out
    out["weights"] = np.asarray(cert.weights, float).tolist()
    out["columns"] = [function_to_json(g) for g in cert.columns]
    if cert.order == 1:
        coeff = np.asarray(cert.coeffs)
        out["coeffs"] = np.stack([coeff.real, coeff.imag], -1).tolist()
    else:
        out["coeffs"] = [
            [certificate_to_json(c) for c in row] for row in cert.coeffs
        ]
    return out


def certificate_from_json(obj: dict) -> CertifiedFunction:
    order, bound, func = _fields(obj, "certificate", "order", "M", "func")
    order, bound, func = int(order), float(bound), function_from_json(func)
    if order == 0:
        (value,) = _fields(obj, "order-0 certificate", "value")
        return CertifiedFunction(func, UapCertificate(0, bound, value=complex(value[0], value[1])))
    weights, columns, coeffs = _fields(obj, "certificate", "weights", "columns", "coeffs")
    weights = np.asarray(weights, dtype=float)
    columns = tuple(function_from_json(g) for g in columns)
    if order == 1:
        coeffs = np.array(
            [[complex(c[0], c[1]) for c in row] for row in coeffs],
            dtype=np.complex128,
        )
    else:
        coeffs = tuple(tuple(certificate_from_json(c) for c in row) for row in coeffs)
    cert = UapCertificate(order, bound, weights=weights, columns=columns, coeffs=coeffs)
    return CertifiedFunction(func, cert)


# ---------------------------------------------------------------------------
# CSV


def trace_to_csv(trace) -> str:
    lines = [",".join(TRACE_COLUMNS)]
    for entry in trace:
        lines.append(",".join(
            repr(v) if isinstance(v, float) else str(v) for v in entry.as_row()
        ))
    return "\n".join(lines) + "\n"


def empirical_c_to_csv(results) -> str:
    lines = ["N,k,delta,c_min,witness_set"]
    for r in results:
        witness = " ".join(str(v) for v in r.witness)
        lines.append(f"{r.n},{r.k},{repr(float(r.delta))},{repr(float(r.c_min))},{witness}")
    return "\n".join(lines) + "\n"
