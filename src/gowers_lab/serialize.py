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


def _int(v) -> bool:  # a bool is not an int, and numpy takes only int64
    return type(v) is int and -2 ** 63 <= v < 2 ** 63


def _list_of(test):
    return lambda v: type(v) is list and all(map(test, v))


def _rows(test):  # a list of equal-length lists
    return lambda v: _list_of(_list_of(test))(v) and len(set(map(len, v))) < 2


# field kinds: (the form an error names, a test of the JSON value); NaN and
# Infinity are numbers here, and the certificate verifier rejects them
INT, REAL = ("an integer", _int), ("a number", lambda v: type(v) is float or _int(v))
PAIR = ("an [re, im] pair", lambda v: type(v) is list and len(v) == 2 and all(map(REAL[1], v)))
INTS, REALS = ("a list of integers", _list_of(_int)), ("a list of numbers", _list_of(REAL[1]))
OBJECT, LIST = ("an object", lambda v: type(v) is dict), ("a list", lambda v: type(v) is list)


def _fields(obj, what: str, **kinds):
    """obj[key] for each key, of its kind; a non-object, a missing key or a
    value of another form raises an error naming it and the form expected."""
    if type(obj) is not dict:
        raise InvalidConfigurationError(f"{what} JSON must be an object")
    missing = [f'"{k}"' for k in kinds if k not in obj]
    if missing:
        form = ", ".join(f'"{k}"' for k in kinds)
        raise InvalidConfigurationError(
            f"{what} JSON lacks {', '.join(missing)}; expected {{{form}}}")
    for key, (form, test) in kinds.items():
        if not test(obj[key]):
            raise InvalidConfigurationError(f'{what} JSON field "{key}" must be {form}')
    return [obj[k] for k in kinds]


# ---------------------------------------------------------------------------
# functions


def function_to_json(f: GroupFunction) -> dict:
    return {"n": f.n, "re": f.values.real.tolist(), "im": f.values.imag.tolist()}


def function_from_json(obj) -> GroupFunction:
    """Accepts the dense {"n","re","im"} form, the indicator shorthand
    {"n","set"}, and the quasiperiodic shorthand {"n","terms"}."""
    _fields(obj, "function")
    if "re" in obj:
        n, re = _fields(obj, "function", n=INT, re=REALS)
        im = _fields(obj, "function", im=REALS)[0] if "im" in obj else [0.0] * len(re)
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
        if re.shape != (n,) or im.shape != (n,):
            raise InvalidConfigurationError("re/im length must equal n")
        return GroupFunction(n, re + 1j * im)
    if "set" in obj:
        n, members = _fields(obj, "function", n=INT, set=INTS)
        return GroupFunction.indicator(n, members)
    if "terms" in obj:
        n, raw = _fields(obj, "function", n=INT, terms=LIST)
        terms = []
        for t in raw:
            c, poly = _fields(t, "phase term", c=PAIR, poly=INTS)
            terms.append((complex(c[0], c[1]), tuple(poly)))
        return quasiperiodic(n, terms)
    raise InvalidConfigurationError("unrecognized function JSON shape")


def member_set_from_json(obj) -> list:
    """The members of an integer set {"n", "set"}; only "set" is read."""
    return _fields(obj, "member set", set=INTS)[0]


# ---------------------------------------------------------------------------
# partitions and colourings


def partition_to_json(p: Partition) -> dict:
    return {"n": p.n, "labels": [int(v) for v in p.labels]}


def partition_from_json(obj) -> Partition:
    n, labels = _fields(obj, "partition", n=INT, labels=INTS)
    return Partition(n, np.asarray(labels, dtype=np.int64))


def colouring_to_json(c: Colouring) -> dict:
    return {"n": c.n, "m": c.m, "colours": list(c.colours)}


def colouring_from_json(obj) -> Colouring:
    n, m, colours = _fields(obj, "colouring", n=INT, m=INT, colours=INTS)
    return Colouring(n, m, tuple(colours))


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(cf: CertifiedFunction) -> dict:
    """Recursive tree; each node's rows are written through its offset, and
    structural sharing is expanded on output."""
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
        coeff = cf.rows
        out["coeffs"] = np.stack([coeff.real, coeff.imag], -1).tolist()
    else:
        out["coeffs"] = [[certificate_to_json(c) for c in row] for row in cf.rows]
    return out


def certificate_from_json(obj) -> CertifiedFunction:
    order, bound, func = _fields(obj, "certificate", order=INT, M=REAL, func=OBJECT)
    bound, func = float(bound), function_from_json(func)
    if order == 0:
        (value,) = _fields(obj, "order-0 certificate", value=PAIR)
        return CertifiedFunction(UapCertificate(0, bound, func, value=complex(value[0], value[1])))
    rows = ("equal-length rows of [re, im] pairs", _rows(PAIR[1])) if order == 1 else \
        ("equal-length rows of certificates", _rows(OBJECT[1]))
    weights, columns, coeffs = _fields(obj, "certificate", weights=REALS, columns=LIST, coeffs=rows)
    weights = np.asarray(weights, dtype=float)
    columns = tuple(function_from_json(g) for g in columns)
    if order == 1:
        coeffs = np.array([[complex(c[0], c[1]) for c in row] for row in coeffs], np.complex128)
    else:
        coeffs = tuple(tuple(certificate_from_json(c) for c in row) for row in coeffs)
    cert = UapCertificate(order, bound, func, weights=weights, columns=columns, coeffs=coeffs)
    return CertifiedFunction(cert)


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
