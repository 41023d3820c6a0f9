"""The four benchmark workloads: input generation, job lists and oracle checks.

`generate` runs in the launcher and uses numpy only, so the program sees
nothing but the files it writes.  `jobs`, `summarize` and `check` run in the
measured child process and reach the program through the public functions of
its modules, looked up on the module at call time so that the traced run's
wrappers are the ones called.
"""
from __future__ import annotations

import json
import math
from importlib import import_module
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_INPUT = ROOT / "tests" / "data" / "golden_input_n53.json"
GOLDEN_OUTPUT = ROOT / "tests" / "data" / "structure_n53.json"
TOL = 1e-9


class JobError:
    """Stands in for the result of a job that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(label.encode(), "little") % 2**32])


def _bounded(rng: np.random.Generator, n: int) -> dict:
    """Dense function JSON with every |f(x)| <= 1."""
    v = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2)
    return {"n": n, "re": v.real.tolist(), "im": v.imag.tolist()}


def _write(work: Path, name: str, obj) -> str:
    path = work / name
    path.write_text(json.dumps(obj))
    return str(path)


def _manifest(**parts) -> dict:
    base = {"functions": {}, "tuples": {}, "arrays": {}, "paths": {}}
    base.update(parts)
    return base


def _module(name: str):
    """A program module, imported late: the launcher never imports the program."""
    return import_module(f"gowers_lab.{name}")


# ---------------------------------------------------------------------------
# uniformity: deep single-function work in the derivative engine

NORM_CASES = ((13, 4), (31, 3), (53, 3), (211, 2))
CERT_CASES = ((31, 3), (13, 4))


class Uniformity:
    name = "uniformity"

    def generate(self, seed: int, work: Path) -> dict:
        rng = _rng(seed, self.name)
        funcs = {f"f{n}": _write(work, f"f{n}.json", _bounded(rng, n)) for n in (13, 31, 53, 211)}
        return _manifest(functions=funcs)

    def jobs(self, inputs: dict, manifest: dict, work: Path):
        gowers, uap = _module("gowers"), _module("uap")
        out = []
        for n, d in NORM_CASES:
            f = inputs[f"f{n}"]
            out.append((f"norm_{n}_{d}", lambda f=f, d=d: gowers.gowers_norm(f, d)))
        out.append(("dual_31_3", lambda f=inputs["f31"]: gowers.dual_function(f, 3)))
        for n, d in CERT_CASES:
            f = inputs[f"f{n}"]

            def certify(f=f, d=d):
                cf = uap.certify_dual(f, d)
                return cf, uap.verify_certificate(cf)

            out.append((f"cert_{n}_{d}", certify))
        return out

    def summarize(self, name: str, raw, work: Path, pass_id: int):
        if name.startswith("norm"):
            return raw.value
        if name.startswith("dual"):
            return raw.values.copy()
        cf, report = raw
        return {"order": cf.cert.order, "bound": cf.cert.bound, "func": cf.func.values.copy(),
                "nodes": report.total_nodes, "error": report.max_reconstruction_error}

    def oracle(self, inputs: dict, manifest: dict) -> dict:
        """Independent routes: the unrolled cube sum (d <= 3) and the Fourier l^4 sum (d = 2)."""
        gowers = _module("gowers")
        ref = {}
        for n, d in NORM_CASES:
            if d <= 3:
                ref[f"direct_{n}_{d}"] = gowers.gowers_norm_direct(inputs[f"f{n}"], d)
        ref["fourier_211_2"] = gowers.gowers_u2_fourier(inputs["f211"])
        return ref

    def check(self, inputs: dict, manifest: dict, ref: dict, s: dict) -> dict:
        def pairing(n, dual_values):
            f = inputs[f"f{n}"].values
            return complex(np.mean(f * np.conj(dual_values)))

        bad = {}
        for n, d in NORM_CASES:
            key = f"norm_{n}_{d}"
            if d <= 3 and abs(s[key] - ref[f"direct_{n}_{d}"]) > TOL:
                bad[key] = f"recursive {s[key]!r} vs direct {ref[f'direct_{n}_{d}']!r}"
        if abs(s["norm_211_2"] - ref["fourier_211_2"]) > TOL:
            bad["norm_211_2"] = f"recursive {s['norm_211_2']!r} vs Fourier {ref['fourier_211_2']!r}"
        gap = abs(pairing(31, s["dual_31_3"]) - ref["direct_31_3"] ** 8)
        if gap > TOL:
            bad["dual_31_3"] = f"<f, D_3 f> off ||f||^8 by {gap:.3e}"
        for n, d in CERT_CASES:
            key, c = f"cert_{n}_{d}", s[f"cert_{n}_{d}"]
            gap = abs(pairing(n, c["func"]) - s[f"norm_{n}_{d}"] ** (2 ** d))
            if c["order"] != d - 1 or c["bound"] != 1.0 or gap > TOL:
                bad[key] = f"order {c['order']}, bound {c['bound']}, <f, D_{d} f> gap {gap:.3e}"
        return bad


# ---------------------------------------------------------------------------
# census: the same engine used broadly, through many tiny rows

CENSUS_CASES = tuple((n, d) for n in (7, 11, 13) for d in (1, 2, 3))
CENSUS_TOTAL, CENSUS_VIOLATIONS = 49_813, 45_572
CHUNK = 4096
# (N, k) shapes of the von Neumann tuples; the seed draws values and dilations
VNN_SHAPES = ((5, 3), (7, 3), (11, 3), (13, 3), (5, 4), (7, 4), (11, 3), (13, 3)) * 12


def _census_coeffs(n: int, d: int) -> np.ndarray:
    return np.array(list(product(range(n), repeat=d + 1)), dtype=np.int64)


class Census:
    name = "census"

    def generate(self, seed: int, work: Path) -> dict:
        arrays = {}
        for n, d in CENSUS_CASES:
            pows = np.array([[pow(x, j, n) for x in range(n)] for j in range(d + 1)])
            rows = np.exp(2j * np.pi * ((_census_coeffs(n, d) @ pows) % n) / n)
            path = work / f"phases_{n}_{d}.npy"
            np.save(path, rows)
            arrays[f"phases_{n}_{d}"] = str(path)
        rng = _rng(seed, self.name)
        tuples = []
        for n, k in VNN_SHAPES:
            lams = rng.choice(n, size=k, replace=False).tolist()
            tuples.append({"lams": lams, "fs": [_bounded(rng, n) for _ in range(k)]})
        return _manifest(arrays=arrays, tuples={"vnn": _write(work, "vnn.json", tuples)})

    def jobs(self, inputs: dict, manifest: dict, work: Path):
        gowers = _module("gowers")
        out = []
        for n, d in CENSUS_CASES:
            rows = inputs[f"phases_{n}_{d}"]

            def sweep(rows=rows, d=d):
                return np.concatenate([
                    gowers.gowers_norm_batch(rows[lo:lo + CHUNK], d, tol=TOL)
                    for lo in range(0, rows.shape[0], CHUNK)
                ])

            out.append((f"phases_{n}_{d}", sweep))
        for i, (fs, lams) in enumerate(inputs["vnn"]):
            out.append((f"vnn_{i}", lambda fs=fs, lams=lams: gowers.von_neumann_check(fs, lams)))
        return out

    def summarize(self, name: str, raw, work: Path, pass_id: int):
        if name.startswith("phases"):
            return raw
        return {"lhs": raw.lhs, "norms": raw.norms, "holds": raw.holds}

    def oracle(self, inputs: dict, manifest: dict) -> dict:
        """Direct cube norms and an index-arithmetic progression average per tuple."""
        gowers = _module("gowers")
        ref = {}
        for i, (fs, lams) in enumerate(inputs["vnn"]):
            n = fs[0].n
            x = np.arange(n)
            prod = np.ones((n, n), dtype=np.complex128)
            for g, lam in zip(fs, lams):
                prod *= g.values[(x[:, None] + lam * x[None, :]) % n]
            ref[f"vnn_{i}"] = (abs(prod.mean()),
                               [gowers.gowers_norm_direct(g, len(fs) - 1) for g in fs])
        return ref

    def check(self, inputs: dict, manifest: dict, ref: dict, s: dict) -> dict:
        bad = {}
        violations = total = 0
        for n, d in CENSUS_CASES:
            key = f"phases_{n}_{d}"
            vals = s[key]
            top = _census_coeffs(n, d)[:, -1] != 0  # deg P == d exactly
            off = np.abs(vals - 1.0) > TOL
            violations += int(off.sum())
            total += vals.size
            if not np.array_equal(off, top):
                bad[key] = f"{int(off.sum())} rows off unity, expected exactly the {int(top.sum())} of degree {d}"
            elif d == 2 and np.max(np.abs(vals[top] - n ** -0.25)) > TOL:
                bad[key] = "quadratic-phase U^2 is not N^(-1/4)"
        if (violations, total) != (CENSUS_VIOLATIONS, CENSUS_TOTAL):
            for n, d in CENSUS_CASES:
                bad.setdefault(f"phases_{n}_{d}", f"census {violations} of {total}")
        for key, (lhs, norms) in ref.items():
            got = s[key]
            if not got["holds"] or abs(got["lhs"] - lhs) > TOL or \
                    max(abs(a - b) for a, b in zip(got["norms"], norms)) > TOL:
                bad[key] = f"von Neumann report {got} vs oracle lhs {lhs!r}, norms {norms}"
        return bad


# ---------------------------------------------------------------------------
# decompose: the CLI verb, which alone reaches structure, levelset,
# partitions, serialize and cli

N101 = 101
# fixed base set; each seed maps it by an affine bijection x -> a x + b of Z_101,
# under which decompose is equivariant, so every seed keeps f_U != 0
BASE101 = tuple(sorted(np.random.default_rng(1).choice(N101, 35, replace=False).tolist()))
DECOMPOSE_CASES = (
    ("golden_k3", "golden", ["--k", "3", "--delta", "0.3"]),
    ("golden_k4", "golden", ["--k", "4", "--delta", "0.3"]),
    ("set101_k3", "set101", ["--k", "3", "--delta", "0.3", "--threshold", "0.1"]),
)


def _deep_close(a, b, path="$"):
    if isinstance(a, dict):
        if not isinstance(b, dict) or sorted(a) != sorted(b):
            return path
        return next((p for k in a if (p := _deep_close(a[k], b[k], f"{path}.{k}"))), None)
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return path
        return next((p for i, (x, y) in enumerate(zip(a, b))
                     if (p := _deep_close(x, y, f"{path}[{i}]"))), None)
    if isinstance(a, float) or isinstance(b, float):
        return None if abs(a - b) <= TOL else path
    return None if a == b else path


class Decompose:
    name = "decompose"

    def generate(self, seed: int, work: Path) -> dict:
        rng = _rng(seed, self.name)
        a, b = int(rng.integers(1, N101)), int(rng.integers(0, N101))
        members = sorted((a * x + b) % N101 for x in BASE101)
        set101 = _write(work, "set101.json", {"n": N101, "set": members})
        funcs = {"golden": str(GOLDEN_INPUT), "set101": set101}
        return _manifest(functions=funcs, paths=funcs)

    def jobs(self, inputs: dict, manifest: dict, work: Path):
        cli = _module("cli")
        out = []
        for name, src, flags in DECOMPOSE_CASES:
            argv = ["structure", "decompose", "--input", manifest["paths"][src], *flags,
                    "--seed", "0", "--out", str(work / f"{name}.json")]
            out.append((name, lambda argv=argv: cli.main(argv)))
        return out

    def summarize(self, name: str, raw, work: Path, pass_id: int):
        # only the path is kept: the file is parsed after peak memory is taken
        path = work / f"{name}-pass{pass_id}.json"
        if raw == 0:
            (work / f"{name}.json").replace(path)
        return {"rc": raw, "path": str(path)}

    def oracle(self, inputs: dict, manifest: dict) -> dict:
        return json.loads(GOLDEN_OUTPUT.read_text())

    def check(self, inputs: dict, manifest: dict, ref: dict, s: dict) -> dict:
        bad = {}
        for name, _, _ in DECOMPOSE_CASES:
            if s[name]["rc"] != 0:
                bad[name] = f"exit code {s[name]['rc']}"
                continue
            env = json.loads(Path(s[name]["path"]).read_text())
            report = env["report"]
            if not report["checks"]["holds"]:
                bad[name] = "checks.holds is false"
            elif name == "golden_k3" and (env["config_digest"] != ref["config_digest"]
                                          or _deep_close(report, ref["report"])):
                bad[name] = f"differs from the golden replay at {_deep_close(report, ref['report'])}"
            elif name == "set101_k3" and not any(report["f_U"]["re"] + report["f_U"]["im"]):
                bad[name] = "f_U is identically zero"
        return bad


# ---------------------------------------------------------------------------
# search: the combinatorial half, which never enters the derivative engine

VDW_CASES = {(3, 3): (27, 337_640), (4, 2): (35, 20_351)}
EMPIRICAL_NS = (19, 21)


def _has_mono_ap(colours, k: int) -> bool:
    n = len(colours)
    return any(len({colours[a + j * r] for j in range(k)}) == 1
               for r in range(1, n) for a in range(n - (k - 1) * r))


class Search:
    name = "search"

    def generate(self, seed: int, work: Path) -> dict:
        return _manifest()  # fixed instances: the seed changes nothing here

    def jobs(self, inputs: dict, manifest: dict, work: Path):
        recurrence, vdw = _module("recurrence"), _module("vdw")
        out = [(f"vdw_{k}_{m}", lambda k=k, m=m: vdw.vdw_number(k, m)) for k, m in VDW_CASES]
        out += [(f"empirical_c_{n}", lambda n=n: recurrence.empirical_c(3, 0.5, n))
                for n in EMPIRICAL_NS]
        out.append(("bound_3_2", lambda: vdw.bound_recursion(3, 2)))
        return out

    def summarize(self, name: str, raw, work: Path, pass_id: int):
        return raw

    def oracle(self, inputs: dict, manifest: dict) -> dict:
        return {}

    def check(self, inputs: dict, manifest: dict, ref: dict, s: dict) -> dict:
        recurrence = _module("recurrence")
        bad = {}
        for (k, m), (value, nodes) in VDW_CASES.items():
            r = s[f"vdw_{k}_{m}"]
            col = r.avoider.colours
            if (r.value, r.nodes, r.complete) != (value, nodes, True) or \
                    len(col) != value - 1 or _has_mono_ap(col, k):
                bad[f"vdw_{k}_{m}"] = f"W={r.value} in {r.nodes} nodes, avoider length {len(col)}"
        for n in EMPIRICAL_NS:
            r = s[f"empirical_c_{n}"]
            size = math.ceil(0.5 * n)
            subsets = sum(math.comb(n, j) for j in range(size, n + 1))
            if r.sets_checked != subsets or len(r.witness) < size or \
                    recurrence.count_ap_instances(r.witness, n, 3) != r.count_min or \
                    r.c_min != r.count_min / n ** 2:
                bad[f"empirical_c_{n}"] = f"{r}"
        r = s["bound_3_2"]
        # N_FAN(3,2,2) = 4k . N_FAN(3,2,1) . N_vdW(2, 2^2 . 768^2) = 12 . 768 . 8^2359296
        digits = math.floor(math.log10(9216) + 2_359_296 * math.log10(8)) + 1
        if not r.overflow or abs(r.digits - digits) > 1:
            bad["bound_3_2"] = f"{r.digits} digits, expected {digits}"
        return bad


WORKLOADS = {w.name: w for w in (Uniformity(), Census(), Decompose(), Search())}
