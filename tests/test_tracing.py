"""The benchmark's trace hooks, perfbench/tracing.py, against the package:
every function they wrap must exist under its name once the CLI is imported."""
import importlib.util
from pathlib import Path

import numpy as np

import gowers_lab as gl
import gowers_lab.cli  # noqa: F401  (imports every module the hooks name)
from gowers_lab import uap

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = uap.verify_certificate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}" for mod, attr, _ in tracer._patched}
        cf = gl.certify_dual(gl.GroupFunction(5, 0.5 * np.ones(5)), 2)
        tracer.run("job.verify", lambda: uap.verify_certificate(cf))
    finally:
        tracer.remove()
    assert set(tracing.TARGETS) <= wrapped
    assert uap.verify_certificate is original
    # the count hook reads the report's node count
    assert tracer.self_times(None)["uap.verify_certificate"]["nodes"] == 1
