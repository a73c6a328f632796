"""The benchmark's tracer, ``bench/tracing.py``, against the package.

The tracer patches names into the package's modules from outside and reads
each program's shape from :attr:`LinearProgram.rows` and ``bounds``.  A
change to the package that renames a patched function or drops those
read-backs breaks the traced benchmark; this test catches it in the test
suite, on three small runs, one per mode.
"""

import importlib.util
from pathlib import Path

import pytest

import polyrad
from polyrad import MODE_L, MODE_P, MODE_R, RunConfig, serialize
from polyrad.datasets import euler_binary, random_family

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs():
    """The signature of each run: everything traced and untraced runs must
    share, bit for bit."""
    cases = [(euler_binary(7), MODE_P), (euler_binary(9), MODE_L),
             (random_family("gaussian-equal-norm", 5, 2, 1), MODE_R)]
    signatures = []
    for family, mode in cases:
        out = polyrad.run(family, RunConfig(mode=mode, max_iterations=10))
        signatures.append((
            out.status, repr(out.value), repr(out.bounds), repr(out.t_N),
            out.iterations, out.vertex_count, out.lps_solved, out.lps_skipped,
            None if out.certificate is None else serialize(out.certificate)))
    return signatures


def test_traced_runs_equal_untraced_and_count_every_layer(tracing):
    untraced = _runs()
    tracer = tracing.Tracer()
    try:
        # Every PATCH_SITES entry; a name the package no longer has raises
        # here, and the sites patched before it are restored below.
        tracer.install()
        traced = _runs()
    finally:
        tracer.uninstall()
    assert traced == untraced
    layers = tracer.layer_metrics(cert_bytes=0, rejected=0)
    for name in ("simplex.lps", "simplex.rows_mean", "membership.calls_P",
                 "membership.calls_R", "membership.calls_L"):
        assert layers[name] > 0, name
