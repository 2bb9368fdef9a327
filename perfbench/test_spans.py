"""Self-time, entry and percentile arithmetic of the benchmark's tracer, on a
synthetic span tree, plus a round trip through a real wrapper install."""

import sys
import types

import pytest

import spans
from spans import Span


def _tree():
    # harness op [0, 10]
    #   cli.run [1, 9]
    #     fock.build [2, 6]
    #       opcore.a [3, 4]
    #       opcore.b [4.5, 5.5] (raised)
    #     opcore.c [6.5, 8]
    #       states.d [7, 7.5]
    #         opcore.e [7.1, 7.2]   re-entry of opcore through states
    #           opcore.e [7.12, 7.15] recursion
    rows = [
        (0, "harness.op", "harness", None, 0.0, 10.0),
        (1, "cli.run", "cli", 0, 1.0, 9.0),
        (2, "fock.build", "fock", 1, 2.0, 6.0),
        (3, "opcore.a", "opcore", 2, 3.0, 4.0),
        (4, "opcore.b", "opcore", 2, 4.5, 5.5),
        (5, "opcore.c", "opcore", 1, 6.5, 8.0),
        (6, "states.d", "states", 5, 7.0, 7.5),
        (7, "opcore.e", "opcore", 6, 7.1, 7.2),
        (8, "opcore.e", "opcore", 7, 7.12, 7.15),
    ]
    out = [Span(i, name, layer, parent, 0, start, end) for i, name, layer, parent, start, end in rows]
    out[4].error = True
    return out


def test_layer_self_busy_calls_errors():
    totals = spans.layer_totals(_tree())
    assert totals["opcore"]["calls"] == 3  # a, b, c; e sits inside c
    assert totals["opcore"]["busy_s"] == pytest.approx(1.0 + 1.0 + 1.5)
    assert totals["opcore"]["self_s"] == pytest.approx(1.0 + 1.0 + 1.0 + 0.1)
    assert totals["opcore"]["errors"] == 1
    assert totals["states"] == pytest.approx({"calls": 1, "busy_s": 0.5, "self_s": 0.4, "errors": 0})
    assert totals["fock"]["self_s"] == pytest.approx(4.0 - 2.0)
    assert totals["cli"]["self_s"] == pytest.approx(8.0 - 4.0 - 1.5)
    assert totals["harness"]["self_s"] == pytest.approx(2.0)
    assert totals["acceptance"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
    # self times add up to the wall time of the root span
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(10.0)


def test_function_totals_count_every_call_but_time_outermost():
    totals = spans.function_totals(_tree())
    assert totals["opcore.e"]["calls"] == 2
    assert totals["opcore.e"]["s"] == pytest.approx(0.1)
    assert totals["fock.build"] == pytest.approx({"calls": 1, "s": 4.0})


@pytest.mark.parametrize(
    "n, percentile, value",
    [(10, None, None), (11, 100.0 / 11, 1.0), (20, 50.0, 10.0), (100, 90.0, 90.0)],
)
def test_tail_percentile_leaves_ten_values_above(n, percentile, value):
    times = [float(k) for k in range(n, 0, -1)]  # n .. 1, unsorted
    got = spans.tail(times)
    if percentile is None:
        assert got is None
    else:
        assert got == pytest.approx((percentile, value))
        assert sum(t > got[1] for t in times) == 10


def test_install_wraps_every_namespace_and_uninstall_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    layers = {}
    for layer in spans.LAYERS:
        mod = types.ModuleType(f"fakepkg.{layer}")
        layers[layer] = mod
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)

    def nullspace(x):
        return x + 1

    nullspace.__module__ = "fakepkg.opcore"
    layers["opcore"].nullspace = nullspace
    layers["symmetry"].nullspace = nullspace  # imported by name elsewhere

    def joint_kernel(x):
        return layers["symmetry"].nullspace(x) * 2

    joint_kernel.__module__ = "fakepkg.symmetry"
    layers["symmetry"].joint_kernel = joint_kernel

    class Operator:
        def __post_init__(self):
            layers["opcore"].nullspace(0)

    Operator.__module__ = "fakepkg.opcore"
    layers["opcore"].Operator = Operator

    original_init = Operator.__post_init__
    tracer = spans.Tracer({"opcore.nullspace": lambda t, args, kwargs, out: t.count("seen", out)})
    tracer.install("fakepkg")
    try:
        assert layers["symmetry"].joint_kernel(1) == 4
        Operator().__post_init__()
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("symmetry.joint_kernel", None),
        ("opcore.nullspace", 0),
        ("opcore.Operator.init", None),
        ("opcore.nullspace", 2),
    ]
    assert tracer.counters == {"seen": 3}
    assert layers["symmetry"].nullspace is nullspace
    assert vars(Operator)["__post_init__"] is original_init
    assert layers["symmetry"].joint_kernel is joint_kernel
