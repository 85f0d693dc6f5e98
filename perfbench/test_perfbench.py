"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import formalab as fl  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

ORDERS = {"C2": 2, "C3": 3, "C5": 5, "S3": 6, "D8": 8, "S4": 24, "A5": 60}
S4_SPEC = {"name": "S4-fresh", "kind": "permutation", "degree": 4,
           "generators": ["(1 2 3 4)", "(1 2)"]}


def scripted_clock(*times):
    it = iter(times)
    return lambda: next(it)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # a[0,10] > b[1,3] and a[4,9] > c[5,8]
    t = Tracer(clock=scripted_clock(0.0, 1.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0))
    a, b, c = t.name_id("a"), t.name_id("b"), t.name_id("c")
    outer = t.open(a)
    t.close(t.open(b))
    inner = t.open(a)
    t.close(t.open(c))
    t.close(inner)
    t.close(outer)
    agg = t.aggregate()
    assert agg["b"] == {"calls": 1, "self_s": 2.0, "incl_s": 2.0}
    assert agg["c"] == {"calls": 1, "self_s": 3.0, "incl_s": 3.0}
    # outer: 10 - 2 - 5 = 3; inner: 5 - 3 = 2
    assert agg["a"]["self_s"] == pytest.approx(5.0)
    # the recursive inner span is already inside the outer one
    assert agg["a"]["incl_s"] == pytest.approx(10.0)
    assert agg["a"]["calls"] == 2
    assert t.calls_under("c", "a") == 1
    assert t.calls_under("b", "c") == 0


def test_wrapped_exception_closes_span_and_is_counted():
    t = Tracer(clock=scripted_clock(0.0, 2.0))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.aggregate()["boom"]["self_s"] == 2.0
    assert t.errors[("boom", "ValueError")] == 1
    assert t._stack == []


# -- speed probe ---------------------------------------------------------------

def test_probe_measure_drops_ticks_and_scales():
    from worker import SpeedProbe
    probe = SpeedProbe()
    probe.starts = [1.0, 2.0, 3.0]
    probe.times = [1.1, 2.1, 3.1]
    probe.durations = [2 * SpeedProbe.REF_MS / 1000] * 3  # host at half speed
    # [0.5, 2.05] holds one whole tick and half of the next: 1.55 - 0.15 s
    # of formalab time, halved to reference speed
    assert probe.measure(0.5, 2.05) == pytest.approx(0.7)


# -- request generator -----------------------------------------------------------

def test_same_seed_gives_identical_bytes():
    first = gen.encode(gen.generate(5, 40, ORDERS))
    assert first == gen.encode(gen.generate(5, 40, ORDERS))
    assert first != gen.encode(gen.generate(6, 40, ORDERS))
    # a prefix of a longer stream is the shorter stream
    assert gen.generate(5, 10, ORDERS) == gen.generate(5, 40, ORDERS)[:10]


def test_generator_enforces_cap_and_reports_true_orders():
    reqs = gen.generate(3, 24, ORDERS, cap=60)
    assert all(order <= 60 for _, order in reqs)
    for spec, order in reqs:
        assert fl.build_group(spec).n == order


def test_generator_mix_is_half_and_half():
    reqs = gen.generate(9, 50, ORDERS)
    info = gen.describe(reqs)
    assert info["kinds"] == {"direct": 25, "permutation": 25}
    assert sum(info["order_histogram"].values()) == 50
    assert info["over_128"] == sum(1 for _, o in reqs if o > 128)


# -- wrappers ------------------------------------------------------------------

def _results():
    G = fl.build_group(S4_SPEC)  # fresh group, so every cache is cold
    out = [s.bits for s in fl.all_subgroups(G).subgroups]
    out += [t.bits for t in fl.chief_series(G).terms]
    for F in (fl.NIL, fl.SUP, fl.NA):
        out += [fl.z_f(G, F).bits, fl.int_f(G, F).bits, fl.int_star_f(G, F).bits]
    qm = fl.quotient_group(G, fl.derived_subgroup(G))
    out += [s.bits for s in fl.all_subgroups(qm.target).subgroups]
    return out


def test_installing_wrappers_changes_no_bitmask():
    import formalab.lattice as lattice
    plain = _results()
    original = lattice.closure_elements
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        assert lattice.closure_elements is not original
        assert fl.all_subgroups is lattice.all_subgroups
        traced = _results()
    finally:
        uninstall()
    assert lattice.closure_elements is original
    assert traced == plain
    assert tracer.lattice_builds == 2
    assert tracer.lattice_builds_derived == 1
    metrics = layer_metrics(tracer)
    assert metrics["groups.construct.calls"][0] >= 2
    assert metrics["lattice.join_closures"][0] > 0
    assert tracer._stack == []
