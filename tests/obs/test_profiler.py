"""Deterministic profiler: self-time math, attribution, calibration hygiene."""

from repro.obs import Tracer
from repro.obs.profiler import (
    PrimitiveCosts,
    build_profile,
    calibrate_primitive_costs,
    render_profile,
)
from repro.pairing.interface import OperationCounter


class FakeClock:
    """Advances one second per call — exact, repeatable span durations."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


COSTS = PrimitiveCosts(
    exp_g1=0.5, exp_g1_fixed_base=0.25, pairing=2.0, hash_to_g1=0.1, mul_g1=0.01
)


def _traced_pair():
    """outer(3s, self 2s, 3 exp) wrapping inner(1s, 2 exp + 1 pair)."""
    counter = OperationCounter()
    tracer = Tracer(clock=FakeClock(), counter=counter)
    with tracer.span("outer"):
        counter.exp_g1 += 3
        with tracer.span("inner"):
            counter.exp_g1 += 2
            counter.pairings += 1
    return tracer


class TestBuildProfile:
    def test_self_time_and_ops_subtract_children(self):
        (outer,) = build_profile(_traced_pair(), COSTS)
        (inner,) = outer.children
        assert outer.inclusive_s == 3.0
        assert outer.self_s == 2.0
        assert outer.self_ops == {"exp_g1": 3}  # 5 inclusive - 2 in child
        assert inner.self_s == 1.0
        assert inner.self_ops == {"exp_g1": 2, "pairings": 1}

    def test_attribution_is_count_times_unit_cost(self):
        (outer,) = build_profile(_traced_pair(), COSTS)
        (inner,) = outer.children
        assert outer.attributed == {"exp_g1": 1.5}
        assert outer.unattributed_s == 0.5
        assert inner.attributed == {"exp_g1": 1.0, "pairings": 2.0}
        # Attribution exceeding measured self time clamps 'other' at zero.
        assert inner.unattributed_s == 0.0

    def test_skipped_exponentiations_cost_nothing(self):
        counter = OperationCounter()
        tracer = Tracer(clock=FakeClock(), counter=counter)
        with tracer.span("sign"):
            counter.exp_g1_skipped += 7
        (node,) = build_profile(tracer, COSTS)
        assert node.attributed == {}
        assert "exp_g1_skipped" in node.self_ops

    def test_sibling_roots_sorted_by_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        roots = build_profile(tracer, COSTS)
        assert [r.span.name for r in roots] == ["first", "second"]


class TestRender:
    def test_tree_shows_names_bars_and_other(self):
        text = render_profile(_traced_pair(), COSTS)
        lines = text.splitlines()
        assert any(line.startswith("outer") for line in lines)
        assert any(line.startswith("  inner") for line in lines)  # indented
        assert "exp_g1 3x=1500.00ms" in text
        assert "pairings 1x=2000.00ms" in text
        assert "other" in text
        assert text.endswith("(serialization, hashing, Python overhead)")

    def test_empty_trace_renders_header_only(self):
        text = render_profile(Tracer(clock=FakeClock()), COSTS)
        assert "span" in text and "total" not in text


class TestCofactorAttribution:
    def test_fused_hash_prices_one_clearing(self):
        costs = PrimitiveCosts(
            exp_g1=0.5, exp_g1_fixed_base=0.25, pairing=2.0, hash_to_g1=0.1,
            mul_g1=0.01, cofactor_clear=0.4,
        )
        counter = OperationCounter()
        tracer = Tracer(clock=FakeClock(), counter=counter)
        with tracer.span("per_id"):
            counter.hash_to_g1 += 4
            counter.cofactor_clear += 4
        with tracer.span("fused"):
            counter.hash_to_g1 += 4
            counter.cofactor_clear += 1
        per_id, fused = build_profile(tracer, costs)
        assert per_id.attributed_s == 4 * 0.1 + 4 * 0.4
        assert fused.attributed_s == 4 * 0.1 + 0.4
        assert "cofactor_clear 1x=400.00ms" in render_profile([per_id, fused])


class TestCalibration:
    def test_costs_positive_and_counter_untouched(self, group, rng):
        counter = OperationCounter()
        previous = group.counter
        group.attach_counter(counter)
        try:
            before = counter.snapshot()
            costs = calibrate_primitive_costs(group, repeats=2, rng=rng)
            # Calibration detaches the counter: profiling a run never
            # inflates the very op counts it is attributing.
            assert counter.snapshot() == before
        finally:
            group.counter = previous
        assert all(value > 0 for value in costs.as_dict().values())
        assert costs.unit_cost("exp_g2") == costs.exp_g1  # symmetric type A
        assert costs.unit_cost("exp_g1_skipped") == 0.0
        assert costs.unit_cost("cofactor_clear") == costs.cofactor_clear
