"""Arithmetic of the probe-adjusted op times."""

import pytest

import run


class _Rec:
    def __init__(self, seconds, probe_s):
        self.seconds = seconds
        self.probe_s = probe_s


def test_adjusted_times_scale_each_op_by_its_own_probe():
    nominal = run.NOMINAL_PROBE_S
    recs = [_Rec(1.0, nominal), _Rec(1.0, 2 * nominal), _Rec(3.0, nominal / 2)]
    assert run.adjusted_times(recs) == pytest.approx([1.0, 0.5, 6.0])


def test_adjusted_total_scales_the_sum_by_the_median_probe():
    nominal = run.NOMINAL_PROBE_S
    recs = [_Rec(1.0, nominal), _Rec(2.0, 2 * nominal), _Rec(5.0, 2 * nominal)]
    assert run.adjusted_total(recs) == pytest.approx(8.0 / 2)


def test_probed_step_takes_the_mean_of_the_probes_around_each_op():
    probes = iter([1.0, 3.0, 5.0])
    records = []
    step = run.probed_step(lambda: next(probes), records)

    class _Op:
        kind = "x"

        @staticmethod
        def run():
            return None

    step(_Op)
    step(_Op)
    assert [r.probe_s for r in records] == [2.0, 4.0]
