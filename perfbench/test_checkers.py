"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest -q perfbench

The expected-value formulas must reproduce the paper's counts, and an op
whose output is perturbed must be counted as failed.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (CensusTable, FernPipeline, RejectOp,  # noqa: E402
                       RoundTrip, State)


@pytest.fixture(scope="module")
def F():
    return run.load_ferns()


def test_census_formulas_match_the_paper_counts():
    from ferns.verify import CENSUS_CASES
    assert [oracles.total_count(*cfg) for cfg, _ in CENSUS_CASES] == \
        [1, 3, 5, 4, 21]
    assert [expected for _, expected in CENSUS_CASES] == [1, 3, 5, 4, 21]
    assert oracles.total_count(5, 2, 1) == 9765
    assert oracles.total_count(4, 3, 1) == 2080


def test_flag_and_chart_counts():
    assert [oracles.flag_count(n, 2) for n in range(1, 6)] == \
        [1, 4, 36, 696, 27808]
    assert oracles.flag_count(4, 3) == 3851
    assert oracles.chart_point_count(4, 2, 1) == 1
    assert oracles.chart_point_count(2, 2, 8) == 255
    assert oracles.row_count("0|0,1|1,0;0,1", 2, 1) == 1
    assert oracles.row_count("0|1,0;0,1", 2, 2) == 2


def _measure_once(workload, F, state):
    """One round of the workload's ops, output checks included."""
    return run.measure(workload, F, state, seconds=0)


class Perturbed:
    """A workload whose op outputs pass through ``perturb`` before checking."""

    def __init__(self, base, perturb):
        self.base, self.perturb = base, perturb

    def run(self, F, state, op):
        return self.perturb(F, self.base.run(F, state, op))

    def check(self, F, state, op, out):
        return self.base.check(F, state, op, out)


def test_roundtrip_changed_t_is_a_failed_op(F):
    base = RoundTrip("roundtrip-small", p=2, m=1, n=3)
    state = base.setup(F, seed=1)
    assert not state.problems
    assert _measure_once(base, F, state)["failed"] == 0

    def shift_t(F, out):
        fb, t_back, fb2, iso = out
        return fb, (t_back[0] + t_back[0].field.one,) + t_back[1:], fb2, iso

    result = _measure_once(Perturbed(base, shift_t), F, state)
    assert result["failed"] == result["attempted"] == len(state.ops)
    assert result["wrong"] == result["failed"]


def test_census_changed_total_is_a_failed_op(F):
    base = CensusTable()
    state = State([(2, 2, 1, True), (3, 2, 2, False)], None, 0.0)
    assert _measure_once(base, F, state)["failed"] == 0

    def bump(F, report):
        return dataclasses.replace(report, total=report.total + 1)

    result = _measure_once(Perturbed(base, bump), F, state)
    assert result["failed"] == result["wrong"] == 2


def test_pipeline_changed_psi_coefficient_is_a_failed_op(F):
    base = FernPipeline()
    full = base.setup(F, seed=3)
    assert not full.problems
    smooth = [op for op in full.ops
              if not isinstance(op, RejectOp) and op.step.dim == 1][:1]
    rejects = [op for op in full.ops if isinstance(op, RejectOp)][:1]
    state = dataclasses.replace(full, ops=smooth + rejects)
    assert _measure_once(base, F, state)["failed"] == 0

    def change_psi(F, out):
        if not isinstance(out, tuple):
            return out
        *head, psi = out
        coeffs = dict(psi.coeffs)
        top = max(coeffs)
        coeffs[top] = coeffs[top] + psi.field.one
        return (*head, dataclasses.replace(psi, coeffs=coeffs))

    result = _measure_once(Perturbed(base, change_psi), F, state)
    assert result["failed"] == result["wrong"] == 1

    def accept(F, out):
        return out if isinstance(out, tuple) else object()

    result = _measure_once(Perturbed(base, accept), F, state)
    assert result["failed"] == result["wrong"] == 1


def test_tracer_wraps_every_name_and_restores_them(F):
    original = F.fern.validate_fern
    tracer = spans.Tracer(vars(F))
    tracer.install()
    try:
        for module in (F.fern, F.universal, F.rand, F.jsonio):
            assert module.validate_fern is not original
            assert module.validate_fern.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (F.fern, F.universal, F.rand, F.jsonio):
        assert module.validate_fern is original
    assert F.gf.FieldElement.__mul__.__name__ == "__mul__"
