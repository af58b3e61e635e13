"""The paper-level checks of ``ferns verify`` at quick size.

Each check raises on a failure and returns its detail text on success, so
calling it is the test; the detail text is pinned as ``ferns verify``
prints it.
"""

import dataclasses

import pytest

from ferns import curve, universal, verify


def test_census_cases_are_the_papers_counts():
    # (n, q, m) -> number of F_{q^m}-points of the compactified period domain
    assert verify.CENSUS_CASES == [((1, 2, 1), 1), ((2, 2, 1), 3),
                                   ((2, 2, 2), 5), ((2, 3, 1), 4),
                                   ((3, 2, 1), 21)]


@pytest.mark.parametrize("check,detail", [
    (verify.criterion_census, "5 configurations agree with the oracle"),
    (verify.invariant_field_axioms,
     "field axioms and Frobenius fixed subfield hold"),
    (verify.invariant_subspace_counts,
     "subspace and flag enumerations match their oracles"),
    (verify.invariant_group_laws,
     "group laws and the left action hold exhaustively"),
    (verify.invariant_fern_uniqueness_dim1,
     "dimension-1 ferns are unique up to isomorphism"),
    (lambda: verify.criterion_knudsen(40, 0),
     "40 stabilization and contraction identities hold"),
    (lambda: verify.invariant_census_sweep(64),
     "closed-form count confirmed on 54 configurations"),
    (verify.criterion_roundtrip, "37 chart points round-trip"),
    (verify.criterion_contraction_compat,
     "21 fibers contract compatibly"),
    (verify.invariant_fiber_injectivity,
     "distinct chart points give non-isomorphic fibers"),
    (verify.criterion_equivariance,
     "1701 section translates satisfy the equations"),
    (lambda: verify.criterion_drinfeld(20, 0),
     "20 additive polynomials verified"),
], ids=["census", "field_axioms", "subspace_counts", "group_laws",
        "fern_uniqueness_dim1", "knudsen", "census_sweep", "roundtrip",
        "contraction_compat", "fiber_injectivity", "equivariance",
        "drinfeld"])
def test_quick_check_passes(check, detail):
    assert check() == detail


@pytest.fixture(scope="module")
def pipeline_ferns():
    return verify._pipeline_ferns(40, 0)


def test_graft_axioms_on_pipeline_ferns(pipeline_ferns):
    assert verify.criterion_graft_axioms(pipeline_ferns, 0) == \
        "40 pipeline ferns valid and flag-compatible"


def test_reciprocal_axioms_on_pipeline_ferns(pipeline_ferns):
    assert verify.criterion_reciprocal(pipeline_ferns) == \
        "40 reciprocal data satisfy both axioms"


def test_equivariance_rejects_a_moved_mark_or_failed_equations(monkeypatch):
    real_fiber = verify.fiber

    def moved(cp):
        # the marks of two vectors trade places
        fb = real_fiber(cp)
        marking = dict(fb.tree.marking)
        u, w = list(fb.space.vectors())[:2]
        marking[u], marking[w] = marking[w], marking[u]
        tree = curve.MarkedTree(fb.tree.field, fb.tree.components,
                                fb.tree.nodes, marking)
        return dataclasses.replace(fb, tree=tree)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "fiber", moved)
        with pytest.raises(AssertionError, match="off its section"):
            verify.criterion_equivariance()
    monkeypatch.setattr(universal.PointEquations, "check",
                        lambda self, assignment: False)
    with pytest.raises(AssertionError, match="equations fail"):
        verify.criterion_equivariance()
