"""Property tests for the per-literal forcing test on small random formulas.

The reference is the paper's reduction: search the two-reduct split of the
variable and map the witness back through the origin map.  Examples are
derandomized and no example database is kept, so runs are repeatable.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F, brute_k_backbone, tt_satisfiable
from satbones import (
    backbone_split,
    is_k_backbone,
    local_backbones,
    sus_search,
)
from satbones.backbones import order_with_witness

SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def formulas(draw):
    """At most 5 variables, 7 clauses of width 1..3, no tautologies."""
    n = draw(st.integers(1, 5))
    clause = st.lists(
        st.integers(1, n), min_size=1, max_size=min(3, n), unique=True
    ).flatmap(lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    return F(*draw(st.lists(clause, min_size=1, max_size=7)))


@st.composite
def formula_and_variable(draw):
    f = draw(formulas())
    return f, draw(st.sampled_from(sorted(f.variables)))


def split_reference(f, var, k, minimum):
    """(original clause ids, certified literal) via backbone_split, or None."""
    split, origin = backbone_split(f, var)
    found = sus_search(split, k, minimum=minimum)
    if found is None:
        return None
    (literal,) = {origin[cid][1] for cid in found.clause_ids}
    return frozenset(origin[cid][0] for cid in found.clause_ids), literal


def as_pair(witness):
    return None if witness is None else (witness.clause_ids, witness.literal)


@SETTINGS
@given(formula_and_variable(), st.integers(1, 4))
@example((F([1], [], [-1, 2]), 2), 2)
@example((F([-1, 2], [-1, -2], [1]), 1), 2)
@example((F([1, 2], [1, -2], [3]), 1), 3)
def test_witnesses_match_split_reference(case, k):
    f, var = case
    verdict, _, witness = is_k_backbone(f, var, k)
    expected = split_reference(f, var, k, minimum=False)
    assert verdict == (expected is not None)
    if tt_satisfiable(f):
        # an unsatisfiable formula forces both polarities; there the split's
        # search takes an empty clause of either reduct before any other
        # witness, while the per-literal test keeps to -var first
        assert as_pair(witness) == expected
    _, _, witness = order_with_witness(f, var, k)
    assert as_pair(witness) == split_reference(f, var, k, minimum=True)


@SETTINGS
@given(formula_and_variable(), st.integers(1, 4))
def test_order_and_polarity_match_brute_force(case, k):
    f, var = case
    expected = brute_k_backbone(f, var, k)
    verdict, verdict_polarity, _ = is_k_backbone(f, var, k)
    order, polarity, _ = order_with_witness(f, var, k)
    assert verdict == (expected is not None)
    assert order == (None if expected is None else expected[0])
    if expected is not None and tt_satisfiable(f):
        # only a satisfiable formula forces a single polarity
        assert polarity == verdict_polarity == expected[1]


@SETTINGS
@given(formulas(), st.integers(1, 4))
def test_local_backbones_collect_accepted_variables(f, k):
    expected = {}
    for v in sorted(f.variables):
        verdict, polarity, _ = is_k_backbone(f, v, k)
        if verdict:
            expected[v] = polarity
    assert local_backbones(f, k) == expected
