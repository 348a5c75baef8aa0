import random

import pytest

from conftest import (
    F,
    backbone_split,
    brute_k_backbone,
    iterative_order,
    tt_satisfiable,
    unit_propagate,
)
from satbones import (
    UnsatDetected,
    classify,
    full_backbones,
    is_k_backbone,
    iterative_k_backbones,
    local_backbones,
    solve,
)
from satbones.generators import implication_cycle, random_formula


def mixed_corpus(count, seed_base=0):
    rng = random.Random(4100 + seed_base)
    out = []
    for _ in range(count):
        n = rng.randint(3, 6)
        m = rng.randint(3, 8)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        out.append(F(*clauses))
    return out


def test_is_k_backbone_chain():
    verdict, polarity, witness = is_k_backbone(F([1], [-1, 2]), 2, 2)
    assert verdict and polarity is True
    assert witness == (1, 2)


def test_is_k_backbone_single_wide_clause_forces_nothing():
    verdict, _, _ = is_k_backbone(F([1, 2]), 1, 5)
    assert not verdict


def test_is_k_backbone_case_split():
    verdict, polarity, _ = is_k_backbone(F([1, 2], [1, -2]), 1, 2)
    assert verdict and polarity is True
    assert brute_k_backbone(F([1, 2], [1, -2]), 1, 2) == (2, True)


def test_is_k_backbone_takes_the_smaller_witness_of_either_polarity():
    # unsatisfiable input forces both polarities of 1: +1 by clause 1 alone,
    # -1 by clauses 2 and 3; the smaller witness wins
    f = F([1], [-1, 2], [-1, -2])
    assert is_k_backbone(f, 1, 2) == (True, True, (1,))
    assert local_backbones(f, 2)[1] is True
    # a tie in size goes to the negative polarity
    assert is_k_backbone(F([1], [-1]), 1, 2) == (True, False, (2,))


def test_is_k_backbone_unknown_variable():
    with pytest.raises(ValueError):
        is_k_backbone(F([1]), 9, 1)


def test_backbone_order_unknown_variable():
    with pytest.raises(ValueError):
        is_k_backbone(F([1]), 9, 3)


def test_backbone_split_unit_formula():
    split, origin = backbone_split(F([1]), 1)
    assert split.empty_clause_id() is not None
    assert len(split) == 1
    (cid,) = split.clause_ids()
    assert origin[cid] == (1, 1)


def test_backbone_split_class_closure():
    horn = random_formula("definite_horn", 6, 8, 5)
    v = min(horn.variables)
    assert classify(backbone_split(horn, v)[0]).is_horn
    krom = random_formula("krom", 6, 8, 5)
    v = min(krom.variables)
    assert classify(backbone_split(krom, v)[0]).is_krom


def test_backbone_split_matches_bruteforce():
    corpus = mixed_corpus(60)
    rng = random.Random(1)
    for i, f in enumerate(corpus):
        k = i % 4 + 1
        v = rng.choice(sorted(f.variables))
        expected = brute_k_backbone(f, v, k)
        verdict, polarity, witness = is_k_backbone(f, v, k)
        assert verdict == (expected is not None), (i, v, k)
        if verdict:
            sub = f.subset(witness)
            # the witness really certifies the reported polarity
            assert not tt_satisfiable(sub.reduct((-v if polarity else v,)))


def test_backbone_order_unit():
    assert is_k_backbone(F([1]), 1, 3) == (True, True, (1,))


def test_backbone_order_beyond_cutoff():
    assert is_k_backbone(F([1, 2]), 1, 3) == (False, None, None)


def test_backbone_order_cycle():
    f = implication_cycle(6)
    assert is_k_backbone(f, 1, 6) == (True, False, (1, 2, 3, 4, 5, 6))
    assert is_k_backbone(f, 1, 5) == (False, None, None)


def test_backbone_order_matches_bruteforce():
    corpus = mixed_corpus(40, seed_base=1)
    rng = random.Random(2)
    for f in corpus:
        v = rng.choice(sorted(f.variables))
        expected = brute_k_backbone(f, v, 4)
        witness = is_k_backbone(f, v, 4)[2]
        assert (len(witness) if witness else None) == (
            expected[0] if expected else None
        )


def test_local_backbones_chain():
    f = F([1], [-1, 2])
    assert local_backbones(f, 1) == {1: True}
    assert local_backbones(f, 2) == {1: True, 2: True}


def test_local_backbones_equal_full_at_clause_count():
    seen = 0
    for seed in range(40):
        f = random_formula("3cnf", 5, 6, seed)
        if solve(f) is None:
            continue
        seen += 1
        assert local_backbones(f, len(f)) == full_backbones(f)
    assert seen >= 15


def test_iterative_unit_chain_is_unit_propagation():
    f = F([1], [-1, 2], [-2, 3])
    result = iterative_k_backbones(f, 1)
    assert result.variables == {1, 2, 3}
    assert set(result.forced) == set(unit_propagate(f).forced)


def test_iterative_matches_unit_propagation_random():
    checked = 0
    for seed in range(60):
        f = random_formula("krom", 7, 9, seed)
        propagated = unit_propagate(f)
        if propagated.conflict:
            with pytest.raises(UnsatDetected):
                iterative_k_backbones(f, 1)
            continue
        checked += 1
        assert set(iterative_k_backbones(f, 1).forced) == set(propagated.forced)
    assert checked >= 30


def test_iterative_cycle_threshold():
    f = implication_cycle(6)
    assert iterative_k_backbones(f, 5).variables == frozenset()
    assert iterative_k_backbones(f, 6).variables == {1}
    assert iterative_k_backbones(f, 6).forced == (-1,)


def test_iterative_unsat_detected():
    with pytest.raises(UnsatDetected):
        iterative_k_backbones(F([1], [-1]), 1)
    with pytest.raises(UnsatDetected):
        iterative_k_backbones(F([]), 1)


def test_iterative_order_chain():
    f = F([1], [-1, 2])
    assert iterative_order(f, 2, 3) == 1


def test_iterative_order_cycle():
    for n in (4, 6):
        f = implication_cycle(n)
        assert iterative_order(f, 1, n) == n
        assert iterative_order(f, 1, n - 1) is None


def test_iterative_order_bounded_by_order():
    corpus = mixed_corpus(30, seed_base=2)
    for f in corpus:
        if solve(f) is None:
            continue
        for v, _ in full_backbones(f).items():
            witness = is_k_backbone(f, v, len(f))[2]
            if witness is None:
                continue
            iter_order = iterative_order(f, v, len(f))
            assert iter_order is not None and iter_order <= len(witness)


def test_containment_chain_and_monotonicity():
    corpus = mixed_corpus(30, seed_base=3)
    for f in corpus:
        if solve(f) is None:
            continue
        full = set(full_backbones(f))
        previous_local: set = set()
        previous_iter: set = set()
        for k in (1, 2, 3):
            local = set(local_backbones(f, k))
            iterative = set(iterative_k_backbones(f, k).variables)
            assert previous_local <= local
            assert previous_iter <= iterative
            assert local <= iterative <= full
            previous_local, previous_iter = local, iterative


def test_forced_literal_removal_preserves_iterative_sets():
    # asserting any k-forced literal drops exactly its own variable
    # from the iterative k-backbone set
    corpus = mixed_corpus(40, seed_base=4)
    checked = 0
    for f in corpus:
        if solve(f) is None:
            continue
        k = 2
        found = local_backbones(f, k)
        if not found:
            continue
        checked += 1
        v, polarity = sorted(found.items())[0]
        lit = v if polarity else -v
        whole = iterative_k_backbones(f, k).variables
        reduced = iterative_k_backbones(f.reduct((lit,)), k).variables
        assert whole - {v} == reduced
    assert checked >= 10


@pytest.mark.parametrize("search", [local_backbones, iterative_k_backbones])
def test_decision_searches_stay_small(search, capped_sat_calls):
    # each forcing test deepens to the smallest witness and tests only
    # subsets with more clauses than variables
    f = random_formula("3cnf", 20, 85, 1)
    search(f, 5)
