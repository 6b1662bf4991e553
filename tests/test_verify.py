from math import comb

import pytest

from fdo import (INF, audit, brute_diam, brute_replacement, build_ecc_fdo,
                 build_exact_fdo, enumerate_failures, gen_random)


def test_brute_diam_examples(c4):
    assert brute_diam(c4, [(0, 1)]) == 3
    assert brute_diam(c4, [(0, 2)]) == 2          # non-edge discarded
    assert brute_diam(c4, [(0, 1), (2, 3)]) == INF


def test_brute_replacement_examples(c4, p4, k4):
    assert brute_replacement(c4, 0, 2, [(0, 1)]) == 2
    assert brute_replacement(p4, 0, 3, [(1, 2)]) == INF
    assert brute_replacement(k4, 0, 1, [(0, 1)]) == 2


def test_brute_diam_consistent_with_diameter(c4):
    from fdo import diameter
    assert brute_diam(c4, []) == diameter(c4)


def test_audit_exact_zero_violations(c4):
    o = build_exact_fdo(c4)
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=1.0)
    assert rep.queries == 4 and rep.violations == 0
    assert rep.max_ratio == 1.0


def test_audit_ecc_within_stretch_two(c4):
    o = build_ecc_fdo(c4)
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=2.0)
    assert rep.violations == 0


def test_audit_flags_corrupted_oracle(c4):
    o = build_exact_fdo(c4)
    o.values[(0, 1)] = 1   # below the true value: must be caught
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=1.0)
    assert rep.violations >= 1
    bad = [r for r in rep.records if not r.ok]
    assert bad and bad[0].answer < bad[0].truth


def test_audit_rejects_bad_stretch(c4):
    with pytest.raises(ValueError):
        audit(build_exact_fdo(c4), c4, [], stretch=0.5)


def test_enumerate_exhaustive_counts():
    g = gen_random("er-undirected", seed=2, n=10, p=0.3)
    sets = list(enumerate_failures(g, 2))
    assert len(sets) == comb(g.m, 1) + comb(g.m, 2)
    assert all(1 <= len(fs) <= 2 for fs in sets)


def test_enumerate_sampling_deterministic():
    g = gen_random("er-undirected", seed=3, n=20, p=0.4)
    a = list(enumerate_failures(g, 3, cap=10, samples=25, seed=5))
    b = list(enumerate_failures(g, 3, cap=10, samples=25, seed=5))
    assert a == b and len(a) == 25
    c = list(enumerate_failures(g, 3, cap=10, samples=25, seed=6))
    assert a != c
