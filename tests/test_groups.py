import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amalgrowth.groups import (
    EmbeddingError,
    GroupValidationError,
    build_group,
    coset_transversal,
    cyclic,
    dihedral,
    direct_product,
    from_table,
    verify_embedding,
)


def test_cyclic_basic():
    g = cyclic(5)
    assert g.order == 5
    assert g.identity == 0
    assert g.mul[2][4] == 1
    assert g.inv[2] == 3
    assert g.element_order(1) == 5
    assert g.is_abelian()


def test_cyclic_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0


def test_dihedral_relations():
    # b a = a^-1 b, with a = index 1 and b = index n
    for order in (4, 6, 8, 12):
        g = dihedral(order)
        n = order // 2
        a, b = 1, n
        assert g.mul[b][a] == g.mul[g.inv[a]][b]
        assert g.element_order(b) == 2
        assert g.element_order(a) == n
        assert g.mul[b][b] == g.identity


def test_dihedral_rejects_odd():
    with pytest.raises(ValueError):
        dihedral(5)


def test_direct_product_klein():
    v = direct_product(cyclic(2), cyclic(2))
    assert v.order == 4
    assert all(v.element_order(x) <= 2 for x in range(4))
    assert v.is_abelian()


def test_from_table_rejects_bad_tables():
    with pytest.raises(GroupValidationError):
        from_table([[0, 0], [0, 0]])  # rows not permutations
    with pytest.raises(GroupValidationError):
        from_table([[1, 0], [1, 0]])  # columns not permutations


# A quasigroup of order 5 (rows/columns are permutations, identity at 0)
# that is not associative.
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_from_table_rejects_nonassociative():
    with pytest.raises(GroupValidationError):
        from_table(LOOP_5)


def test_from_table_rejects_one_sided_inverses():
    # a Latin square with two-sided identity 0 in which g2 has right inverse
    # g3 (g2 g3 = g0) but left inverse g4 (g3 g2 = g1, g4 g2 = g0)
    mul = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupValidationError,
                       match=re.escape("no two-sided inverse for g2")):
        from_table(mul)


def _associative(mul) -> bool:
    """All-triples associativity: the oracle for Light's test."""
    n = range(len(mul))
    return all(mul[mul[x][y]][z] == mul[x][mul[y][z]]
               for x in n for y in n for z in n)


def _random_loop(n: int, rng: random.Random):
    """A Latin square of order n with identity 0 and two-sided inverses by
    randomised backtracking, or None if this draw of inverses has none."""
    mul = [[None] * n for _ in range(n)]
    mul[0] = list(range(n))
    for x in range(n):
        mul[x][0] = x
    # inverses: a random involution of 1..n-1
    others = list(range(1, n))
    rng.shuffle(others)
    pairs = rng.randint(0, len(others) // 2)
    inv = {x: x for x in others}
    for i in range(pairs):
        x, y = others[2 * i], others[2 * i + 1]
        inv[x], inv[y] = y, x
    for x in others:
        mul[x][inv[x]] = 0
    cells = [(x, y) for x in range(1, n) for y in range(1, n)
             if mul[x][y] is None]
    nodes = 0

    def fill(i):
        nonlocal nodes
        nodes += 1
        if i == len(cells):
            return True
        if nodes > 20000:
            return False
        x, y = cells[i]
        used = set(mul[x]) | {mul[r][y] for r in range(n)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            mul[x][y] = v
            if fill(i + 1):
                return True
        mul[x][y] = None
        return False

    return mul if fill(0) else None


def _relabel(mul, perm):
    """The table with element x renamed perm[x]."""
    out = [[0] * len(mul) for _ in mul]
    for x, row in enumerate(mul):
        for y, v in enumerate(row):
            out[perm[x]][perm[y]] = perm[v]
    return out


GROUPS_TO_8 = [cyclic(n) for n in range(1, 9)] + [
    dihedral(6), dihedral(8), direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(2), cyclic(4)),
    direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), group=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_light_test_agrees_with_all_triples(data, n, group, seed):
    if group:
        mul = [list(row) for row in data.draw(st.sampled_from(GROUPS_TO_8)).mul]
    else:
        mul = _random_loop(n, random.Random(seed))
        assume(mul is not None)
    mul = _relabel(mul, data.draw(st.permutations(range(len(mul)))))
    if _associative(mul):
        assert from_table(mul).order == len(mul)
        return
    with pytest.raises(GroupValidationError, match="associativity") as exc:
        from_table(mul)
    # the witness is a failing triple
    x, y, z = map(int, re.findall(r"g(\d+)", str(exc.value)))
    assert mul[mul[x][y]][z] != mul[x][mul[y][z]]


def test_light_test_rejects_a_loop_of_order_66():
    # Z/66 with the intercalate at rows {1, 34} x columns {2, 35} swapped:
    # still a Latin square with identity 0 and the same inverses, and not
    # associative
    mul = [[(x + y) % 66 for y in range(66)] for x in range(66)]
    for x in (1, 34):
        mul[x][2], mul[x][35] = mul[x][35], mul[x][2]
    assert not _associative(mul)
    with pytest.raises(GroupValidationError, match="associativity"):
        from_table(mul)


def test_light_test_checks_every_generator():
    # LOOP_5 x Z/2 with (q, z) at index 2q + z: the first generator, 1 =
    # (0, 1), is central and passes; a later generator must find the failure
    mul = [[2 * LOOP_5[q][r] + (z ^ w) for r in range(5) for w in (0, 1)]
           for q in range(5) for z in (0, 1)]
    with pytest.raises(GroupValidationError, match="associativity") as exc:
        from_table(mul)
    assert ",g1," not in str(exc.value)


def test_large_groups_are_validated_exactly():
    d = dihedral(130)
    assert d.order == 130 and not d.is_abelian()
    assert from_table(d.mul).order == 130


def test_build_group_families():
    assert build_group({"family": "cyclic", "n": 3}).order == 3
    assert build_group({"family": "dihedral", "order": 6}).order == 6
    p = build_group({"family": "product",
                     "left": {"family": "cyclic", "n": 2},
                     "right": {"family": "cyclic", "n": 3}})
    assert p.order == 6
    with pytest.raises(ValueError):
        build_group({"family": "nope"})


def test_verify_embedding_accepts_c2_in_d6():
    c2 = cyclic(2)
    d6 = dihedral(6)
    emb = verify_embedding(c2, d6, [0, 3])  # 1 -> 1, t -> b
    assert emb.image == (0, 3)


def test_verify_embedding_rejects_bad_maps():
    c2 = cyclic(2)
    d6 = dihedral(6)
    with pytest.raises(EmbeddingError):
        verify_embedding(c2, d6, [0, 0])  # not injective
    with pytest.raises(EmbeddingError):
        verify_embedding(c2, d6, [0, 1])  # image of t has order 3
    with pytest.raises(EmbeddingError):
        verify_embedding(c2, d6, [0])  # wrong length


def test_transversal_partitions_group():
    c2 = cyclic(2)
    d6 = dihedral(6)
    emb = verify_embedding(c2, d6, [0, 3])
    t = coset_transversal(d6, emb)
    assert t.reps[0] == d6.identity
    assert len(t.reps) == 3
    covered = set()
    for g in range(d6.order):
        rep, ci = t.factorization[g]
        assert rep in t.reps
        assert d6.mul[rep][emb.image[ci]] == g
        covered.add(g)
    assert len(covered) == d6.order
