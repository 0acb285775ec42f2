from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amalgrowth.catalog import catalog_load, catalog_names
from amalgrowth.growth import enumerate_balls
from amalgrowth.spectral import (
    Recurrence,
    RootEnclosure,
    WeightedAlphabet,
    _eval_over,
    _integer_poly,
    _solve,
    count_avoiding,
    descartes_sign_changes,
    dominant_root,
    fit_rate,
    fit_recurrence,
    largest_positive_root,
    lpv_bound,
    positive_root_from_lengths,
    root_upper_bound,
)

GOLDEN = (1 + 5 ** 0.5) / 2


def test_largest_positive_root_golden():
    enc = largest_positive_root([-1, -1, 1])  # z^2 - z - 1
    assert enc.unique_positive
    assert abs(enc.mid - GOLDEN) < 1e-9
    assert enc.lo < Fraction(GOLDEN).limit_denominator(10**15) < enc.hi


def test_largest_positive_root_exact_hit():
    enc = largest_positive_root([-4, 0, 1])  # z^2 - 4
    assert enc.lo <= 2 <= enc.hi
    assert abs(enc.mid - 2.0) < 1e-9


def test_positive_root_from_lengths():
    # sum x^(-l) = 1; lengths (1, 1) give x = 2 exactly
    enc = positive_root_from_lengths([1, 1])
    assert abs(enc.mid - 2.0) < 1e-9
    # lengths (2, 3) give the plastic number, root of z^3 - z - 1
    enc = positive_root_from_lengths([2, 3])
    assert abs(enc.mid ** 3 - enc.mid - 1) < 1e-6
    # a single length l: the exact root 1 of z^l - 1, on the general path
    for l in (1, 2, 3, 7):
        enc = positive_root_from_lengths([l])
        assert (enc.lo, enc.hi, enc.unique_positive) == (1, 1, True), l


def test_largest_positive_root_picks_largest():
    # (z - 1)(z - 3) = z^2 - 4z + 3
    enc = largest_positive_root([3, -4, 1])
    assert abs(enc.mid - 3.0) < 1e-9
    assert largest_positive_root([1, 0, 1]) is None  # z^2 + 1


@pytest.mark.parametrize("p, width, lo, hi, steps", [
    # (z - 1)(z - 3), z^3 - 2z^2 + 2z - 1 = (z - 1)(z^2 - z + 1) and
    # z^3 - 3z + 1: Descartes counts 2 sign changes, so the Sturm path runs
    ([3, -4, 1], Fraction(1, 10**12),
     Fraction(6597069766655, 2199023255552),
     Fraction(26388279066625, 8796093022208), 43),
    ([3, -4, 1], Fraction(1, 3), Fraction(45, 16), Fraction(25, 8), 4),
    ([-1, 2, -2, 1], Fraction(1, 10**12),
     Fraction(4398046511103, 4398046511104),
     Fraction(2199023255553, 2199023255552), 42),
    ([-1, 2, -2, 1], Fraction(5, 7 * 2**20),
     Fraction(4194303, 4194304), Fraction(8388609, 8388608), 23),
    ([1, -3, 0, 1], Fraction(1, 10**12),
     Fraction(1684549545205, 1099511627776),
     Fraction(842274772603, 549755813888), 42),
    ([1, -3, 0, 1], Fraction(1, 3), Fraction(3, 2), Fraction(7, 4), 4),
    # (z - 1)(z^2 - 3): the second midpoint is the smaller root 1, which
    # must not end the search for sqrt(3)
    ([3, -3, -1, 1], Fraction(1, 10**12),
     Fraction(476102500705, 274877906944),
     Fraction(1904410002821, 1099511627776), 42),
])
def test_sturm_path_enclosures_pinned(p, width, lo, hi, steps):
    # pinned from the Fraction-Horner Sturm path the integer one replaced
    enc = largest_positive_root(p, width=width)
    assert (enc.lo, enc.hi, enc.bisection_steps) == (lo, hi, steps)
    assert enc.unique_positive == (p == [-1, 2, -2, 1])


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _known_roots_poly(scale, zeros, roots, quadratic):
    """scale * z^zeros * (z^2 + bz + b^2/4 + d) * prod (z - r)^m for
    quadratic (b, d), d > 0, and roots [(r, m), ...]."""
    p = [scale]
    for r, m in roots:
        for _ in range(m):
            p = _times(p, [-r, Fraction(1)])
    if quadratic is not None:
        b, d = quadratic
        p = _times(p, [b * b / 4 + d, b, Fraction(1)])
    return [Fraction(0)] * zeros + p


def _assert_encloses_largest_known_root(p, roots, width):
    # the roots are known, so this oracle shares nothing with the chain
    positive = sorted({r for r, _ in roots if r > 0})
    enc = largest_positive_root(p, width=width)
    if not positive:
        assert enc is None
        return
    assert enc.lo <= positive[-1] <= enc.hi
    assert enc.width <= width
    assert not any(enc.lo <= r <= enc.hi for r, _ in roots if r != positive[-1])
    assert enc.unique_positive == (len(positive) == 1)


widths = st.sampled_from([Fraction(1, 10**12), Fraction(1, 3)])
scales = st.one_of(st.fractions(Fraction(1, 4), 5, max_denominator=4),
                   st.fractions(-5, Fraction(-1, 4), max_denominator=4))


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.tuples(st.fractions(-6, 6, max_denominator=5),
                                st.integers(1, 3)), max_size=4),
       quadratic=st.one_of(st.none(), st.tuples(
           st.fractions(-4, 4, max_denominator=3),
           st.fractions(Fraction(1, 3), 4, max_denominator=3))),
       zeros=st.integers(0, 2), scale=scales, width=widths)
# z (z - 1/4)^2 / 4 at width 1/3: [0, 5/16] held the root at 0 as well
@example(roots=[(Fraction(0), 1), (Fraction(1, 4), 2)], quadratic=None,
         zeros=0, scale=Fraction(1, 4), width=Fraction(1, 3))
# (z - 2)(z - 9/5) / 4 at width 1/3: [9/5, 21/10] held the smaller root at
# its left end, where the sign variations do not count it
@example(roots=[(Fraction(2), 1), (Fraction(9, 5), 1)], quadratic=None,
         zeros=0, scale=Fraction(1, 4), width=Fraction(1, 3))
def test_sturm_path_encloses_the_largest_known_root(roots, quadratic, zeros,
                                                    scale, width):
    p = _known_roots_poly(scale, zeros, roots, quadratic)
    assume(len(p) > 1 and descartes_sign_changes(p) != 1)
    _assert_encloses_largest_known_root(p, roots, width)


@settings(max_examples=100, deadline=None)
@given(r1=st.fractions(-4, 4, max_denominator=3),
       r2=st.fractions(-4, 4, max_denominator=3),
       shift=st.fractions(-4, 4, max_denominator=3),
       scale=scales, width=widths)
def test_sturm_path_across_a_degree_gap(r1, r2, shift, scale, width):
    # roots r1, r2 and s +- it with s = -(r1 + r2) / 2 and t^2 = 3s^2 - r1 r2
    # have e1 = e2 = 0, so in u = z - shift the quartic is u^4 + cu + e: the
    # first remainder has degree 1, two below p', and the next
    # pseudo-remainder takes an odd power of a leading coefficient of
    # either sign
    s = -(r1 + r2) / 2
    t2 = 3 * s * s - r1 * r2
    assume(t2 > 0)
    roots = [(r1 + shift, 1), (r2 + shift, 1)]
    p = _known_roots_poly(scale, 0, roots, (-2 * (s + shift), t2))
    assume(descartes_sign_changes(p) != 1)
    _assert_encloses_largest_known_root(p, roots, width)


@pytest.mark.parametrize("p, lo, hi, steps", [
    # (z + 1)^2 (z - 2): one sign change, so the bracket is [0, 4] from the
    # Cauchy bound of p itself, not [0, 3] from its squarefree part, and its
    # first midpoint is the root
    ([-2, -3, 0, 1], Fraction(2), Fraction(2), 1),
    ([0, 0, -2, -3, 0, 1], Fraction(2), Fraction(2), 1),
    # z (z^2 - z - 1): the root at 0 divided out, [0, 2] halved 41 times
    ([0, -1, -1, 1], Fraction(1779047184767, 1099511627776),
     Fraction(13898806131, 8589934592), 41),
])
def test_descartes_path_enclosures_pinned(p, lo, hi, steps):
    enc = largest_positive_root(p)
    assert (enc.lo, enc.hi, enc.bisection_steps) == (lo, hi, steps)
    assert enc.unique_positive


def test_root_enclosures_record_bisection_steps():
    # Descartes path: [0, 2] halved 41 times to width <= 10^-12
    enc = largest_positive_root([-1, -1, 0, 1])           # z^3 - z - 1
    assert enc.bisection_steps == 41
    # Sturm path: [0, 5] halved until it isolates 3 and is that narrow
    enc = largest_positive_root([3, -4, 1])
    assert enc.bisection_steps == 43
    assert dominant_root(Recurrence(order=2, coefficients=(Fraction(1), Fraction(1)),
                                    initial=(1, 1), guard=0)).bisection_steps == 41
    # one length l: z^l - 1, whose exact root 1 is the bracket's first midpoint
    assert positive_root_from_lengths([3]).bisection_steps == 1
    # the count is a diagnostic: it does not enter equality
    assert enc._replace(bisection_steps=0) == enc


def test_root_enclosure_equality_ignores_only_bisection_steps():
    enc = RootEnclosure(Fraction(1), Fraction(2), bisection_steps=7)
    same = enc._replace(bisection_steps=0)
    assert same == enc and not same != enc and hash(same) == hash(enc)
    assert len({enc, same}) == 1
    for field, value in (("lo", Fraction(0)), ("hi", Fraction(3)),
                         ("unique_positive", False)):
        other = enc._replace(**{field: value})
        assert other != enc and not other == enc


def test_descartes():
    assert descartes_sign_changes([-1, -1, 1]) == 1
    assert descartes_sign_changes([1, 1, 1]) == 0


def test_recurrence_char_poly_fibonacci():
    rec = Recurrence(order=2,
                     coefficients=(Fraction(1), Fraction(1)),
                     initial=(1, 1), guard=0)
    assert list(rec.char_poly()) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_fit_recurrence_recovers_fibonacci():
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
    rec = fit_recurrence(fib, guard=4)
    assert rec is not None
    assert rec.order == 2
    assert rec.coefficients == (Fraction(1), Fraction(1))
    enc = dominant_root(rec)
    assert abs(enc.mid - GOLDEN) < 1e-9


def test_fit_recurrence_rejects_random():
    assert fit_recurrence([1, 5, 2, 9, 3, 11, 4, 17, 6, 23, 8, 29],
                          guard=3) is None


def test_fit_requires_guard_terms():
    # an order-5 "fit" always exists on 10 terms; the guard must block it
    assert fit_recurrence([1, 2, 4, 9, 17, 40, 79, 163, 331, 669],
                          guard=3) is None


def _solve_exact(rows, rhs):
    """(x, pivots) by Fraction Gauss-Jordan elimination: x solves
    rows*x = rhs with every non-pivot unknown 0, or is None if the system is
    inconsistent; pivots counts the pivot columns."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    if any(m[i][-1] != 0 for i in range(r, len(m))):
        return None, len(pivots)
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[-1]
    return x, len(pivots)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 6), ncols=st.integers(1, 6),
       shape=st.sampled_from(["random", "zero-column", "repeated-column",
                              "inconsistent"]))
def test_solve_matches_the_fraction_reference(data, nrows, ncols, shape):
    ints = st.integers(-4, 4)
    rows = data.draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    rhs = data.draw(st.lists(ints, min_size=nrows, max_size=nrows))
    c = data.draw(st.integers(0, ncols - 1))
    if shape == "zero-column":
        for row in rows:
            row[c] = 0
    elif shape == "repeated-column":
        src = data.draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = row[src]
    elif shape == "inconsistent" and nrows >= 2:
        # the last equation repeats the first with another right-hand side
        rows[-1] = rows[0][:]
        rhs[-1] = rhs[0] + data.draw(st.sampled_from([-1, 1]))
    x, rank = _solve(rows, rhs)
    assert (x, rank) == _solve_exact(rows, rhs)
    if x is not None:
        assert all(sum(a * v for a, v in zip(row, x)) == b
                   for row, b in zip(rows, rhs))


def _reference_fit(seq, guard):
    """(order, coefficients, initial) of the plain fit: for each order d in
    turn, any exact solution of all the training equations that reproduces
    every term, or None."""
    n = len(seq)
    for d in range(1, (n - guard) // 2 + 1):
        rows = [[Fraction(seq[k - i]) for i in range(1, d + 1)]
                for k in range(d, n - guard)]
        sol, _ = _solve_exact(rows, [Fraction(seq[k]) for k in range(d, n - guard)])
        if sol is not None and all(
                sum(sol[i - 1] * seq[k - i] for i in range(1, d + 1)) == seq[k]
                for k in range(d, n)):
            return d, tuple(sol), tuple(seq[:d])
    return None


def _fit(seq, guard):
    rec = fit_recurrence(seq, guard=guard)
    return None if rec is None else (rec.order, rec.coefficients, rec.initial)


@settings(max_examples=300, deadline=None)
@given(coefficients=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       data=st.data(), guard=st.integers(0, 6))
def test_fit_recurrence_matches_the_plain_fit_on_random_recurrences(
        coefficients, data, guard):
    d = len(coefficients)
    seq = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    for _ in range(data.draw(st.integers(0, 24))):
        seq.append(sum(c * seq[-i] for i, c in enumerate(coefficients, 1)))
    if seq and data.draw(st.booleans()):
        seq[data.draw(st.integers(0, len(seq) - 1))] += 1
    assert _fit(seq, guard) == _reference_fit(seq, guard)


@pytest.mark.parametrize("name, depth", [
    ("c2*c3", 21), ("pgl2z", 33), ("c2*c5", 18), ("c2*c4", 22), ("c2*c2xc2", 20)])
def test_fit_recurrence_matches_the_plain_fit_on_deep_spheres(name, depth):
    # the five deep balls of the benchmark's deep_ball workload
    entry = catalog_load(name)
    seq = list(enumerate_balls(entry.spec, entry.default_genset, depth).sphere)
    assert _fit(seq, 4) == _reference_fit(seq, 4) is not None


@pytest.mark.parametrize("name, depth", [
    ("c2*c3", 21), ("pgl2z", 33), ("c2*c5", 18), ("c2*c4", 22), ("c2*c2xc2", 20)])
def test_fit_rate_is_the_plain_fit_on_deep_spheres(name, depth):
    entry = catalog_load(name)
    seq = list(enumerate_balls(entry.spec, entry.default_genset, depth).sphere)
    rec = fit_recurrence(seq, guard=4)
    fit = fit_rate(seq)
    assert (fit.recurrence, fit.skip) == (rec, 0)
    assert fit.enclosure == dominant_root(rec) is not None


def test_count_avoiding_unrestricted():
    alpha = WeightedAlphabet(symbols=(("a", 1), ("b", 1)), forbidden=())
    counts = count_avoiding(alpha, 8)
    assert counts == [1, 2, 4, 8, 16, 32, 64, 128, 256]


def test_count_avoiding_no_double_letter():
    alpha = WeightedAlphabet(symbols=(("a", 1), ("b", 1)),
                             forbidden=(("a", "a"),))
    counts = count_avoiding(alpha, 8)
    # avoiding "aa" over {a,b}: Fibonacci shift
    assert counts == [1, 2, 3, 5, 8, 13, 21, 34, 55]


@pytest.mark.parametrize("symbols, forbidden, message", [
    ((("a", 1), ("a", 2)), (), "duplicate symbol names"),
    ((("a", 1), ("b", 0)), (), "lengths must be positive"),
    ((("a", 1), ("b", -1)), (), "lengths must be positive"),
    ((("a", 1), ("b", 1)), ((),), "must be nonempty"),
    ((("a", 1), ("b", 1)), (("a", "c"),), "unknown symbol"),
])
def test_weighted_alphabet_rejects_invalid_input(symbols, forbidden, message):
    with pytest.raises(ValueError, match=message):
        WeightedAlphabet(symbols, forbidden)
    with pytest.raises(ValueError, match=message):
        WeightedAlphabet(symbols=symbols, forbidden=forbidden)


def test_count_avoiding_weighted():
    # symbols of weighted lengths 1 and 2, no constraints:
    # W(n) = W(n-1) + W(n-2)
    alpha = WeightedAlphabet(symbols=(("x", 1), ("y", 2)), forbidden=())
    counts = count_avoiding(alpha, 10)
    for n in range(2, 11):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_lpv_bound_values():
    assert lpv_bound(2, 2) == 1
    assert lpv_bound(2, 3) == Fraction(4, 3)
    assert lpv_bound(2, 7) == Fraction(12, 7)
    assert lpv_bound(2, 7) > Fraction(5, 3)
    assert lpv_bound(2, 2, 1, 0) == 3


def test_enclosure_width_request():
    enc = largest_positive_root([-1, -1, 1], width=Fraction(1, 10**15))
    assert enc.width <= Fraction(1, 10**15)


def _horner(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _reference_root(p, width):
    """(lo, hi, steps) of `largest_positive_root` on a polynomial with one
    sign change, with every sign taken by Fraction Horner: double the
    bracket from the Cauchy bound until it changes sign, then halve it to
    the width and, when p has a root at 0, until it starts right of 0."""
    p = [Fraction(c) for c in p]
    while p[-1] == 0:
        p.pop()
    root_at_0 = p[0] == 0
    while p[0] == 0:
        p = p[1:]
    positive_at_0 = p[0] > 0
    lo, hi = Fraction(0), max(Fraction(1), root_upper_bound(p))
    while (_horner(p, hi) > 0) == positive_at_0:
        hi *= 2
    if _horner(p, hi) == 0:
        return hi, hi, 0
    steps = 0
    while hi - lo > width or lo == 0 and root_at_0:
        steps += 1
        mid = (lo + hi) / 2
        fm = _horner(p, mid)
        if fm == 0:
            return mid, mid, steps
        if (fm > 0) == positive_at_0:
            lo = mid
        else:
            hi = mid
    return lo, hi, steps


def _same_as_reference(p, width=Fraction(1, 10**12)):
    enc = largest_positive_root(p, width=width)
    assert (enc.lo, enc.hi, enc.bisection_steps) == _reference_root(p, width)


def test_root_isolation_matches_the_fraction_reference_on_the_catalog():
    polys = {tuple(q["polynomial"]) for name in catalog_names()
             for q in catalog_load(name).expected if "polynomial" in q}
    assert {(-1, -1, 1), (-1, -1, 0, 1), (-2, -2, 0, 1)} <= polys
    for p in polys:
        if descartes_sign_changes(p) == 1:
            _same_as_reference(p)
            _same_as_reference(p, width=Fraction(3, 10**7))
    # exact hits at a midpoint: z - 1 on [0, 2] at once, z - 3 on [0, 4]
    # after two halvings
    for p in ([-1, 1], [-3, 1]):
        _same_as_reference(p)
        enc = largest_positive_root(p)
        assert enc.lo == enc.hi


fractions = st.fractions(min_value=0, max_value=20, max_denominator=12)


@settings(max_examples=300, deadline=None)
# z (z - 1/10) at width 1/3: the enclosure once was [0, 11/40], which also
# holds the root at 0
@example(zeros=1, low=[Fraction(1, 10)], high=[Fraction(1)], flip=False,
         width=Fraction(1, 3))
@given(zeros=st.integers(0, 2),
       low=st.lists(fractions, min_size=1, max_size=4).filter(any),
       high=st.lists(fractions, min_size=1, max_size=4).filter(
           lambda h: h[-1] > 0),
       flip=st.booleans(),
       width=st.sampled_from([Fraction(1, 10**12), Fraction(1, 3),
                              Fraction(5, 7 * 2**20)]))
def test_root_isolation_matches_the_fraction_reference_on_random_polys(
        zeros, low, high, flip, width):
    # nonpositive low coefficients, then nonnegative high ones: one sign
    # change, possibly behind zero coefficients (roots at 0)
    p = [Fraction(0)] * zeros + [-c for c in low] + high
    if flip:
        p = [-c for c in p]
    assert descartes_sign_changes(p) == 1
    _same_as_reference(p, width)


@settings(max_examples=300, deadline=None)
@given(low=st.lists(fractions, min_size=1, max_size=4).filter(lambda l: l[0]),
       high=st.lists(fractions, min_size=1, max_size=4).filter(
           lambda h: h[-1] > 0),
       flip=st.booleans())
def test_cauchy_bound_brackets_the_root_of_one_sign_change_polys(
        low, high, flip):
    # the Descartes path of `largest_positive_root` bisects [0, B] at once:
    # B >= 1 exceeds every root, so with one sign change q(B) is nonzero
    # with the leading coefficient's sign, opposite to q(0)
    p = [-c for c in low] + high
    if flip:
        p = [-c for c in p]
    assert descartes_sign_changes(p) == 1
    bound = root_upper_bound(p)
    q = _integer_poly(p)
    at_bound = _eval_over(q, bound.numerator, bound.denominator)
    assert bound >= 1
    assert at_bound != 0
    assert (at_bound > 0) == (q[-1] > 0) != (q[0] > 0)
