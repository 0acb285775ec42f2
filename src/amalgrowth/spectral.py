"""Exact recurrence and root machinery.

All sequence and polynomial arithmetic is exact; floating point appears only
in reported midpoints of root enclosures.  A polynomial's denominators are
cleared once, at `largest_positive_root`; below it every polynomial is an
integer list.  Positive roots are isolated by one halving loop driven by a
chain of integer polynomials: p alone, with its sign at infinity, when
Descartes' rule certifies a unique positive root, and otherwise the Sturm
chain of p's squarefree part, built by primitive pseudo-remainders (Collins,
J. ACM 14, 1967) scaled to keep the rational chain's signs.  Every sign is
an integer evaluation of a chain member (`_eval_over`) at a numerator over
the Cauchy bound's denominator times a power of 2.  Recurrences are fitted
by one fraction-free linear solver.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

DEFAULT_WIDTH = Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending, integers)

def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def descartes_sign_changes(p) -> int:
    signs = [c > 0 for c in p if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_upper_bound(p) -> Fraction:
    """Cauchy bound: all real roots of p (leading coefficient nonzero) lie
    in [-B, B].  B is unchanged by scaling p."""
    return 1 + Fraction(max((abs(c) for c in p[:-1]), default=0)) / abs(p[-1])


def _primitive(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients: a positive multiple of p (the
    zero polynomial [] stays [])."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """|lead b|^k (a mod b), k = deg a - deg b + 1, trimmed: a positive
    multiple of the remainder of a by b over the rationals, in integers."""
    if b[-1] < 0:
        b = [-c for c in b]
    lead, r = b[-1], a[:]
    for shift in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [lead * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= top * c
    return poly_trim(r)


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for b primitive dividing a over the rationals: the quotient has
    integer coefficients (Gauss's lemma), so every division is exact."""
    r = a[:]
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = r.pop() // b[-1]
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= quot[shift] * c
    return quot


def _squarefree_sturm_chain(q: list[int]) -> list[list[int]]:
    """The Sturm chain of q's squarefree part s (deg q >= 1) in integers.

    The gcd of q and q' is the last member of their primitive
    pseudo-remainder sequence, and s = q / gcd.  Member i is c_i times the
    rational chain's [s, s', -(s mod s'), ...], the c_i nonzero and all of
    one sign (that of the gcd's leading coefficient), so the chain has the
    rational one's sign variations at every point."""
    a, b = q, poly_derivative(q)
    while b:
        a, b = b, _primitive(_prem(a, b))
    s = _divide_exact(q, _primitive(a))
    chain = [s, poly_derivative(s)]
    while r := _prem(chain[-2], chain[-1]):
        chain.append(_primitive([-c for c in r]))
    return chain


class RootEnclosure(NamedTuple):
    lo: Fraction
    hi: Fraction
    unique_positive: bool = True
    # interval halvings the isolation took: a diagnostic, not in equality
    bisection_steps: int = 0

    def __eq__(self, other):
        if not isinstance(other, RootEnclosure):
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def mid(self) -> float:
        return float((self.lo + self.hi) / 2)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _integer_poly(p) -> list[int]:
    """p scaled by the lcm of its coefficient denominators: integer
    coefficients with p's sign at every point."""
    den = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p]


def _eval_over(q: list[int], num: int, den: int) -> int:
    """den^deg(q) * q(num / den) for den > 0, in integers: the homogenised
    polynomial by Horner, so its sign is that of q(num / den)."""
    acc = 0
    scale = 1
    for c in reversed(q):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _refine(chain: list[list[int]], bound: Fraction, width: Fraction,
            root_at_0: bool) -> RootEnclosure | None:
    """Enclosure of the largest root in (0, bound] of chain[0], or None.

    For 0 <= x < y <= bound, the integer chain's sign variations (zeros
    skipped) at x minus those at y must count chain[0]'s distinct roots in
    (x, y].  [0, bound] is halved, keeping the rightmost root, until it
    holds one root, is at most width wide and does not start at a root,
    which the count leaves out (at 0 when `root_at_0`, later when chain[0]
    vanishes there); the ends are numerators over bound.denominator *
    2^halvings, so every sign is an integer evaluation."""
    a, b, den = 0, bound.numerator, bound.denominator
    va, vb = (descartes_sign_changes([_eval_over(q, x, den) for q in chain])
              for x in (a, b))
    total = va - vb
    if total == 0:
        return None
    steps = 0
    a_is_root = root_at_0
    # more than one root inside, (b - a) / den > width, or a root at a
    while (va - vb > 1 or (b - a) * width.denominator > width.numerator * den
           or a_is_root):
        steps += 1
        a, b, den = 2 * a, 2 * b, 2 * den
        mid = (a + b) // 2
        values = [_eval_over(q, mid, den) for q in chain]
        vm = descartes_sign_changes(values)
        if vm == vb and values[0] == 0:
            a = b = mid
            break
        if vm > vb:
            a, va, a_is_root = mid, vm, values[0] == 0
        else:
            b, vb = mid, vm
    return RootEnclosure(Fraction(a, den), Fraction(b, den),
                         unique_positive=(total == 1), bisection_steps=steps)


def positive_root_from_lengths(lengths, *, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Enclosure of the unique positive root of z^m - sum_i z^(m - l_i) for
    positive integer lengths l_i (m = max).

    This is the growth exponent of the free monoid on generators of the given
    lengths; for a single length l it is the exact root 1 of z^l - 1.
    """
    lengths = list(lengths)
    if not lengths or any(l < 1 or l != int(l) for l in lengths):
        raise ValueError("lengths must be positive integers")
    m = max(lengths)
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    for l in lengths:
        coeffs[m - l] -= 1
    return largest_positive_root(coeffs, width=width)


def largest_positive_root(p, *, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure | None:
    """Enclosure of the largest positive real root of p, or None; its
    unique_positive says whether that root is p's only positive one.

    With one Descartes sign change, q = p with its roots at 0 divided out
    has exactly one positive root, and [q, sign of q's leading coefficient]
    is a chain for `_refine` on [0, Cauchy bound of q]: one variation left
    of the root, none at or right of it.  Otherwise the chain is the Sturm
    chain of p's squarefree part, on its Cauchy bound.  On both paths the
    enclosure excludes a root of p at 0.
    """
    q = poly_trim(_integer_poly([Fraction(c) for c in p]))
    if len(q) <= 1:
        return None
    root_at_0 = q[0] == 0
    if descartes_sign_changes(q) == 1:
        while q[0] == 0:
            q = q[1:]
        return _refine([q, [1 if q[-1] > 0 else -1]], root_upper_bound(q),
                       width, root_at_0)
    chain = _squarefree_sturm_chain(q)
    return _refine(chain, root_upper_bound(chain[0]), width, root_at_0)


# ---------------------------------------------------------------------------
# recurrence fitting

class Recurrence(NamedTuple):
    """W(n) = c1 W(n-1) + ... + cd W(n-d), with exact coefficients."""
    order: int
    coefficients: tuple[Fraction, ...]
    initial: tuple[int, ...]
    guard: int

    def char_poly(self) -> list[Fraction]:
        """x^d - c1 x^(d-1) - ... - cd, ascending coefficients."""
        d = self.order
        coeffs = [Fraction(0)] * (d + 1)
        coeffs[d] = Fraction(1)
        for i, c in enumerate(self.coefficients, start=1):
            coeffs[d - i] = -c
        return coeffs


def _solve(rows: list[list[int]],
           rhs: list[int]) -> tuple[list[Fraction] | None, int]:
    """(x, rank) for the integer system rows*x = rhs: x solves it with every
    non-pivot unknown 0, or is None if the system is inconsistent.

    Fraction-free (Bareiss) elimination to row echelon form, pivot columns
    taken left to right, so every division before the back substitution is
    exact in integers."""
    m = [row + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    rank = len(pivots)
    if any(row[-1] for row in m[rank:]):
        return None, rank
    x = [Fraction(0)] * len(rows[0])
    for row, c in reversed(list(zip(m, pivots))):
        x[c] = (row[-1] - sum((row[j] * x[j] for j in range(c + 1, len(x))),
                              Fraction(0))) / row[c]
    return x, rank


def fit_recurrence(seq, *, guard: int = 5) -> Recurrence | None:
    """Minimal-order exact linear recurrence reproducing all of seq.

    The last `guard` terms are held out of the fit and used for verification;
    returns None if no order <= (len(seq) - guard) // 2 fits.  An order d
    solves the first d training equations; when they are nonsingular their
    solution is the only candidate, otherwise any exact solution of all the
    training equations is.  Either way the candidate must reproduce every
    term.
    """
    seq = [int(v) for v in seq]
    n = len(seq)
    train_end = n - guard
    for d in range(1, train_end // 2 + 1):
        sol, rank = _solve([seq[k - d:k][::-1] for k in range(d, 2 * d)],
                           seq[d:2 * d])
        if rank < d:
            sol, _ = _solve([seq[k - d:k][::-1] for k in range(d, train_end)],
                            seq[d:train_end])
            if sol is None:
                continue
        den = math.lcm(*(c.denominator for c in sol))
        num = [c.numerator * (den // c.denominator) for c in sol][::-1]
        if all(sum(map(operator.mul, num, seq[k - d:k])) == den * seq[k]
               for k in range(d, n)):
            return Recurrence(order=d, coefficients=tuple(sol),
                              initial=tuple(seq[:d]), guard=guard)
    return None


def dominant_root(rec: Recurrence, *, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure | None:
    """Largest positive real root of the characteristic polynomial."""
    if rec.order < 1:
        raise ValueError("trivial recurrence")
    return largest_positive_root(rec.char_poly(), width=width)


# (guard, largest skip) pairs `fit_rate` tries in turn: while more terms can
# come, and once the counts are complete
FIT_SCHEDULE = ((4, 5), (3, 6))
COMPLETE_FIT_SCHEDULE = ((4, 6), (3, 7), (2, 8), (1, 8))


class FittedRate(NamedTuple):
    """A growth rate read off a recurrence fitted to counts[skip:]: evidence
    resting on the recurrence's `guard` held-out terms, not a proof."""
    recurrence: Recurrence
    skip: int
    enclosure: RootEnclosure | None

    def __str__(self) -> str:
        mid = self.enclosure.mid if self.enclosure else None
        return f"{mid} (fitted, guard {self.recurrence.guard}, skip {self.skip})"


def fit_rate(counts, *, complete: bool = True) -> FittedRate | None:
    """The first fit of the schedule, counts[skip:] at guard, with its
    dominant root; None if none fits.  The first try is the plain fit, guard
    4 and skip 0; guards below 3 are tried only once the counts are
    complete, when no later term will come to check them."""
    seq = [int(v) for v in counts]
    for guard, max_skip in COMPLETE_FIT_SCHEDULE if complete else FIT_SCHEDULE:
        for skip in range(min(max_skip, max(0, len(seq) - 2 * guard)) + 1):
            rec = fit_recurrence(seq[skip:], guard=guard)
            if rec is not None:
                return FittedRate(rec, skip, dominant_root(rec))
    return None


# ---------------------------------------------------------------------------
# counting words avoiding forbidden factors (weighted symbols)

class _Alphabet(NamedTuple):
    symbols: tuple[tuple[str, int], ...]
    forbidden: tuple[tuple[str, ...], ...] = ()


class WeightedAlphabet(_Alphabet):
    """Symbols with positive integer lengths and a list of forbidden factors
    (tuples of symbol names), validated on construction."""
    __slots__ = ()

    def __new__(cls, symbols, forbidden=()):
        names = [s for s, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        if any(l < 1 for _, l in symbols):
            raise ValueError("symbol lengths must be positive")
        for f in forbidden:
            if not f:
                raise ValueError("forbidden factors must be nonempty")
            if any(s not in names for s in f):
                raise ValueError(f"forbidden factor uses unknown symbol: {f}")
        return super().__new__(cls, symbols, forbidden)


def _avoidance_automaton(alpha: WeightedAlphabet):
    """Aho-Corasick style automaton over the forbidden-factor prefixes.

    States are proper prefixes of forbidden factors; a transition that would
    complete a forbidden factor is a dead transition (None).  State count is
    bounded by the total forbidden length + 1.
    """
    prefixes = {()}
    for f in alpha.forbidden:
        for i in range(len(f)):
            prefixes.add(f[:i])
    states = sorted(prefixes, key=lambda p: (len(p), p))
    index = {p: i for i, p in enumerate(states)}
    forbidden = set(alpha.forbidden)

    def has_forbidden_suffix(word):
        return any(word[len(word) - len(f):] == f for f in forbidden
                   if len(f) <= len(word))

    def longest_state_suffix(word):
        for i in range(len(word)):
            if word[i:] in index:
                return word[i:]
        return ()

    trans = []
    for p in states:
        row = {}
        for name, _ in alpha.symbols:
            w = p + (name,)
            if has_forbidden_suffix(w):
                row[name] = None
            else:
                row[name] = index[longest_state_suffix(w)]
        trans.append(row)
    return trans


def count_avoiding(alpha: WeightedAlphabet, nmax: int) -> list[int]:
    """Exact counts, by total weighted length 0..nmax, of words over the
    alphabet containing no forbidden factor."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    trans = _avoidance_automaton(alpha)
    nstates = len(trans)
    lengths = dict(alpha.symbols)
    # ways[n][state]: words of weighted length n ending in automaton state
    ways = [[0] * nstates for _ in range(nmax + 1)]
    ways[0][0] = 1
    for n in range(nmax + 1):
        row = ways[n]
        for st in range(nstates):
            w = row[st]
            if not w:
                continue
            for name, l in alpha.symbols:
                if n + l > nmax:
                    continue
                nxt = trans[st][name]
                if nxt is not None:
                    ways[n + l][nxt] += w
        # totals are accumulated after the row is final
    return [sum(ways[n]) for n in range(nmax + 1)]


# ---------------------------------------------------------------------------
# free-product lower bound from first L2-Betti numbers

def lpv_bound(order_a, order_b, beta1_a=0, beta1_b=0) -> Fraction:
    """Lower bound 3 + 2*beta1(A) + 2*beta1(B) - 2/|A| - 2/|B| for the
    minimal growth rate of A*B; pass None (or math.inf) for infinite order."""
    def term(order):
        if order is None or order == math.inf:
            return Fraction(0)
        order = int(order)
        if order < 2:
            raise ValueError("factor orders must be >= 2 (nontrivial factors)")
        return Fraction(2, order)
    return (Fraction(3) + 2 * Fraction(beta1_a) + 2 * Fraction(beta1_b)
            - term(order_a) - term(order_b))
