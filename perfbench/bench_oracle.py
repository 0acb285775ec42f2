"""Output checks for the benchmark jobs.

The checks share no code with the layers they judge: polynomial signs are
evaluated here with plain Fractions, tree distances and the action on tree
vertices are recomputed here from the canonical vertex keys, and certificate
conclusions are tested by multiplying words with `amalgam.multiply` alone.
Stored reference values (sphere counts, digests, certification status) were
recorded from the library at the commit that introduced the benchmark.

Every check returns None when the output passes and a one-line reason when
it does not.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from amalgrowth.amalgam import NormalForm, identity_nf, invert, is_identity, multiply

GOLDEN = (1 + 5 ** 0.5) / 2
PLASTIC = 1.3247179572447460
TOL = 1e-9

# Each entry's documented sphere recurrence, as the ascending coefficients
# of its characteristic polynomial (the catalog's `sphere_char_poly`).
SPHERE_POLY = {
    "c2*c3": (-1, -1, 1),
    "c2*c4": (-1, -1, 1),
    "c2*c2xc2": (-1, -1, 1),
    "c2*c5": (-2, -2, 0, 1),
    "pgl2z": (-1, -1, 0, 1),
}
RECURRENCE_FROM = 5

# Lower bounds on the growth rate of any generating set: the golden ratio on
# criterion 7's entries, the free-product L2-Betti bound 3 - 2/2 - 2/3 on
# c2*c3, and the plastic number documented as the minimal rate of pgl2z.
RATE_FLOOR = {
    "c2*c4": GOLDEN,
    "c2*c5": GOLDEN,
    "c2*c2xc2": GOLDEN,
    "c2*c3": 4 / 3,
    "pgl2z": PLASTIC,
}

MONOID_WORD_LENGTH = 8
SPLIT_SYLLABLES = 4
ORDER_CAP = 24


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def vertex_digest(vertices) -> str:
    """Order-free digest of a vertex list."""
    return digest(sorted([v.side, [list(s) for s in v.key]] for v in vertices))


def _horner(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + Fraction(c)
    return acc


def sign_change(poly, lo: Fraction, hi: Fraction) -> bool:
    """True when [lo, hi] provably brackets a root of poly."""
    a, b = _horner(poly, Fraction(lo)), _horner(poly, Fraction(hi))
    return a == 0 or b == 0 or (a < 0) != (b < 0)


def recurrence_holds(poly, seq, start: int) -> bool:
    """seq[n] satisfies the monic recurrence with characteristic polynomial
    poly for every n >= start."""
    d = len(poly) - 1
    return all(sum(poly[i] * seq[n - d + i] for i in range(d + 1)) == 0
               for n in range(max(start, d), len(seq)))


def check_deep(out: dict, entry: str, ref_sphere) -> str | None:
    sphere = list(out["sphere"])
    if out["truncated"]:
        return "table truncated by the element budget"
    if len(sphere) != out["depth"] + 1:
        return f"expected {out['depth'] + 1} sphere counts, got {len(sphere)}"
    if sphere != list(ref_sphere[:len(sphere)]):
        return "sphere counts differ from the reference"
    acc = 0
    for s, b in zip(sphere, out["ball"]):
        acc += s
        if b != acc:
            return "ball counts are not the partial sums of sphere counts"
    poly = SPHERE_POLY[entry]
    if not recurrence_holds(poly, sphere, RECURRENCE_FROM):
        return "documented sphere recurrence fails"
    enc = out["enclosure"]
    if enc is None:
        return "no recurrence fit or no dominant root"
    if not sign_change(poly, enc[0], enc[1]):
        return "root enclosure does not bracket a root of the documented polynomial"
    return None


def check_stream(out: dict, ref: dict) -> str | None:
    seq = out["seq"]
    if digest(seq) != ref["sphere_sha"]:
        return "streamed sphere prefix differs from the reference"
    if ref["fit"] is None:
        if out["fit"] is not None:
            return "fit found where the reference found none"
        return None
    if out["fit"] is None:
        return "no fit where the reference found one"
    skip, coeffs = out["fit"]
    tail = seq[skip:]
    d = len(coeffs)
    if skip != ref["fit"]["skip"] or d != ref["fit"]["order"]:
        return "fitted recurrence differs from the reference"
    if any(sum(Fraction(coeffs[i - 1]) * tail[k - i] for i in range(1, d + 1)) != tail[k]
           for k in range(d, len(tail))):
        return "fitted recurrence does not reproduce the streamed counts"
    enc = out["enclosure"]
    if enc is None:
        return "no dominant root"
    char_poly = [-Fraction(c) for c in reversed(coeffs)] + [Fraction(1)]
    if not sign_change(char_poly, enc[0], enc[1]):
        return "root enclosure does not bracket a root of the fitted polynomial"
    if not enc[0] - TOL <= ref["fit"]["root"] <= enc[1] + TOL:
        return "dominant root differs from the reference"
    if enc[1] < RATE_FLOOR[out["entry"]] - TOL:
        return f"dominant root {float(enc[1])} below the rate floor"
    return None


# --- the tree, recomputed from canonical vertex keys -----------------------
#
# A vertex is (side, key) with key an alternating syllable tuple whose last
# syllable is not on `side`; its ancestor with key[:j] sits on side key[j][0]
# (or on `side` when j == len(key)), and the two empty-key vertices are
# adjacent.

def _ancestor_side(side: int, key: tuple, j: int) -> int:
    return key[j][0] if j < len(key) else side


def vertex_distance(u, v) -> int:
    ku, kv = u.key, v.key
    m = 0
    while m < len(ku) and m < len(kv) and ku[m] == kv[m]:
        m += 1
    for j in range(m, -1, -1):
        if _ancestor_side(u.side, ku, j) == _ancestor_side(v.side, kv, j):
            return len(ku) + len(kv) - 2 * j
    return len(ku) + len(kv) + 1


def vertex_act(spec, g: NormalForm, v):
    """The vertex g.v, from one normal-form product."""
    syl = multiply(spec, g, NormalForm(v.key, spec.C.identity)).syllables
    if syl and syl[-1][0] == v.side:
        syl = syl[:-1]
    return type(v)(v.side, syl)


def check_axis(spec, g: NormalForm, out: dict, ref: dict) -> str | None:
    verts, tau = out["vertices"], out["tau"]
    if tau != ref["tau"]:
        return f"translation length {tau}, reference {ref['tau']}"
    if vertex_digest(verts) != ref["vertices_sha"]:
        return "axis vertex set differs from the reference"
    for v in verts:
        if vertex_distance(v, vertex_act(spec, g, v)) != tau:
            return f"axis vertex {v} is not displaced by {tau}"
    for a, b in zip(verts, verts[1:]):
        if vertex_distance(a, b) != 1:
            return "consecutive axis vertices are not adjacent"
    return None


def check_fixed(spec, g: NormalForm, out: dict, ref: dict) -> str | None:
    verts = out["vertices"]
    if vertex_digest(verts) != ref["vertices_sha"]:
        return "fixed vertex set differs from the reference"
    for v in verts:
        if vertex_act(spec, g, v) != v:
            return f"vertex {v} is not fixed"
    return None


# --- certificate conclusions, by normal-form products ----------------------

def _nf(d: dict) -> NormalForm:
    return NormalForm(tuple((s[0], s[1]) for s in d["syllables"]), d["head"])


def _inconclusive(ref: dict) -> str | None:
    """An inconclusive search fails only where the reference certified."""
    return "certified in the reference, inconclusive now" if ref["certified"] else None


def check_monoid(spec, inputs: list[NormalForm], out: dict, ref: dict) -> str | None:
    cert = out["certificate"]
    if cert is None:
        return _inconclusive(ref)
    if out["replay"] is not True:
        return "certificate does not replay"
    els = [_nf(e["nf"]) for e in cert["elements"]]
    if len(els) != len(inputs):
        return "certificate names a different number of elements"
    for x, g in zip(els, inputs):
        if x != g and not is_identity(spec, multiply(spec, x, g)):
            return "certificate element is neither the input nor its inverse"
    seen = {}
    level = [(identity_nf(spec), "")]
    for _ in range(MONOID_WORD_LENGTH):
        nxt = []
        for acc, word in level:
            for i, x in enumerate(els):
                y = multiply(spec, acc, x)
                w = word + str(i)
                if y.key() in seen:
                    return f"positive words {seen[y.key()]} and {w} are equal"
                seen[y.key()] = w
                nxt.append((y, w))
        level = nxt
    return None


def _nontrivial_powers(spec, g: NormalForm) -> list[NormalForm]:
    """All non-identity powers of g when its order is finite and small,
    otherwise g^1, g^2, g^-1, g^-2."""
    acc, out = g, []
    for _ in range(ORDER_CAP):
        if is_identity(spec, acc):
            return out
        out.append(acc)
        acc = multiply(spec, acc, g)
    gi = invert(spec, g)
    return [g, multiply(spec, g, g), gi, multiply(spec, gi, gi)]


def check_split(spec, inputs: list[NormalForm], out: dict, ref: dict) -> str | None:
    cert = out["certificate"]
    if cert is None:
        return _inconclusive(ref)
    if out["replay"] is not True:
        return "certificate does not replay"
    left = [_nf(e["nf"]) for e in cert["elements"] if e["role"] == "left"]
    right = [_nf(e["nf"]) for e in cert["elements"] if e["role"] == "right"]
    if len(left) != 1 or len(right) != 1:
        return "expected one generator on each side of the split"
    a, b = left[0], right[0]
    # the certified pair is <a> * <b a^l> for the inputs in some order, where
    # l is the recorded power of the elliptic side (0 when none was needed)
    power = identity_nf(spec)
    for _ in range(cert.get("data", {}).get("ell", 0)):
        power = multiply(spec, power, a)
    x, y = inputs
    if [a, b] not in ([x, multiply(spec, y, power)], [y, multiply(spec, x, power)]):
        return "certified elements do not match the inputs"
    sides = (_nontrivial_powers(spec, a), _nontrivial_powers(spec, b))
    for start in (0, 1):
        level = [identity_nf(spec)]
        for depth in range(SPLIT_SYLLABLES):
            nxt = []
            for acc in level:
                for h in sides[(start + depth) % 2]:
                    y2 = multiply(spec, acc, h)
                    if is_identity(spec, y2):
                        return "an alternating word is trivial"
                    nxt.append(y2)
            level = nxt
    return None
