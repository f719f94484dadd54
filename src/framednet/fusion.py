"""Pointed sector systems and their bookkeeping.

A pointed system is a finite abelian group of sector labels together with
a conformal-weight map h: G -> Q mod 1.  This module covers simple
current extension admissibility, mu-index arithmetic, the orbifold
sector census (with exact statistical dimensions in Z[sqrt(2)]), and
the two-step framed-structure data (k, l).

The extension of Z4^d by a Z4 code H is pure linear algebra over Z4: the
weight check reads H's generators and their pairs, the surviving sectors
H-perp / H are presented as Z4^a x Z2^b from two dual codes, and every
size is 2^(number of basis rows).  No codeword of H or H-perp is listed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .codes import Z4Code, _rref_f2

Element = Tuple[int, ...]
HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)


class FusionError(ValueError):
    pass


class PointedSystem(NamedTuple):
    """Finite abelian group of sector labels with a weight map h mod 1.

    `orders` lists the cyclic factor orders; elements are coordinate
    tuples.  `weight` returns h(x) reduced mod 1.  `ambient_length` tags
    Z4-power systems with the underlying coordinate count d.
    """

    orders: Tuple[int, ...]
    weight: Callable[[Element], Fraction]
    ambient_length: Optional[int] = None

    def size(self) -> int:
        return math.prod(self.orders)

    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % o for a, o in zip(x, self.orders))

    def h(self, x: Element) -> Fraction:
        return self.weight(x) % 1


def z4_power_system(d: int) -> PointedSystem:
    """d-th tensor power: group Z4^d with h(gamma) = sum gamma_i^2 / 8 mod 1."""
    if d < 1:
        raise FusionError("d must be positive")

    def weight(x: Element) -> Fraction:
        return Fraction(sum((a % 4) ** 2 for a in x), 8) % 1

    return PointedSystem((4,) * d, weight, ambient_length=d)


def mu_index(sys: PointedSystem) -> int:
    """Square sum of statistical dimensions; |G| for a pointed system."""
    return sys.size()


# ---------------------------------------------------------------------------
# subgroups and extensions


def _is_z4_power(sys: PointedSystem) -> bool:
    return sys.ambient_length is not None and sys.orders == (4,) * sys.ambient_length


def _non_integral_element(sys: PointedSystem, H: Z4Code) -> Optional[Element]:
    """An element of H whose weight is not an integer, or None if there is none.

    On Z4^d, h(x) = sum x_i^2 / 8 is a quadratic form with polar form
    sum x_i y_i / 4, so it vanishes on H iff it vanishes on each generator
    and the polar form vanishes on each pair of them.  For a pair (g, k)
    of integral generators with b(g, k) != 0, g + k is the element.
    """
    if not _is_z4_power(sys) or H.length != sys.ambient_length:
        raise FusionError("Z4 code does not match the ambient system")
    gens = H.generators
    for g in gens:
        if sum(a * a for a in g) % 8:
            return g
    for g, k in combinations(gens, 2):
        if sum(a * b for a, b in zip(g, k)) % 4:
            return tuple((a + b) % 4 for a, b in zip(g, k))
    return None


def integer_weight_subgroup(sys: PointedSystem, H: Z4Code) -> bool:
    """True iff h(x) is an integer for every x in the Z4 code H."""
    return _non_integral_element(sys, H) is None


def trivial_system() -> PointedSystem:
    return PointedSystem((), lambda x: Fraction(0))


class ExtensionResult(NamedTuple):
    allowed: bool
    mu_before: int
    mu_after: Fraction
    quotient_system: Optional[PointedSystem]
    offending: Optional[Element] = None


# ---------------------------------------------------------------------------
# Z4 linear algebra: dual codes via integer diagonalization


def _diagonalize(rows: List[List[int]], d: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer diagonalization A -> U A V by row and column operations.

    Returns (S, V) with S diagonal; V accumulates the column operations,
    so solution sets of A y = 0 (mod anything) are V * solutions of S.
    """
    a = [r[:] for r in rows]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    while t < min(m, d):
        # find a nonzero pivot of minimal magnitude in the submatrix
        best = None
        for i in range(t, m):
            for j in range(t, d):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            swap_cols(t, j)
        done = True
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                done = False
        for j in range(t + 1, d):
            q = a[t][j] // a[t][t]
            if q:
                add_col(t, j, -q)
            if a[t][j]:
                done = False
        if done:
            t += 1
    return a, v


def z4_dual_code(code: Z4Code) -> Z4Code:
    """Dual under the pairing b(x, y) = sum x_i y_i / 4 mod 1."""
    d = code.length
    rows = [list(g) for g in code.generators]
    s, v = _diagonalize(rows, d)
    gens: List[Element] = []
    for i in range(d):
        pivot = s[i][i] if i < len(s) else 0
        step = 4 // math.gcd(4, abs(pivot))
        if step < 4:
            gens.append(tuple((v[r][i] * step) % 4 for r in range(d)))
    if not gens:
        gens.append((0,) * d)
    return Z4Code(d, gens)


# ---------------------------------------------------------------------------
# the quotient H-perp / H


def _quotient_basis(H: Z4Code, dual: Z4Code) -> List[Tuple[Element, int]]:
    """Generators of dual / H with their orders, presenting it as Z4^a x Z2^b.

    H is isotropic and dual is H-perp.  The quotient Q is killed by 4, so
    a = dim 2Q and b = dim Q[2] - dim 2Q:

    - the order-4 generators are generators x of H-perp whose doubles are
      independent modulo H; those doubles span 2Q;
    - Q[2] is (H-perp cap B) / H with B = {b : 2b in H}.  Since
      x.(2y) = (2x).y, x is orthogonal to 2*H-perp iff 2x is in
      H-perp-perp = H, so B = (2*H-perp)-perp and H-perp cap B =
      (H + 2*H-perp)-perp.  The order-2 generators are generators y of
      this second dual that are independent modulo H plus the doubles
      above.

    A relation sum c_i x_i + sum e_j y_j in H forces every c_i even (double
    it), then every e_j zero and every c_i = 0 mod 4, so the presentation
    is faithful; 2a + b = log2 |Q| checks that it is onto.
    """
    d = H.length
    doubles = [tuple(2 * a % 4 for a in x) for x in dual.generators]
    span = list(H.generators)
    basis: List[Tuple[Element, int]] = []
    for x, x2 in zip(dual.generators, doubles):
        if x2 not in Z4Code(d, span):
            span.append(x2)
            basis.append((x, 4))
    two_torsion = z4_dual_code(Z4Code(d, list(H.generators) + doubles))
    for y in two_torsion.generators:
        if y not in Z4Code(d, span):
            span.append(y)
            basis.append((y, 2))
    if sum(2 if o == 4 else 1 for _, o in basis) != dual.log2_size - H.log2_size:
        raise FusionError("quotient generators do not present H-perp / H")
    return basis


def _quotient_system(sys: PointedSystem, H: Z4Code, dual: Z4Code) -> PointedSystem:
    if dual.log2_size == H.log2_size:
        return trivial_system()
    if H.log2_size == 0:
        return sys
    basis = _quotient_basis(H, dual)

    def weight(coords: Element) -> Fraction:
        x = (0,) * H.length
        for c, (g, o) in zip(coords, basis):
            x = tuple((a + (c % o) * b) % 4 for a, b in zip(x, g))
        return sys.h(x)

    return PointedSystem(tuple(o for _, o in basis), weight)


def simple_current_extension(sys: PointedSystem, H: Z4Code) -> ExtensionResult:
    """Admissibility and index bookkeeping of the extension of sys by H.

    Allowed iff every element of H has integer weight (spin 1); then the
    mu-index drops by |H|^2 and the surviving sectors form H-perp / H.
    Sizes come from basis-row counts, so no codeword is enumerated.
    """
    mu_before = mu_index(sys)
    offending = _non_integral_element(sys, H)
    quotient = None
    if offending is None:
        dual = z4_dual_code(H)
        for g in H.generators:
            if g not in dual:
                raise FusionError("integer-weight subgroup is not isotropic")
        quotient = _quotient_system(sys, H, dual)
    mu_after = Fraction(mu_before, 1 << (2 * H.log2_size))
    return ExtensionResult(offending is None, mu_before, mu_after, quotient, offending)


# ---------------------------------------------------------------------------
# fusion group disambiguation (Rehren spin rule on four sectors)


def fusion_group_disambiguation(weights: Sequence) -> str:
    """Group structure on 4 sectors compatible with h(nx) = n^2 h(x) mod 1.

    Returns "Z4", "Z2xZ2", "ambiguous" (both fit), or "inconsistent".
    """
    ws = [Fraction(w) % 1 for w in weights]
    if len(ws) != 4 or Fraction(0) not in ws:
        raise FusionError("need four weights including the vacuum's 0")
    rest = list(ws)
    rest.remove(Fraction(0))
    z4 = any(
        a == c and (4 * a) % 1 == b and (8 * a) % 1 == 0
        for a, b, c in permutations(rest)
    )
    z22 = all((2 * w) % 1 == 0 for w in rest)
    if z4 and z22:
        return "ambiguous"
    if z4:
        return "Z4"
    if z22:
        return "Z2xZ2"
    return "inconsistent"


# ---------------------------------------------------------------------------
# exact arithmetic in Z[sqrt 2] and the orbifold sector census


class Zroot2:
    """a + b*sqrt(2) with integer a, b.

    Values are compared and hashed by (a, b) and must not be mutated.
    Only Zroot2 values add and multiply; an int scales through `scale`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zroot2):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __add__(self, other: Zroot2) -> Zroot2:
        if not isinstance(other, Zroot2):
            return NotImplemented
        return Zroot2(self.a + other.a, self.b + other.b)

    def __mul__(self, other: Zroot2) -> Zroot2:
        if not isinstance(other, Zroot2):
            return NotImplemented
        return Zroot2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def scale(self, n: int) -> Zroot2:
        return Zroot2(n * self.a, n * self.b)

    def __repr__(self) -> str:
        return f"{self.a}+{self.b}*sqrt2"


def root2_power(k: int) -> Zroot2:
    """sqrt(2)^k as an exact Zroot2 value (k >= 0)."""
    if k % 2 == 0:
        return Zroot2(1 << (k // 2), 0)
    return Zroot2(0, 1 << ((k - 1) // 2))


class Census(NamedTuple):
    d: int
    dim2_count: int
    dim1_count: int
    twisted_count: int
    dim2: Zroot2
    dim1: Zroot2
    twisted_dim: Zroot2
    mu_balance: Zroot2
    balanced: bool

    def total_sectors(self) -> int:
        return self.dim2_count + self.dim1_count + self.twisted_count


def orbifold_census(d: int) -> Census:
    """Sector census of the order-2 orbifold of the rank-d lattice net.

    4^(d-1) sectors of dimension 2, 4^d of dimension 1, 2^(d+1) of
    dimension 2^(d/2); the squared dimensions must sum to 4^(d+1).
    """
    if d < 1:
        raise FusionError("d must be positive")
    dim2 = Zroot2(2, 0)
    dim1 = Zroot2(1, 0)
    twisted = root2_power(d)
    counts = (4 ** (d - 1), 4 ** d, 2 ** (d + 1))
    mu = (
        (dim2 * dim2).scale(counts[0])
        + (dim1 * dim1).scale(counts[1])
        + (twisted * twisted).scale(counts[2])
    )
    return Census(
        d,
        counts[0],
        counts[1],
        counts[2],
        dim2,
        dim1,
        twisted,
        mu,
        mu == Zroot2(4 ** (d + 1), 0),
    )


# ---------------------------------------------------------------------------
# framed structure

Label = Tuple[Fraction, ...]
ISING_LABELS = (Fraction(0), HALF, SIXTEENTH)


class FramedStructure(NamedTuple):
    num_factors: int
    k: int
    l: int
    sign_matrix: Tuple[Tuple[int, ...], ...]


def framed_structure(decomp: Sequence[Tuple[Label, int]]) -> FramedStructure:
    """The two-step extension data (k, l) of an Ising-labelled decomposition.

    k counts the inner labels (no 1/16 entry; each must have multiplicity
    one) as log2 of their number; l is the F2 rank of the 1/16-incidence
    patterns, and the sign matrix is their reduced row-echelon basis.
    """
    if not decomp:
        raise FusionError("empty decomposition")
    num_factors = len(decomp[0][0])
    vacuum = tuple([Fraction(0)] * num_factors)
    mults = {tuple(label): mult for label, mult in decomp}
    if mults.get(vacuum) != 1:
        raise FusionError("decomposition must contain the all-0 label once")
    inner = 0
    patterns = set()
    for label, mult in decomp:
        if len(label) != num_factors:
            raise FusionError("label lengths differ")
        pattern = tuple(1 if e == SIXTEENTH else 0 for e in label)
        if any(pattern):
            patterns.add(pattern)
        else:
            if mult != 1:
                raise FusionError(f"inner label {label} has multiplicity {mult}")
            inner += 1
    k = inner.bit_length() - 1
    if 1 << k != inner:
        raise FusionError(f"inner label count {inner} is not a power of two")
    matrix = tuple(tuple(row) for row in _rref_f2([list(p) for p in patterns]))
    return FramedStructure(num_factors, k, len(matrix), matrix)


def framed_from_code(G: Z4Code) -> FramedStructure:
    """The framed data (k, l) of the lattice net with quotient code G.

    Equal to framed_structure(ising_decomposition(G)), read off G's
    two-layer basis without expanding a single label.  Each symbol of a
    word branches as in ising_decomposition, 0 -> (0,0), (1/2,1/2);
    2 -> (0,1/2), (1/2,0); 1, 3 -> (1/16,1/16).  So:

    - a label without a 1/16 entry comes from a word of G in 2*Z4^d;
    - each such word gives 2^d labels, and distinct words give distinct
      labels, because (0,0) and (1/2,1/2) mark a 0 while (0,1/2) and
      (1/2,0) mark a 2.  So every inner multiplicity is 1 and
      k = d + dim(G cap 2*Z4^d), the number of doubled basis rows;
    - the 1/16 pattern of a label is the doubled mod-2 support of its
      word, so the patterns are the nonzero words of G mod 2 with each
      coordinate doubled, and l = dim(G mod 2), the number of unit rows.

    Since log2|G| = l + dim(G cap 2*Z4^d), k + l = d + log2|G|, which is
    2d (index 1) when |G| = 2^d, as for the delta code of a self-dual code.
    The sign matrix is the reduced row-echelon basis of the patterns.
    """
    basis = _rref_f2([[a % 2 for a in u] for u in G._unit_rows])
    matrix = tuple(tuple(b for b in row for _ in range(2)) for row in basis)
    return FramedStructure(2 * G.length, G.length + len(G._two_rows), len(matrix), matrix)


_BRANCH_OPTIONS = {
    0: ((Fraction(0), Fraction(0)), (HALF, HALF)),
    1: ((SIXTEENTH, SIXTEENTH),),
    2: ((Fraction(0), HALF), (HALF, Fraction(0))),
    3: ((SIXTEENTH, SIXTEENTH),),
}

DECOMP_LIMIT = 1 << 22


def ising_decomposition(G: Z4Code) -> List[Tuple[Label, int]]:
    """Decomposition of the lattice net over 2d Ising factors.

    Each Z4 symbol branches per the character identities: 0 -> (0,0) and
    (1/2,1/2); 2 -> (0,1/2) and (1/2,0); 1 and 3 -> (1/16,1/16).  So a
    codeword expands to at most 2^d labels, and codes whose bound
    exceeds DECOMP_LIMIT are refused before any expansion.
    """
    if len(G) << G.length > DECOMP_LIMIT:
        raise FusionError("decomposition too large to expand")
    counts: Dict[Label, int] = {}
    for w in G.codewords():
        for choice in product(*(_BRANCH_OPTIONS[s] for s in w)):
            label = tuple(e for pair in choice for e in pair)
            counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items())
