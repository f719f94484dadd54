"""Sector bookkeeping of the framed nets.

This module covers simple current extension admissibility and index
arithmetic, the orbifold's sectors, and the two-step framed-structure
data (k, l).

The orbifold's sectors are read off x -> -x on Z4^d: the census counts
them in integers (the squared dimensions 4, 1 and 2^d are integers), and
the branching graph draws each sector's edges from its label.

The extension of Z4^d by a Z4 code H is bookkeeping over Z4 arithmetic
that `codes` does on packed rows: the weight check on H's generators and
their pairs, and the orders of the surviving sectors H-perp / H =
Z4^a x Z2^b.  Integral weights make H isotropic, so H-perp is not built.
Every size is 2^log2_size.  No codeword of H is listed, and no symbol is
summed here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .codes import BinaryCode, Z4Code, non_integral_element, quotient_orders

Element = Tuple[int, ...]
HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)


class FusionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# simple current extensions of Z4^d


class ExtensionResult(NamedTuple):
    allowed: bool
    mu_before: int
    mu_after: Fraction
    quotient_orders: Optional[Tuple[int, ...]]
    offending: Optional[Element] = None


def simple_current_extension(H: Z4Code) -> ExtensionResult:
    """Admissibility and index bookkeeping of the extension of Z4^d by H,
    d = H.length.

    Allowed iff every element of H has integer weight (spin 1); then the
    mu-index 4^d drops by |H|^2 and the surviving sectors form H-perp / H,
    reported by the orders of its cyclic factors.  Sizes come from
    basis-row counts, so no codeword is enumerated.

    An allowed H is isotropic, so H <= H-perp needs no check: h(x) = sum
    x_i^2 / 8 has polar form b(x, y) = h(x + y) - h(x) - h(y), and h is 0
    mod 1 on H, so b is 0 mod 1 on every pair of elements of H.
    """
    mu_before = 4 ** H.length
    offending = non_integral_element(H)
    orders = quotient_orders(H) if offending is None else None
    mu_after = Fraction(mu_before, 1 << (2 * H.log2_size))
    return ExtensionResult(offending is None, mu_before, mu_after, orders, offending)


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
# the orbifold's sectors, read off x -> -x on Z4^d


class Census(NamedTuple):
    """Sector counts of the order-2 orbifold at rank d, by dimension 2, 1
    and sqrt(2)^d, with mu_balance the sum of their squared dimensions."""

    d: int
    dim2_count: int
    dim1_count: int
    twisted_count: int
    mu_balance: int
    balanced: bool

    def total_sectors(self) -> int:
        return self.dim2_count + self.dim1_count + self.twisted_count


def orbifold_census(d: int) -> Census:
    """Sector census of the order-2 orbifold of the rank-d lattice net.

    The orbifold acts on the sectors Z4^d of the lattice net by x -> -x,
    which fixes the 2^d words in {0, 2}^d.  Each fixed word splits into two
    sectors (+-) of dimension 1, each orbit {x, -x} of the other words is
    one sector of dimension 2, and the twisted sectors are +- over 2^d
    solitons, of dimension sqrt(2)^d.  The squared dimensions 4, 1 and 2^d
    must sum to 4^(d+1), the index rule mu(A^sigma) = 4 mu(A).
    """
    if d < 1:
        raise FusionError("d must be positive")
    fixed = 2 ** d
    dim2, dim1, twisted = (4 ** d - fixed) // 2, 2 * fixed, 2 * fixed
    mu = 4 * dim2 + dim1 + fixed * twisted
    return Census(d, dim2, dim1, twisted, mu, mu == 4 ** (d + 1))


def emit_branching_graph(d: int) -> str:
    """DOT graph of the orbifold's sectors at rank d over the sectors of
    the lattice net they induce to; empty at d = 0.

    Nodes follow orbifold_census: the words x of Z4^d (up, "A:x", written
    as base-4 numerals, so up<i> is the word numbered i), the solitons chi
    in Z2^d (sol, "S:chi"), and below them the sectors.  Every edge is read
    off a sector's label: the orbit {x, -x} goes to up x and up -x, a fixed
    word with a sign (x, +-) to up x, and a twisted sector (chi, +-) to
    the soliton chi.
    """
    if d < 0:
        raise FusionError("d must be nonnegative")
    lines = ["digraph branching {", "  rankdir=BT;"]
    if d:
        words = ["".join(w) for w in product("0123", repeat=d)]
        solitons = ["".join(s) for s in product("01", repeat=d)]
        # -a mod 4 flips the high bit of a 2-bit digit a iff its low bit is set
        low = int("01" * d, 2)
        negated = [(i, i ^ (i & low) << 1) for i in range(len(words))]
        orbits = [(i, j) for i, j in negated if i < j]
        signed = [(i, s) for i, j in negated if i == j for s in "+-"]
        twisted = [(c, s) for c in range(len(solitons)) for s in "+-"]
        lines += [f'  up{i} [shape=circle, label="A:{w}"];' for i, w in enumerate(words)]
        lines += [f'  sol{c} [shape=diamond, label="S:{s}"];' for c, s in enumerate(solitons)]
        lines += [
            f'  two{n} [shape=box, label="dim2:{words[i]},{words[j]}"];'
            for n, (i, j) in enumerate(orbits)
        ]
        lines += [
            f'  one{n} [shape=box, label="dim1:{words[i]}{s}"];' for n, (i, s) in enumerate(signed)
        ]
        lines += [
            f'  tw{n} [shape=box, label="tw:{solitons[c]}{s}"];' for n, (c, s) in enumerate(twisted)
        ]
        for n, (i, j) in enumerate(orbits):
            lines += [f"  two{n} -> up{i};", f"  two{n} -> up{j};"]
        lines += [f"  one{n} -> up{i};" for n, (i, _) in enumerate(signed)]
        lines += [f"  tw{n} -> sol{c};" for n, (c, _) in enumerate(twisted)]
    lines.append("}")
    return "\n".join(lines)


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

    The inner labels (no 1/16 entry; each must have multiplicity one), read
    with 1/2 as 1, must be the words of a binary code C, and k = dim C; l is
    the F2 rank of the 1/16-incidence patterns, and the sign matrix is their
    reduced row-echelon basis.
    """
    if not decomp:
        raise FusionError("empty decomposition")
    num_factors = len(decomp[0][0])
    vacuum = tuple([Fraction(0)] * num_factors)
    mults = {tuple(label): mult for label, mult in decomp}
    if mults.get(vacuum) != 1:
        raise FusionError("decomposition must contain the all-0 label once")
    inner = set()
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
            inner.add(tuple(1 if e == HALF else 0 for e in label))
    inner_code = BinaryCode(num_factors, inner)
    if len(inner_code) != len(inner):
        raise FusionError(f"{len(inner)} inner labels span {len(inner_code)}: not a linear code")
    matrix = BinaryCode(num_factors, patterns).generators
    return FramedStructure(num_factors, inner_code.dimension, len(matrix), matrix)


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
    residue = G.residue_code()
    matrix = tuple(tuple(b for b in row for _ in range(2)) for row in residue.generators)
    k = G.length + G.log2_size - residue.dimension
    return FramedStructure(2 * G.length, k, len(matrix), matrix)


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
