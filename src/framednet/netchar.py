"""Characters of the building-block nets and of the lattice nets.

The Ising and U(1)_4 building blocks are plain series; a NetCharacter,
series and central charge d, is only ever a whole net's vacuum character.
Two independent routes to the lattice-net vacuum character are kept side
by side: the frame route, a theta sum over the binary code's words
counted by their pair weights and divided once by eta^d (primary), and
the lattice theta series divided by eta^d, a polynomial in the E8
character E4 / eta^8 fitted as a modular form (oracle).
Cross agreement of the two is part of the acceptance suite.  That
completion, from the first d/24 + 1 coefficients of a weight-d/2 form,
is one helper, which the orbifold vacuum character uses too.  A third,
`lattice_net_char`, sums the Z4 code's enumerated weight profile and
serves the tests as an oracle of the frame route.  All three reduce to
one kernel, a sum of products of powers of a few series, each series
built from the theta sums `qseries.theta_form` and products `product_form`.
Orders and exponents go to and come from qseries as ints or Fractions
(`order_above`, `coeff`, `items`); how a series is stored is qseries' alone.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from fractions import Fraction
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .codes import BinaryCode, Z4Code, check_holomorphic_hypotheses, check_lattice_hypotheses
from .qseries import (
    ExpLike, QSeries, eisenstein_e4, eta_power, order_above, product_form, theta_form
)

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)

U14_WEIGHTS = (Fraction(0), Fraction(1, 8), HALF, Fraction(1, 8))


class NetCharacter(NamedTuple):
    """A specialized character: q-expansion plus central charge."""

    series: QSeries
    central_charge: Fraction


def ising_char(h, steps: int = 5) -> QSeries:
    """Character of the c = 1/2 sector of weight h in {0, 1/2, 1/16}.

    chi_{1/16} = q^{1/24} prod(1+q^n) = q^{1/24} prod(1-q^{2n-1})^{-1}
    (distinct parts are odd parts).  chi_0 and chi_{1/2} are the halved
    sum and difference of q^{-1/48} prod(1 +- q^{n-1/2}), so they are the
    terms of q^{-1/48} prod(1-q^{n-1/2}) an even number of half-steps
    above q^{-1/48}, and minus the odd ones.
    """
    h = Fraction(h)
    c24 = Fraction(1, 48)
    order = order_above(h - c24, steps)
    if h == SIXTEENTH:
        series = product_form(1, 2, -1, order - Fraction(1, 24)).shift(Fraction(1, 24))
    elif h in (Fraction(0), HALF):
        even, odd = product_form(HALF, 1, 1, order + c24).shift(-c24).half_steps(-c24)
        series = even if h == 0 else -odd
    else:
        raise ValueError(f"no Ising sector of weight {h}")
    return series


def u14_sector_char(j: int, steps: int = 5) -> QSeries:
    """Character of the rank-one net's sector j in Z4 (c = 1).

    chi_j = eta^{-1} * sum over n = j mod 4 of q^{n^2/8}, kept `steps`
    q-steps above its own leading term.
    """
    j %= 4
    c24 = Fraction(1, 24)
    order = order_above(U14_WEIGHTS[j] - c24, steps)
    theta = theta_form(j, 4, Fraction(1, 8), order + c24)
    return theta * eta_power(-1, order + U14_WEIGHTS[j])


def ising_branching_mismatch(steps: int = 8) -> Optional[Fraction]:
    """First exponent where a branching identity fails, or None if all hold.

    The identities relate the rank-one sectors to Ising pairs:
    chi^A_0 = chi_0^2 + chi_{1/2}^2, chi^A_2 = 2 chi_0 chi_{1/2},
    chi^A_1 = chi^A_3 = chi_{1/16}^2.
    """
    chi0, chih, chis = (ising_char(h, steps + 1) for h in (0, HALF, SIXTEENTH))
    pairs = [
        (u14_sector_char(0, steps), chi0 * chi0 + chih * chih),
        (u14_sector_char(2, steps), (chi0 * chih).scale(2)),
        (u14_sector_char(1, steps), chis * chis),
        (u14_sector_char(3, steps), chis * chis),
    ]
    diffs = (lhs.first_difference(rhs) for lhs, rhs in pairs)
    return next((e for e in diffs if e is not None), None)


def _sum_of_products(
    enumerator: Mapping[Tuple[int, ...], int], bases: Sequence[QSeries], order: ExpLike
) -> QSeries:
    """Sum of count * prod_i bases[i]**k_i over the entries (k, count).

    The powers of each base come from one memoized ladder: power k is
    power k // 2 squared, times the base when k is odd.  So every exponent
    of a base reuses the squarings of the others, and an odd step
    multiplies by the sparse base rather than by a dense power.  A
    product's truncation order is its lowest exponent plus the smaller
    relative precision of its factors, so power k has the order of the
    plain k-fold product of the base, however the ladder groups it.
    Every term must be exact below `order`, where the sum is cut.
    """

    @lru_cache(maxsize=None)
    def power(i: int, k: int) -> QSeries:
        if k == 1:
            return bases[i]
        if k % 2:
            return power(i, k - 1) * bases[i]
        half = power(i, k // 2)
        return half * half

    total = QSeries.zero(order)
    for ks, count in enumerator.items():
        factors = [power(i, k) for i, k in enumerate(ks) if k]
        term = reduce(operator.mul, factors) if factors else QSeries.one(order)
        total = total + term.scale(count)
    return total


def frame_char(code: BinaryCode, variant: str, steps: int = 5) -> NetCharacter:
    """Vacuum character of the lattice net of `code` over its Ising frame (c = d).

    Theta_L / eta^d, with Theta_L summed over the pairs of coordinates.
    With theta_j the sum over n = j mod 4 of q^{n^2/8}, a coset
    v + {(00),(22)}^{d/2} of the Z4 code contributes the product over the
    pairs (a, b) of v of theta_a theta_b + s theta_{a+2} theta_{b+2}, the
    rank-two lattice of a pair split into its two Ising factors: s = 1 for
    L, and Ltilde, which keeps the even (22)-counts of each coset, takes
    the mean over s = 1, -1.  The cosets are v = codes._section(c) for every
    codeword c, and for Ltilde also v plus the glue word, 1 on the even
    coordinates and the last pair 32 when d = 8 (mod 16).  As
    theta_3 = theta_1, a pair 00 of c gives theta_0^2 + s theta_2^2, a
    pair 11 (1 + s) theta_0 theta_2 and a pair 10 or 01 (1 + s) theta_1^2,
    so c counts only through its pair weights (n11, m) (codes.PairProfile),
    and at s = -1 only c = 0 is left.  Shifted by the glue's pair 10, a pair 00
    or 11 of c gives theta_1 (theta_0 + s theta_2) and a pair 10 or 01 s
    times that, where m is even as c is doubly even; when d = 8 (mod 16)
    the glue's last pair, 32, multiplies its pair's term by s once more.
    So every codeword gives the same glue term.
    """
    if variant not in ("L", "Ltilde"):
        raise ValueError(f"variant must be L or Ltilde, got {variant!r}")
    d, half = code.length, code.length // 2
    profile = check_lattice_hypotheses(code).pair_profile
    th0, th1, th2 = (theta_form(j, 4, Fraction(1, 8), steps + 1) for j in range(3))
    bases = [th0 * th0 + th2 * th2, (th0 * th2).scale(2), (th1 * th1).scale(2)]
    enumerator = {(half - n11 - m, n11, m): count for (n11, m), count in profile.items()}
    if variant == "Ltilde":
        # the code at s = -1, and the glue coset at s = 1 and s = -1
        bases += [th0 * th0 - th2 * th2, th1 * (th0 + th2), th1 * (th0 - th2)]
        enumerator = {k + (0, 0, 0): count for k, count in enumerator.items()}
        sign = 1 if d % 16 == 0 else -1
        enumerator[0, 0, 0, half, 0, 0] = 1
        enumerator[0, 0, 0, 0, half, 0] = len(code)
        enumerator[0, 0, 0, 0, 0, half] = sign * len(code)
    theta = _sum_of_products(enumerator, bases, steps + 1)
    if variant == "Ltilde":
        theta = theta.half()
    return _over_eta(theta, d, steps)


def lattice_net_char(group: Z4Code, steps: int = 5) -> NetCharacter:
    """Vacuum character of the simple current extension by `group` (c = d).

    Theta / eta^d, with Theta summed over the complete weight profile,
    which enumerates `group`: sum over profiles of
    count * theta_0^{n0} theta_1^{n1} theta_2^{n2} theta_3^{n3}.
    The tests' oracle of frame_char.
    """
    thetas = [theta_form(j, 4, Fraction(1, 8), steps + 1) for j in range(4)]
    theta = _sum_of_products(group.weight_profile(), thetas, steps + 1)
    return _over_eta(theta, group.length, steps)


def _over_eta(theta: QSeries, d: int, steps: int) -> NetCharacter:
    """The vacuum character theta / eta^d, kept `steps` q-steps above
    q^{-d/24}; theta must be exact below q^{steps + 1}."""
    series = theta * eta_power(-d, order_above(Fraction(-d, 24), steps))
    _assert_vacuum(series, d)
    return NetCharacter(series, Fraction(d))


def _assert_vacuum(series: QSeries, d: int) -> None:
    terms = series.items()
    if terms[:1] != [(Fraction(-d, 24), 1)]:
        raise AssertionError(f"vacuum normalization failed: leading {series}")
    if any(c < 0 for _, c in terms):
        raise AssertionError("negative coefficient in a vacuum character")


# ---------------------------------------------------------------------------
# theta route


def theta_series(code: BinaryCode, variant: str, bound: Fraction) -> QSeries:
    """Theta series sum_v q^{<v,v>/2} of the lattice built from `code`.

    Coordinates factor through the binary weight, so the sum collapses to
    the code's weight enumerator; the mod-4 sum constraint of the second
    construction is picked out by averaging over a sign character.
    Production sums it only to fit theta_over_eta's modular form; summed
    to full order it is the tests' oracle of that route.
    """
    d = code.length
    wenum = check_lattice_hypotheses(code).weight_enumerator
    if variant not in ("L", "Ltilde"):
        raise ValueError(f"variant must be L or Ltilde, got {variant!r}")
    enumerator = {(d - w, w): count for w, count in wenum.items()}
    quarter = Fraction(1, 4)

    def plain(x: Fraction) -> QSeries:  # sum over y in x + 2Z of q^{y^2/4}
        return theta_form(x, 2, quarter, bound)

    def signed(x: Fraction) -> QSeries:  # the same with sign (-1)^{(y - x)/2}
        return theta_form(x, 4, quarter, bound) - theta_form(x + 2, 4, quarter, bound)

    def lattice_sum(coset, residue: Fraction) -> QSeries:
        bases = [coset(residue), coset(residue + 1)]
        return _sum_of_products(enumerator, bases, bound)

    if variant == "L":
        return lattice_sum(plain, Fraction(0))
    # unshifted part: the 2Z-parts constrained to 4Z, via a sign average;
    # shifted part: coordinates offset by 1/2, constraint parity set by d mod 16
    shift_sign = 1 if d % 16 == 0 else -1
    total = lattice_sum(plain, Fraction(0)) + lattice_sum(signed, Fraction(0))
    total = total + lattice_sum(plain, HALF) + lattice_sum(signed, HALF).scale(shift_sign)
    return total.half()


def theta_over_eta(code: BinaryCode, variant: str, steps: int = 5) -> NetCharacter:
    """Independent route to the lattice-net character: Theta_L / eta^d.

    For a doubly-even self-dual code the lattice is even unimodular, so its
    theta series is a modular form of weight d/2 for SL2(Z), and
    `_holomorphic_char` completes it from its first d/24 + 1 coefficients,
    all the weight enumerator is summed for.  A code that is not self-dual
    raises CodeError.
    """
    check_holomorphic_hypotheses(code)
    d = code.length
    return _holomorphic_char(theta_series(code, variant, Fraction(d // 24 + 1)), d, steps)


def _holomorphic_char(form: QSeries, d: int, steps: int) -> NetCharacter:
    """The character form / eta^d of a holomorphic net of central charge d,
    kept `steps` q-steps above q^{-d/24}.

    `form` = ch * eta^d is a modular form of weight d/2 for SL2(Z) (Zhu), so
    form = sum over i <= d/24 of c_i E4^(d/8 - 3i) Delta^i.  Delta^i starts
    at 1 * q^i, so the c_i solve a unitriangular system in the first
    d/24 + 1 coefficients, and `form` need only be exact below
    q^{d/24 + 1}.  As Delta = eta^24, form / eta^d is the polynomial sum of
    c_i chi^(d/8 - 3i) in the E8 character chi = E4 / eta^8.
    """
    top = d // 24
    low = Fraction(top + 1)
    forms = [eisenstein_e4(low), eta_power(24, low)]
    cs: Dict[Tuple[int, int], int] = {}
    for i in range(top + 1):
        fit = _sum_of_products(cs, forms, low)
        cs[d // 8 - 3 * i, i] = form.coeff(i) - fit.coeff(i)
    bound = Fraction(steps + 1)
    chi = eisenstein_e4(bound) * eta_power(-8, bound - Fraction(1, 3))
    powers = {(k,): c for (k, _), c in cs.items()}
    series = _sum_of_products(powers, [chi], order_above(Fraction(-d, 24), steps))
    _assert_vacuum(series, d)
    return NetCharacter(series, Fraction(d))
