"""Exact formal q-series on the 1/48 exponent grid.

All exponents are integer multiples of 1/48 and coefficients are
arbitrary precision Python ints.  Every series carries a truncation
order: exponents >= order are unknown, exponents < order are exact.
Orders propagate pessimistically through multiplication so a retained
coefficient is never polluted by discarded terms.  Only this module knows
the storage, numerators over 48 as the keys of a dict `terms` and as
`order`; callers pass and read exponents as ints or Fractions.

The two sides of Jacobi's triple product are one routine each over an
arithmetic progression: every infinite product is `product_form`, and
every theta sum is `theta_form`.  A sign flip q^{1/2} -> -q^{1/2} is one
split, `QSeries.half_steps`, into the terms an even and an odd number of
half-steps above a base exponent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

DEN = 48

ExpLike = Union[int, Fraction]


class GridError(ValueError):
    """An exponent left the 1/48 grid."""


def to_num(e: ExpLike) -> int:
    """Convert an exponent (int or Fraction) to its numerator over 48."""
    f = Fraction(e)
    num = f * DEN
    if num.denominator != 1:
        raise GridError(f"exponent {f} is not a multiple of 1/{DEN}")
    return int(num)


def order_above(lowest: ExpLike, steps: int) -> Fraction:
    """The order that keeps a series exact `steps` q-steps above q^lowest."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return Fraction(to_num(lowest) + steps * DEN + 1, DEN)


class QSeries:
    """Immutable truncated series sum_e c_e q^e with e on the 1/48 grid."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[int, int], order: int):
        self.terms = {n: c for n, c in terms.items() if c != 0 and n < order}
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: ExpLike) -> "QSeries":
        return cls({}, to_num(order))

    @classmethod
    def one(cls, order: ExpLike) -> "QSeries":
        return cls({0: 1}, to_num(order))

    # -- inspection ---------------------------------------------------

    def _lowest(self) -> int:
        """Numerator of the lowest stored exponent; the order if empty."""
        return min(self.terms) if self.terms else self.order

    def coeff(self, exponent: ExpLike) -> int:
        n = to_num(exponent)
        if n >= self.order:
            raise ValueError(f"exponent {Fraction(n, DEN)} beyond order {Fraction(self.order, DEN)}")
        return self.terms.get(n, 0)

    def items(self):
        """(exponent, coefficient) of every nonzero term, by exponent."""
        return [(Fraction(n, DEN), c) for n, c in sorted(self.terms.items())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def agrees_with(self, other: "QSeries") -> bool:
        """Termwise equality up to the smaller of the two orders."""
        return self.first_difference(other) is None

    def first_difference(self, other: "QSeries") -> Optional[Fraction]:
        """Lowest exponent below both orders where the two disagree, or None."""
        o = min(self.order, other.order)
        diff = [n for n in set(self.terms) | set(other.terms)
                if n < o and self.terms.get(n, 0) != other.terms.get(n, 0)]
        return Fraction(min(diff), DEN) if diff else None

    def __repr__(self) -> str:
        parts = [f"{c}*q^({e})" for e, c in self.items()[:6]]
        if len(self.terms) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body}; order<{Fraction(self.order, DEN)})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms.get(n, 0) + c
        return QSeries(terms, order)

    def __neg__(self) -> "QSeries":
        return QSeries({n: -c for n, c in self.terms.items()}, self.order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        order = min(self.order + other._lowest(), other.order + self._lowest())
        terms: dict = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                n = n1 + n2
                if n < order:
                    terms[n] = terms.get(n, 0) + c1 * c2
        return QSeries(terms, order)

    def scale(self, c: int) -> "QSeries":
        return QSeries({n: c * v for n, v in self.terms.items()}, self.order)

    def half(self) -> "QSeries":
        """Divide by 2, asserting every coefficient is even."""
        out = {}
        for n, c in self.terms.items():
            if c % 2 != 0:
                raise ValueError(f"odd coefficient {c} at exponent {Fraction(n, DEN)}")
            out[n] = c // 2
        return QSeries(out, self.order)

    def shift(self, exponent: ExpLike) -> "QSeries":
        """Multiply by q^exponent."""
        s = to_num(exponent)
        return QSeries({n + s: c for n, c in self.terms.items()}, self.order + s)

    def half_steps(self, base: ExpLike) -> Tuple["QSeries", "QSeries"]:
        """Split into the terms an even and an odd number of half-steps above q^base.

        Both parts keep this series' order.  A term off the lattice
        base + Z/2 raises GridError.
        """
        b, half_step = to_num(base), DEN // 2
        parts: Tuple[dict, dict] = ({}, {})
        for n, c in self.terms.items():
            steps, off = divmod(n - b, half_step)
            if off:
                raise GridError(
                    f"exponent {Fraction(n, DEN)} is not a half-step above {Fraction(b, DEN)}"
                )
            parts[steps % 2][n] = c
        return QSeries(parts[0], self.order), QSeries(parts[1], self.order)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "den": DEN,
            "terms": [[n, str(c)] for n, c in sorted(self.terms.items())],
            "order_num": self.order,
        }


def product_form(first: ExpLike, step: ExpLike, power: int, order: ExpLike) -> QSeries:
    """Expand prod_{n>=0} (1 - q^{first + n*step})^power exactly below `order`.

    first and step must be positive.  Each factor is expanded by the
    binomial series, which ends at k = power when power >= 0; a factor
    whose exponent is >= order contributes nothing and is omitted.
    """
    first_num, step_num, order_num = to_num(first), to_num(step), to_num(order)
    if first_num <= 0 or step_num <= 0:
        raise ValueError(f"progression {first}, {step} must be positive")
    result = QSeries.one(order)
    for e_num in range(first_num, order_num, step_num):
        factor_terms = {0: 1}
        coeff = 1  # (-1)^k C(power, k); k C(p, k) = (p - k + 1) C(p, k - 1) exactly
        k = 1
        while k * e_num < order_num:
            coeff = -coeff * (power - k + 1) // k
            factor_terms[k * e_num] = coeff
            if power >= 0 and k >= power:
                break
            k += 1
        result = result * QSeries(factor_terms, order_num)
    return result


def theta_form(first: ExpLike, step: ExpLike, scale: ExpLike, order: ExpLike) -> QSeries:
    """Sum over x in first + step*Z of q^{scale * x^2}, exact below `order`.

    step and scale must be positive.  The walk goes out both ways from the
    least nonnegative member until the exponent reaches `order`; an
    exponent it meets off the 1/48 grid raises GridError.
    """
    step, scale, order_num = Fraction(step), Fraction(scale), to_num(order)
    if step <= 0 or scale <= 0:
        raise ValueError(f"step {step} and scale {scale} must be positive")
    start = Fraction(first) % step
    terms: dict = {}
    for x, dx in ((start, step), (start - step, -step)):
        while (n := to_num(scale * x * x)) < order_num:
            terms[n] = terms.get(n, 0) + 1
            x += dx
    return QSeries(terms, order_num)


def eta_power(k: int, order: ExpLike) -> QSeries:
    """(q^{1/24} prod_{n>=1} (1-q^n))^k, exact below `order`."""
    shift = Fraction(k, 24)
    return product_form(1, 1, k, Fraction(order) - shift).shift(shift)


def eisenstein_e4(order: ExpLike) -> QSeries:
    """E4 = 1 + 240 sum_{n>=1} sigma_3(n) q^n, exact below `order`.

    sigma_3 comes from a divisor sieve: each t adds t^3 to its multiples.
    """
    order_num = to_num(order)
    top = -(-order_num // DEN)  # the integer exponents below order
    sigma3 = [0] * top
    for t in range(1, top):
        for n in range(t, top, t):
            sigma3[n] += t ** 3
    terms = {n * DEN: 240 * s for n, s in enumerate(sigma3)}
    terms[0] = 1
    return QSeries(terms, order_num)
