"""Exact series arithmetic, checked against independently coded oracles:
a partition-counting DP for eta powers, pentagonal numbers for eta
itself, binomial-series convolution for the product forms, a windowed
sum for the theta forms, and the two sides of Jacobi's triple product.
"""

import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from framednet.qseries import (
    DEN,
    GridError,
    QSeries,
    eta_power,
    product_form,
    theta_form,
    to_num,
)
from oracles import binomial_product_coeffs, product_oracle

HALF = Fraction(1, 2)


def partition_counts(n_max):
    """p(n) by the classic DP over part sizes."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def pentagonal_coeffs(n_max):
    """Coefficients of prod (1 - q^n) by Euler's pentagonal theorem."""
    out = {0: 1}
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n_max and g2 > n_max:
            break
        sign = -1 if k % 2 else 1
        if g1 <= n_max:
            out[g1] = sign
        if g2 <= n_max:
            out[g2] = sign
        k += 1
    return out


class TestConstructors:
    def test_zero_and_one(self):
        # the order is an exponent, kept as its numerator over 48
        zero, one = QSeries.zero(10), QSeries.one(Fraction(5, 48))
        assert zero.terms == {} and zero.order == 10 * DEN
        assert one.coeff(0) == 1 and one.order == 5

    def test_off_grid_exponent_rejected(self):
        with pytest.raises(GridError):
            to_num(Fraction(1, 7))
        with pytest.raises(GridError):
            QSeries.one(100).coeff(Fraction(1, 7))

    def test_zero_coefficients_dropped(self):
        s = QSeries({0: 0, 48: 2}, 100)
        assert 0 not in s.terms and s.coeff(1) == 2


class TestArithmetic:
    def test_add_cancellation(self):
        a = QSeries.one(100)
        assert a + a.scale(-1) == QSeries.zero(100)

    def test_add_order_propagation(self):
        a = QSeries.one(5)
        b = QSeries.one(3)
        assert (a + b).order == 3 * DEN

    def test_add_mixed_lowest_terms(self):
        a = QSeries({-DEN: 1, 0: 24}, 4 * DEN)
        b = QSeries({DEN: 196884}, 4 * DEN)
        c = a + b
        assert [c.coeff(k) for k in (-1, 0, 1)] == [1, 24, 196884]

    def test_mul_identity(self):
        a = QSeries({0: 2, 48: 5}, 200)
        assert (a * QSeries.one(200)).terms == a.terms

    def test_mul_geometric_inverse(self):
        one_minus_q = QSeries({0: 1, DEN: -1}, 10 * DEN)
        geo = QSeries({k * DEN: 1 for k in range(10)}, 10 * DEN)
        prod = one_minus_q * geo
        assert prod.terms == {0: 1}

    def test_mul_order_uses_lowest_exponents(self):
        a = QSeries({-DEN: 1}, 2 * DEN)   # known below q^2, lowest q^-1
        b = QSeries({-DEN: 1}, 2 * DEN)
        assert (a * b).order == DEN       # only exact below q^1

    def test_mul_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(20):
            def rand_series():
                terms = {
                    rng.randrange(-2 * DEN, 4 * DEN): rng.randrange(-9, 10)
                    for _ in range(6)
                }
                return QSeries(terms, rng.randrange(2 * DEN, 6 * DEN))

            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a * b).agrees_with(b * a)
            assert ((a * b) * c).agrees_with(a * (b * c))

    def test_half_requires_even(self):
        assert QSeries({0: 4}, 10).half().coeff(0) == 2
        with pytest.raises(ValueError):
            QSeries({0: 3}, 10).half()

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.data())
    def test_mul_and_shift_match_a_double_loop(self, data):
        # each factor on its own grid (q^(1/48) .. q^1), from a negative
        # lowest exponent, with coefficients far beyond machine words
        def draw_series():
            step = data.draw(st.sampled_from([1, 3, 16, 24, DEN]))
            low = data.draw(st.integers(-3 * DEN, DEN))
            terms = data.draw(st.dictionaries(
                st.integers(0, 8).map(lambda k: low + k * step),
                st.integers(-(1 << 200), 1 << 200),
                max_size=8,
            ))
            return QSeries(terms, data.draw(st.integers(low - DEN, low + 4 * DEN)))

        a, b = draw_series(), draw_series()
        def lowest(x):  # numerator of the lowest term, the order if none
            return min(x.terms, default=x.order)

        order = min(a.order + lowest(b), b.order + lowest(a))
        full = {}
        for n1, c1 in a.terms.items():
            for n2, c2 in b.terms.items():
                full[n1 + n2] = full.get(n1 + n2, 0) + c1 * c2
        got = a * b
        assert got.order == order
        assert got.terms == {n: c for n, c in full.items() if n < order and c}

        # what lies at or beyond a factor's order is unknown: any tail
        # there leaves the product below its order unchanged
        def with_tail(x):
            tail = data.draw(st.dictionaries(
                st.integers(x.order, x.order + 2 * DEN), st.integers(-99, 99), max_size=4
            ))
            return QSeries({**tail, **x.terms}, x.order + 3 * DEN)

        wide = with_tail(a) * with_tail(b)
        assert wide.order >= order and QSeries(wide.terms, order) == got

        s = data.draw(st.integers(-2 * DEN, 2 * DEN))
        moved = a.shift(Fraction(s, DEN))
        assert moved.order == a.order + s
        assert moved.terms == {n + s: c for n, c in a.terms.items()}
        assert moved * b == (a * b).shift(Fraction(s, DEN))

    def test_coeff_beyond_order_raises(self):
        with pytest.raises(ValueError):
            QSeries.one(1).coeff(2)


class TestEta:
    def test_eta_zero_power(self):
        assert eta_power(0, 5).coeff(0) == 1

    def test_eta_pentagonal(self):
        e = eta_power(1, Fraction(301, 24))
        expected = pentagonal_coeffs(12)
        got = {
            (n - DEN // 24) // DEN: c
            for n, c in e.terms.items()
        }
        assert got == expected

    def test_eta_inverse_partitions(self):
        e = eta_power(-1, Fraction(287, 24))
        p = partition_counts(11)
        for n, expected in enumerate(p):
            assert e.coeff(Fraction(-1, 24) + n) == expected

    def test_eta_times_inverse_is_one(self):
        for k in range(-24, 25):
            prod = eta_power(k, 4) * eta_power(-k, 4)
            assert prod.terms == {0: 1}, f"k={k}"


class TestProductForm:
    def test_power_zero(self):
        assert product_form(1, 2, 0, 6).terms == {0: 1}

    def test_progression_must_be_positive(self):
        for first, step in [(0, 1), (-HALF, 1), (1, 0), (1, -1)]:
            with pytest.raises(ValueError):
                product_form(first, step, 1, 6)

    def test_negative_power_integer_kind(self):
        # prod (1 + q^n)^-24 = prod (1 - q^{2n-1})^24
        got = product_form(1, 2, 24, 6)
        oracle = binomial_product_coeffs(1, -24, [2 * n for n in range(1, 7)], 10)
        for n2, c in oracle.items():
            assert got.coeff(Fraction(n2, 2)) == c
        assert [got.coeff(k) for k in range(4)] == [1, -24, 276, -2048]

    def test_negative_power_half_kind(self):
        got = product_form(HALF, 1, -24, 4)
        oracle = binomial_product_coeffs(-1, -24, [2 * n - 1 for n in range(1, 5)], 7)
        for n2, c in oracle.items():
            assert got.coeff(Fraction(n2, 2)) == c
        for e, c in [(Fraction(1, 2), 24), (1, 300), (Fraction(3, 2), 2624)]:
            assert got.coeff(e) == c

    # Each id names the product that the oracle expands factor by factor;
    # production reaches it through the progressions (1, 1), (1/2, 1) and
    # (1, 2): 1 + q^n by Euler's prod (1 + q^n) = prod (1 - q^{2n-1})^{-1},
    # and 1 + q^{n-1/2} as the half-step sign flip of 1 - q^{n-1/2}.
    PRODUCTS = {
        "1-q^n": (-1, False, lambda p, o: product_form(1, 1, p, o)),
        "1+q^n": (1, False, lambda p, o: product_form(1, 2, -p, o)),
        "1-q^{n-1/2}": (-1, True, lambda p, o: product_form(HALF, 1, p, o)),
        "1+q^{n-1/2}": (1, True, lambda p, o: _flip(product_form(HALF, 1, p, o))),
    }

    @pytest.mark.parametrize("kind", list(PRODUCTS))
    @pytest.mark.parametrize("power", [-24, -8, -1, 0, 1, 3, 8])
    @pytest.mark.parametrize(
        # at or below 0, off the step grid, and about 30 q-steps deep
        "order", [-1, 0, Fraction(1, 48), Fraction(37, 48), 30, Fraction(61, 2)], ids=str
    )
    def test_matches_binomial_oracle(self, kind, power, order):
        sign, half, production = self.PRODUCTS[kind]
        assert production(power, order) == product_oracle(sign, power, half, to_num(order))

    def test_power_additivity_random(self):
        rng = random.Random(3)
        for _ in range(8):
            first, step = rng.choice(((1, 1), (HALF, 1), (1, 2)))
            p1, p2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
            a = product_form(first, step, p1, 4)
            b = product_form(first, step, p2, 4)
            both = product_form(first, step, p1 + p2, 4)
            assert (a * b).agrees_with(both), (first, step, p1, p2)


def window_theta(first, step, scale, order):
    """sum over x in first + step*Z of q^{scale x^2} below order, by a fixed
    window of members around 0."""
    first, step, scale = Fraction(first), Fraction(step), Fraction(scale)
    terms = {}
    for k in range(-300, 301):
        e = scale * (first + k * step) ** 2
        if e < Fraction(order):
            terms[to_num(e)] = terms.get(to_num(e), 0) + 1
    return QSeries(terms, to_num(order))


class TestThetaForm:
    @pytest.mark.parametrize(
        "first, step, scale",
        [
            (0, 1, HALF),
            (1, 4, Fraction(1, 8)),  # the rank-one sectors
            (-3, 4, Fraction(1, 8)),
            (6, 4, Fraction(1, 8)),
            (HALF, 2, Fraction(1, 4)),  # the lattice cosets
            (Fraction(-5, 2), 4, Fraction(1, 4)),
            (5, 12, Fraction(1, 24)),  # eta's pentagonal sum
            (Fraction(1, 3), Fraction(2, 3), Fraction(3, 16)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("order", [-1, 0, Fraction(1, 48), Fraction(7, 3), 30], ids=str)
    def test_matches_a_window_sum(self, first, step, scale, order):
        assert theta_form(first, step, scale, order) == window_theta(first, step, scale, order)

    @pytest.mark.parametrize("step, scale", [(0, 1), (-4, 1), (4, 0), (4, Fraction(-1, 8))])
    def test_step_and_scale_must_be_positive(self, step, scale):
        with pytest.raises(ValueError):
            theta_form(1, step, scale, 5)

    def test_off_grid_exponent_rejected(self):
        with pytest.raises(GridError):
            theta_form(1, 1, Fraction(1, 96), 5)
        with pytest.raises(GridError):
            theta_form(0, 1, HALF, Fraction(1, 96))
        # 4 x^2 / 96 stays on the grid for every even x
        assert theta_form(0, 2, Fraction(1, 96), 1).coeff(Fraction(1, 24)) == 2

    @pytest.mark.parametrize(
        "order", [0, Fraction(1, 24), Fraction(25, 24), 40, Fraction(301, 3)], ids=str
    )
    def test_pentagonal_theorem(self, order):
        # eta = sum over n > 0 of chi(n) q^{n^2/24}, where chi is 1 at
        # n = +-1 and -1 at n = +-5 (mod 12)
        lhs = theta_form(1, 12, Fraction(1, 24), order) - theta_form(5, 12, Fraction(1, 24), order)
        assert lhs == eta_power(1, order)

    @pytest.mark.parametrize("order", [0, HALF, 1, 17, Fraction(81, 2)], ids=str)
    def test_jacobi_triple_product(self, order):
        # sum_n (+-1)^n q^{n^2/2} = prod (1 - q^n) (1 +- q^{n-1/2})^2, the sign
        # flip of prod (1 - q^{n-1/2})^2 being its half-step split
        even, odd = product_form(HALF, 1, 2, order).half_steps(0)
        euler = product_form(1, 1, 1, order)
        plus = theta_form(0, 1, HALF, order)
        minus = theta_form(0, 2, HALF, order) - theta_form(1, 2, HALF, order)
        assert plus == euler * (even - odd)
        assert minus == euler * (even + odd)


def _flip(x):
    """q^{1/2} -> -q^{1/2} on a series in whole half-steps."""
    even, odd = x.half_steps(0)
    return even - odd


class TestHalfSteps:
    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_parts_sum_to_the_whole(self, data):
        base = data.draw(st.integers(-2 * DEN, 2 * DEN))
        steps = data.draw(st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=8))
        order = data.draw(st.integers(base - DEN, base + 8 * DEN))
        x = QSeries({base + m * (DEN // 2): c for m, c in steps.items()}, order)
        even, odd = x.half_steps(Fraction(base, DEN))
        assert even.order == odd.order == x.order
        assert even + odd == x
        assert all((n - base) % DEN == 0 for n in even.terms)
        assert all((n - base) % DEN == DEN // 2 for n in odd.terms)

    def test_off_the_half_step_lattice_rejected(self):
        x = QSeries({0: 1, DEN // 2: 2, DEN // 3: 5}, 2 * DEN)
        with pytest.raises(GridError):
            x.half_steps(0)
        with pytest.raises(GridError):
            QSeries({DEN: 1}, 2 * DEN).half_steps(Fraction(1, 48))


def scale_exponents(a, factor):
    """Substitute q -> q^factor; every scaled exponent must stay on the grid."""
    f = Fraction(factor)
    if f not in (Fraction(1, 2), Fraction(2)):
        raise ValueError(f"unsupported scale factor {f}")
    terms = {}
    for n, c in a.terms.items():
        m = Fraction(n) * f
        if m.denominator != 1:
            raise GridError(f"exponent {Fraction(n, DEN)} leaves the grid under q -> q^{f}")
        terms[int(m)] = c
    order = Fraction(a.order) * f
    if order.denominator != 1:
        # tighten to the nearest representable bound
        order = Fraction(int(order))
    return QSeries(terms, int(order))


class TestScaleExponents:
    def test_identity_on_one(self):
        assert scale_exponents(QSeries.one(100), 2).coeff(0) == 1

    def test_exponent_doubling(self):
        m = QSeries({to_num(Fraction(1, 24)): 1}, 100)
        assert scale_exponents(m, 2).coeff(Fraction(1, 12)) == 1

    def test_off_grid_rejected(self):
        m = QSeries({1: 1}, 100)
        with pytest.raises(GridError):
            scale_exponents(m, Fraction(1, 2))

    def test_product_doubling_identity(self):
        # prod (1+q^n) * prod (1-q^n) = prod (1-q^{2n})
        lhs = product_form(1, 2, -1, 10) * product_form(1, 1, 1, 10)
        rhs = scale_exponents(product_form(1, 1, 1, 5), 2)
        assert lhs.agrees_with(rhs)


class TestSerialization:
    def test_round_trip(self):
        s = QSeries({-48: 1, 0: 24, 48: 196884}, 4 * DEN)
        doc = s.to_json_dict()
        assert doc["den"] == DEN
        assert all(isinstance(c, str) for _, c in doc["terms"])
        back = json.loads(json.dumps(doc))
        assert QSeries({n: int(c) for n, c in back["terms"]}, back["order_num"]) == s

    def test_terms_sorted(self):
        s = QSeries({96: 1, -48: 2}, 200)
        assert s.to_json_dict()["terms"] == [[-48, "2"], [96, "1"]]
