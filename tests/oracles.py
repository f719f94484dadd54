"""Product expansions shared by the series, character and orbifold tests,
coded independently of framednet.qseries.product_form, and codes shared by
the acceptance and fusion tests.
"""

import math

from framednet.codes import BinaryCode
from framednet.qseries import DEN, QSeries


def gen_binom(power, k):
    """Generalized binomial coefficient C(power, k) for any integer power."""
    num = 1
    for i in range(k):
        num *= power - i
    return num // math.factorial(k)


def binomial_product_coeffs(sign, power, exps, n2_max):
    """Coefficients of prod (1 + sign*q^e)^power over the given exponents
    (doubled to stay integral), each factor expanded by the generalized
    binomial series and convolved with plain dict arithmetic."""
    acc = {0: 1}
    for e2 in exps:
        factor = {}
        k = 0
        while k * e2 <= n2_max and (power < 0 or k <= power):
            factor[k * e2] = gen_binom(power, k) * sign ** k
            k += 1
        nxt = {}
        for a, ca in acc.items():
            for b, cb in factor.items():
                if a + b <= n2_max:
                    nxt[a + b] = nxt.get(a + b, 0) + ca * cb
        acc = nxt
    return acc


def product_oracle(sign, power, half, order_num):
    """prod_{n>=1} (1 + sign*q^{e_n})^power exact below q^(order_num/48), with
    e_n = n - 1/2 if `half` else n, from binomial_product_coeffs."""
    n2_max = (order_num - 1) // (DEN // 2)  # largest doubled exponent below the order
    exps = range(1 if half else 2, n2_max + 1, 2)
    coeffs = binomial_product_coeffs(sign, power, exps, n2_max)
    return QSeries({n2 * (DEN // 2): c for n2, c in coeffs.items()}, order_num)


def _d16_plus():
    """d16+: the blocks 1111 at pair offsets 0-12 and the glue 0101...01.

    The Milnor partner of h8+h8: the same weight enumerator, so the same
    characters, but a different pair profile."""
    rows = [[1 if 2 * i <= j < 2 * i + 4 else 0 for j in range(16)] for i in range(7)]
    return BinaryCode(16, rows + [[0, 1] * 8])
