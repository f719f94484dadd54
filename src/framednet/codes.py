"""Binary linear codes and the Z4-codes of the two lattice constructions.

Each binary code is enumerated once, when it is certified: one Gray-code
sweep over its words packed as two ints, the bit planes of its even and
of its odd coordinates, counts the words by the kinds of their
coordinate pairs.  That count yields both the weight enumerator and the
pair types of the frame route.

Code files are plain text, one generator per line, symbols 0/1 for binary
codes and 0-3 for Z4 codes, with ``#`` comments.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Vector = Tuple[int, ...]
Profile = Tuple[int, int, int, int]
# binary codewords counted by (n11, n10, n01, last): n_xy pairs of
# coordinates (2i, 2i+1) read xy, and last = 2x + y for the last pair
PairProfile = Dict[Tuple[int, int, int, int], int]

ENUM_LIMIT = 1 << 26


class CodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# binary codes


def _rref_f2(rows: List[List[int]]) -> List[List[int]]:
    """Reduced row echelon form over F2; zero rows dropped."""
    rows = [r[:] for r in rows]
    d = len(rows[0]) if rows else 0
    out: List[List[int]] = []
    pivots: List[int] = []
    for r in rows:
        for piv, b in zip(pivots, out):
            if r[piv]:
                r = [a ^ c for a, c in zip(r, b)]
        if any(r):
            p = r.index(1)
            # clear this column in earlier rows
            out = [[a ^ c for a, c in zip(b, r)] if b[p] else b for b in out]
            out.append(r)
            pivots.append(p)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order]


class BinaryCode:
    """Linear code over F2 given by a generator matrix (stored reduced)."""

    def __init__(self, length: int, generators: Iterable[Sequence[int]]):
        gens = [list(g) for g in generators]
        for g in gens:
            if len(g) != length or any(b not in (0, 1) for b in g):
                raise CodeError(f"bad binary generator of length {len(g)}")
        self.length = length
        self.generators: Tuple[Vector, ...] = tuple(
            tuple(r) for r in _rref_f2(gens)
        )
        self._report: Optional[CodeReport] = None

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def codewords(self) -> Iterator[Vector]:
        if 1 << self.dimension > ENUM_LIMIT:
            raise CodeError("code too large to enumerate")
        for coeffs in product((0, 1), repeat=self.dimension):
            w = [0] * self.length
            for c, g in zip(coeffs, self.generators):
                if c:
                    w = [a ^ b for a, b in zip(w, g)]
            yield tuple(w)

    def __contains__(self, v: Sequence[int]) -> bool:
        r = list(v)
        for g in self.generators:
            p = g.index(1)
            if r[p]:
                r = [a ^ b for a, b in zip(r, g)]
        return not any(r)

    def __len__(self) -> int:
        return 1 << self.dimension

    def __repr__(self) -> str:
        return f"BinaryCode(length={self.length}, dim={self.dimension})"


class CodeReport(NamedTuple):
    doubly_even: bool
    self_dual: bool
    contains_all_ones: bool
    weight_enumerator: Dict[int, int]
    pair_profile: PairProfile


def _pair_profile(code: BinaryCode) -> PairProfile:
    """Every codeword counted by the kinds of its coordinate pairs.

    Generator g is packed as two ints, its even coordinates g[0::2] and
    its odd coordinates g[1::2] with bit i for pair i; an odd length
    leaves its lone last coordinate in the even plane.  Walking the 2^k
    words in Gray-code order changes one generator per step, so each word
    costs two XORs and three popcounts.
    """
    if 1 << code.dimension > ENUM_LIMIT:
        raise CodeError("code too large to enumerate")
    evens = [sum(b << i for i, b in enumerate(g[0::2])) for g in code.generators]
    odds = [sum(b << i for i, b in enumerate(g[1::2])) for g in code.generators]
    top = (code.length - 1) // 2
    counts = {(0, 0, 0, 0): 1}
    get = counts.get
    e = o = 0
    for i in range(1, 1 << code.dimension):
        j = (i & -i).bit_length() - 1  # the generator Gray code step i flips
        e ^= evens[j]
        o ^= odds[j]
        both = e & o
        key = (
            both.bit_count(),
            (e ^ both).bit_count(),
            (o ^ both).bit_count(),
            (e >> top & 1) << 1 | o >> top & 1,
        )
        counts[key] = get(key, 0) + 1
    return counts


def _profile_weights(profile: PairProfile) -> Dict[int, int]:
    weights: Counter = Counter()
    for (n11, n10, n01, _), count in profile.items():
        weights[2 * n11 + n10 + n01] += count
    return dict(weights)


def validate_binary_code(code: BinaryCode) -> CodeReport:
    """Checks of the hypotheses placed on the input code.

    The weight enumerator and pair profile come from one sweep over the
    code, so a code of more than ENUM_LIMIT words is refused.  The report is
    computed once per code and shared by every later call, so callers
    must not mutate it.
    """
    if code._report is None:
        profile = _pair_profile(code)
        weights = _profile_weights(profile)
        doubly_even = all(wt % 4 == 0 for wt in weights)
        self_dual = code.dimension * 2 == code.length and all(
            sum(a * b for a, b in zip(g, h)) % 2 == 0
            for g in code.generators
            for h in code.generators
        )
        all_ones = tuple([1] * code.length) in code
        code._report = CodeReport(doubly_even, self_dual, all_ones, weights, profile)
    return code._report


def check_lattice_hypotheses(code: BinaryCode) -> CodeReport:
    """Report of a code both lattice constructions accept, else CodeError.

    The code must be doubly even, contain the all-ones vector and have
    length divisible by 8.
    """
    report = validate_binary_code(code)
    if not report.doubly_even:
        raise CodeError("code is not doubly even")
    if not report.contains_all_ones:
        raise CodeError("code does not contain the all-ones vector")
    if code.length % 8 != 0:
        raise CodeError("code length must be a multiple of 8")
    return report


def check_holomorphic_hypotheses(code: BinaryCode) -> CodeReport:
    """As check_lattice_hypotheses, and the code must be self-dual: the
    orbifold and the framed structure assume a holomorphic net."""
    report = check_lattice_hypotheses(code)
    if not report.self_dual:
        raise CodeError("code is not self-dual; its lattice nets are not holomorphic")
    return report


# ---------------------------------------------------------------------------
# code file format

def parse_code_lines(text: str, alphabet: int) -> List[Vector]:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip().replace(" ", "")
        if not line:
            continue
        try:
            row = tuple(int(ch) for ch in line)
        except ValueError as e:
            raise CodeError(f"bad code line {line!r}") from e
        if any(s >= alphabet for s in row):
            raise CodeError(f"symbol out of range in {line!r}")
        rows.append(row)
    if not rows:
        raise CodeError("empty code file")
    if len({len(r) for r in rows}) != 1:
        raise CodeError("generator lengths differ")
    return rows


def binary_code_from_text(text: str) -> BinaryCode:
    rows = parse_code_lines(text, 2)
    return BinaryCode(len(rows[0]), rows)


# Extended Hamming [8,4,4] code.
HAMMING8_TEXT = """\
11110000
00111100
00001111
01010101
"""

# Extended binary Golay [24,12,8] code: cyclic code of length 23 generated by
# x^11+x^10+x^6+x^5+x^4+x^2+1, each row extended by an overall parity bit.
GOLAY24_TEXT = """\
101011100011000000000001
010101110001100000000001
001010111000110000000001
000101011100011000000001
000010101110001100000001
000001010111000110000001
000000101011100011000001
000000010101110001100001
000000001010111000110001
000000000101011100011001
000000000010101110001101
000000000001010111000111
"""

GOLAY24_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


@lru_cache(maxsize=None)
def builtin_code(name: str) -> BinaryCode:
    """Load a built-in code and certify it before returning."""
    texts = {"h8": HAMMING8_TEXT, "golay24": GOLAY24_TEXT}
    if name not in texts:
        raise CodeError(f"unknown builtin code {name!r} (have: {sorted(texts)})")
    code = binary_code_from_text(texts[name])
    report = validate_binary_code(code)
    if not (report.doubly_even and report.self_dual and report.contains_all_ones):
        raise CodeError(f"builtin code {name} failed certification: {report}")
    if name == "golay24" and report.weight_enumerator != GOLAY24_WEIGHTS:
        raise CodeError("golay24 weight enumerator mismatch")
    return code


def load_code(spec: str) -> BinaryCode:
    """Resolve ``builtin:<name>`` or a file path to a BinaryCode."""
    if spec.startswith("builtin:"):
        return builtin_code(spec.split(":", 1)[1])
    with open(spec, encoding="utf-8") as fh:
        return binary_code_from_text(fh.read())


# ---------------------------------------------------------------------------
# Z4 codes


# Section of the quotient-by-frame map used when building delta codes.  It
# differs from the hat map 00->00, 11->20, 10->11, 01->31 only at 01, by a
# (2,2) block, which is invisible modulo the full (22)-block code but picks
# the coset consistent with the glue vector normalization when only even
# (22)-counts are adjoined.
_HAT_SECTION = {(0, 0): (0, 0), (1, 1): (2, 0), (1, 0): (1, 1), (0, 1): (1, 3)}


def _hat_section(bits: Sequence[int]) -> Vector:
    out: List[int] = []
    for i in range(0, len(bits), 2):
        out.extend(_HAT_SECTION[(bits[i], bits[i + 1])])
    return tuple(out)


class Z4Code:
    """Subgroup of Z4^d given by generators.

    The code is kept on a two-layer binary basis: unit rows, whose mod-2
    images are independent, and two rows, an F2 basis of the intersection
    with 2*Z4^d that holds the double of every unit row.  Summing each
    basis row with coefficients in {0,1} hits every codeword exactly once,
    so the cardinality is 2^(number of basis rows).  Construction,
    membership and growing the span (`_insert`) share one reduction.
    """

    def __init__(self, length: int, generators: Iterable[Sequence[int]]):
        gens = [tuple(int(s) % 4 for s in g) for g in generators]
        for g in gens:
            if len(g) != length:
                raise CodeError("generator length mismatch")
        self.length = length
        self.generators: Tuple[Vector, ...] = tuple(gens)
        self._unit_rows: List[Vector] = []
        self._unit_pivots: List[int] = []
        self._two_rows: List[Vector] = []
        self._two_pivots: List[int] = []
        for g in gens:
            self._insert(g)
        self._profile: Dict[Profile, int] | None = None

    # -- basis ---------------------------------------------------------

    def _reduce(self, v: Sequence[int]) -> List[int]:
        """v minus unit rows until it is even at every unit pivot, then
        (if it is even everywhere) minus two rows until it is zero at every
        two pivot.  The result is zero iff v is in the code."""
        r = list(v)
        for piv, u in zip(self._unit_pivots, self._unit_rows):
            if r[piv] % 2:
                r = [(a - b) % 4 for a, b in zip(r, u)]
        if any(a % 2 for a in r):
            return r
        for piv, t in zip(self._two_pivots, self._two_rows):
            if r[piv]:
                r = [(a - b) % 4 for a, b in zip(r, t)]
        return r

    def _insert(self, v: Sequence[int]) -> bool:
        """Grow the code by v; False (and no change) if v was in it."""
        r = self._reduce(v)
        odd = next((i for i, a in enumerate(r) if a % 2), None)
        if odd is not None:
            self._unit_rows.append(tuple(r))
            self._unit_pivots.append(odd)
            self._insert(tuple(2 * a % 4 for a in r))
            return True
        nonzero = next((i for i, a in enumerate(r) if a), None)
        if nonzero is None:
            return False
        self._two_rows.append(tuple(r))
        self._two_pivots.append(nonzero)
        return True

    @property
    def log2_size(self) -> int:
        """The number of basis rows; the code has 2^log2_size words."""
        return len(self._unit_rows) + len(self._two_rows)

    def __len__(self) -> int:
        return 1 << self.log2_size

    def __contains__(self, v: Sequence[int]) -> bool:
        return len(v) == self.length and not any(self._reduce([int(s) % 4 for s in v]))

    def codewords(self) -> Iterator[Vector]:
        if len(self) > ENUM_LIMIT:
            raise CodeError("Z4 code too large to enumerate")
        basis = self._unit_rows + self._two_rows
        for coeffs in product((0, 1), repeat=len(basis)):
            w = [0] * self.length
            for c, g in zip(coeffs, basis):
                if c:
                    w = [(a + b) % 4 for a, b in zip(w, g)]
            yield tuple(w)

    # -- complete weight profile ---------------------------------------

    def weight_profile(self) -> Dict[Profile, int]:
        """Counts of codewords by symbol multiplicities (n0, n1, n2, n3).

        Enumerates every codeword on the first call only.
        """
        if self._profile is None:
            self._profile = dict(Counter(
                (w.count(0), w.count(1), w.count(2), w.count(3)) for w in self.codewords()
            ))
        return self._profile

    def __repr__(self) -> str:
        return f"Z4Code(length={self.length}, size=2^{self.log2_size})"


def z4_code_from_text(text: str) -> Z4Code:
    rows = parse_code_lines(text, 4)
    return Z4Code(len(rows[0]), rows)


def sigma2_code(n: int, zero_variant: bool = False) -> Z4Code:
    """The code {(00),(22)}^n, or its index-2 even-(22)-count subcode."""
    if n < 1:
        raise CodeError("n must be positive")
    gens = []
    if zero_variant:
        for i in range(n - 1):
            g = [0] * (2 * n)
            g[2 * i] = g[2 * i + 1] = g[2 * i + 2] = g[2 * i + 3] = 2
            gens.append(g)
        if not gens:
            gens.append([0] * (2 * n))
    else:
        for i in range(n):
            g = [0] * (2 * n)
            g[2 * i] = g[2 * i + 1] = 2
            gens.append(g)
    return Z4Code(2 * n, gens)


def glue_vector(d: int) -> Vector:
    """The extra coset representative of the second lattice construction."""
    if d % 8 != 0:
        raise CodeError("length must be a multiple of 8")
    v = [1, 0] * (d // 2)
    if d % 16 == 8:
        v[-2], v[-1] = 3, 2
    return tuple(v)


def delta_code(code: BinaryCode, variant: str) -> Z4Code:
    """Z4-code of the lattice built from `code` (variant "L" or "Ltilde")."""
    if variant not in ("L", "Ltilde"):
        raise CodeError(f"variant must be L or Ltilde, got {variant!r}")
    check_lattice_hypotheses(code)
    d = code.length
    gens: List[Vector] = [_hat_section(g) for g in code.generators]
    if variant == "L":
        sigma = sigma2_code(d // 2, zero_variant=False)
    else:
        sigma = sigma2_code(d // 2, zero_variant=True)
        gens.append(glue_vector(d))
    gens.extend(sigma.generators)
    out = Z4Code(d, gens)
    expected = len(code) << (d // 2)
    if len(out) != expected:
        raise CodeError(f"delta code cardinality {len(out)} != {expected}")
    return out


def _shifted_type(bits: Tuple[int, int], shift: Sequence[int]) -> Tuple[int, int]:
    """Sorted pair of hat_section(bits) + shift."""
    a, b = _HAT_SECTION[bits]
    return tuple(sorted(((a + shift[0]) % 4, (b + shift[1]) % 4)))


def pair_types(code: BinaryCode, variant: str) -> Dict[tuple, int]:
    """Cosets of delta_code(code, variant) modulo {(00),(22)}^{d/2} counted
    by their sorted coordinate pairs, each key a sorted ((a, b), multiplicity).

    The representatives are hat_section(c) for every codeword c, and for
    Ltilde also hat_section(c) + glue_vector(d): for a doubly-even code
    hat_section is additive modulo the even-(22)-count subcode.  Both are
    read off the certification's pair profile: a pair xy of c shifted by
    the glue's pair s becomes _shifted_type(xy, s), and the glue's last
    pair differs from the others when d % 16 == 8.
    """
    if variant not in ("L", "Ltilde"):
        raise CodeError(f"variant must be L or Ltilde, got {variant!r}")
    profile = check_lattice_hypotheses(code).pair_profile
    d = code.length
    glue = glue_vector(d)
    shifts = [((0, 0), (0, 0))] + ([(glue[:2], glue[-2:])] if variant == "Ltilde" else [])
    census: Counter = Counter()
    for shift, last_shift in shifts:
        types = {bits: _shifted_type(bits, shift) for bits in _HAT_SECTION}
        last_types = {bits: _shifted_type(bits, last_shift) for bits in _HAT_SECTION}
        for (n11, n10, n01, last), count in profile.items():
            last_bits = divmod(last, 2)
            kinds = {(0, 0): d // 2 - n11 - n10 - n01, (1, 1): n11, (1, 0): n10, (0, 1): n01}
            kinds[last_bits] -= 1  # the last pair is shifted apart
            pairs: Counter = Counter({last_types[last_bits]: 1})
            for bits, k in kinds.items():
                pairs[types[bits]] += k
            census[tuple(sorted((t, k) for t, k in pairs.items() if k))] += count
    return dict(census)


@lru_cache(maxsize=None)
def builtin_delta(name: str, variant: str) -> Z4Code:
    """Cached delta code of a built-in binary code."""
    return delta_code(builtin_code(name), variant)
