"""Binary linear codes and the Z4-codes of the two lattice constructions.

Only this module knows how rows are stored: an F2 row is an int, bit i for
coordinate i, and a Z4 word two such bit planes (lo, hi), symbol lo + 2*hi.
One reduced row echelon form serves every code, and symbol tuples appear
only at the public edge (a binary code's `generators`, `in`, the Z4
code's `codewords()`, the element `non_integral_element` returns).  The
Z4 arithmetic of a simple current extension, the weight check and the
orders of H-perp / H, is done here on planes too, and builds no dual:
the orders come from one kernel and one rank over H's two rows.

Each binary code is enumerated once, when it is certified: one Gray-code
sweep over its words packed as two ints, the bit planes of its even and
of its odd coordinates, counts the words by their pair weights (n11, m),
the coordinate pairs that read 11 and those that read 10 or 01.  That
count yields both the weight enumerator and the frame route's input.

Code files are plain text, one generator per line, symbols 0/1 for binary
codes and 0-3 for Z4 codes, with ``#`` comments.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import compress, product
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Vector = Tuple[int, ...]
Profile = Tuple[int, int, int, int]
# binary codewords counted by (n11, m): n11 coordinate pairs (2i, 2i+1)
# read 11 and m read 10 or 01, so a word has weight 2 * n11 + m
PairProfile = Dict[Tuple[int, int], int]
Planes = Tuple[int, int]

ENUM_LIMIT = 1 << 26


class CodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# packed rows

# a byte per symbol -> the ASCII digit of its low or high bit, for int(_, 2)
_LO = bytes(b"01"[s & 1] for s in range(256))
_HI = bytes(b"01"[s >> 1 & 1] for s in range(256))
# ASCII digits -> symbols 0/1 or 0/2
_ONES = bytes.maketrans(b"01", b"\x00\x01")
_TWOS = bytes.maketrans(b"01", b"\x00\x02")
# ASCII digits -> symbols 0..9
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _pack(symbols: bytes, plane: bytes = _LO) -> int:
    """One bit plane of the symbols as a packed row."""
    return int(b"0" + symbols.translate(plane)[::-1], 2)


def _bits(row: int, n: int, table: bytes = _ONES) -> bytes:
    """Coordinates 0..n-1 of a packed row, one byte 0/1 (0/2 by _TWOS) each."""
    return format(row | 1 << n, "b")[:0:-1].encode().translate(table)  # bit n keeps leading 0s


def _planes(v: Sequence[int]) -> Planes:
    """The bit planes of a Z4 word, its symbols read mod 4."""
    try:
        symbols = bytes(v)  # _LO and _HI read 0..255 mod 4
    except (ValueError, TypeError):  # a negative or non-int symbol
        symbols = bytes(int(s) % 4 for s in v)
    return _pack(symbols), _pack(symbols, _HI)


def _word(lo: int, hi: int, n: int) -> Vector:
    return tuple(map(add, _bits(lo, n), _bits(hi, n, _TWOS)))


def _eliminate(x: int, rows: Dict[int, int], mask: int) -> int:
    """x minus `rows`, each keyed by its pivot, its lowest set bit, until x is
    zero at every pivot in `mask`: lowest first, so no cleared pivot returns."""
    while m := x & mask:
        x ^= rows[m & -m]
    return x


def _rref(rows: Iterable[int]) -> Dict[int, int]:
    """Reduced row echelon form of packed F2 rows, zero rows dropped: pivot
    bit -> row, in increasing pivot.  A row's pivot is its lowest set bit."""
    echelon: Dict[int, int] = {}
    mask = 0  # the union of the pivots
    for r in rows:
        if r := _eliminate(r, echelon, mask):
            echelon[r & -r] = r
            mask |= r & -r
    reduced: Dict[int, int] = {}
    for p in sorted(echelon, reverse=True):  # clear each pivot's column above it
        reduced[p] = p | _eliminate(echelon[p] ^ p, reduced, mask)
    return dict(sorted(reduced.items()))


def _kernel(reduced: Dict[int, int], n: int) -> List[int]:
    """A basis of {x in F2^n : r.x = 0 for every row r} of a reduced row
    echelon form, as `_rref` returns it: for each free coordinate f, in
    increasing f, e_f plus the pivots p of the rows that hold f.  Each
    row's free bits are walked once, OR-ing its pivot into those
    coordinates' columns."""
    pivots = sum(reduced)
    columns: Dict[int, int] = {}  # free bit e_f -> e_f plus its pivots
    for p, r in reduced.items():
        free = r & ~pivots
        while free:
            f = free & -free
            columns[f] = columns.get(f, f) | p
            free ^= f
    return [columns.get(1 << f, 1 << f) for f in range(n) if not pivots >> f & 1]


# ---------------------------------------------------------------------------
# binary codes


class BinaryCode:
    """Linear code over F2 given by a generator matrix, stored as the packed
    rows of its reduced row echelon form."""

    def __init__(self, length: int, generators: Iterable[Sequence[int]]):
        rows = []
        for g in generators:
            if len(g) != length or not set(g) <= {0, 1}:
                raise CodeError(f"bad binary generator of length {len(g)}")
            rows.append(_pack(bytes(g)))
        self.length = length
        self._rows = _rref(rows)
        self._mask = sum(self._rows)
        self.generators = tuple(tuple(_bits(r, length)) for r in self._rows.values())
        self._report: Optional[CodeReport] = None

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def __contains__(self, v: Sequence[int]) -> bool:
        binary = len(v) == self.length and set(v) <= {0, 1}
        return binary and not _eliminate(_pack(bytes(v)), self._rows, self._mask)

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
    """Every codeword counted by its pair weights (n11, m).

    Generator g is packed as two ints, its even coordinates g[0::2] and
    its odd coordinates g[1::2] with bit i for pair i; an odd length
    leaves its lone last coordinate in the even plane.  Walking the 2^k
    words in Gray-code order changes one generator per step, so each word
    costs two XORs and two popcounts: n11 = |e & o| and m = |e ^ o|.
    """
    if 1 << code.dimension > ENUM_LIMIT:
        raise CodeError("code too large to enumerate")
    evens = [_pack(bytes(g[0::2])) for g in code.generators]
    odds = [_pack(bytes(g[1::2])) for g in code.generators]
    counts = {(0, 0): 1}
    get = counts.get
    e = o = 0
    for i in range(1, 1 << code.dimension):
        j = (i & -i).bit_length() - 1  # the generator Gray code step i flips
        e ^= evens[j]
        o ^= odds[j]
        key = (e & o).bit_count(), (e ^ o).bit_count()
        counts[key] = get(key, 0) + 1
    return counts


def _profile_weights(profile: PairProfile) -> Dict[int, int]:
    weights: Counter = Counter()
    for (n11, m), count in profile.items():
        weights[2 * n11 + m] += count
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
        self_dual = code.dimension * 2 == code.length and not any(
            (g & h).bit_count() & 1 for g in code._rows.values() for h in code._rows.values()
        )
        all_ones = not _eliminate((1 << code.length) - 1, code._rows, code._mask)
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

def parse_code_lines(text: str, alphabet: int) -> List[bytes]:
    """The rows of a code file, one byte per symbol."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip().replace(" ", "")
        if not line:
            continue
        if not (line.isascii() and line.isdigit()):  # str.isdigit takes any script's digits
            raise CodeError(f"bad code line {line!r}")
        row = line.encode().translate(_DIGITS)
        if max(row) >= alphabet:
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


def load_code(spec: str, text: Optional[str]) -> BinaryCode:
    """Resolve ``builtin:<name>`` to its BinaryCode, or parse `text`, the
    caller's reading of the file at path `spec`; no file is opened here."""
    if spec.startswith("builtin:"):
        return builtin_code(spec.split(":", 1)[1])
    return binary_code_from_text(text)


# ---------------------------------------------------------------------------
# Z4 codes


class Z4Code:
    """Subgroup of Z4^d given by generators.

    The code is kept on a two-layer binary basis: unit rows, whose mod-2
    images are independent, and two rows, an F2 basis of the intersection
    with 2*Z4^d that holds the double of every unit row.  Summing each
    basis row with coefficients in {0,1} hits every codeword exactly once,
    so the cardinality is 2^(number of basis rows).  Rows are bit planes,
    each layer with the mask of its pivots.  Construction and membership
    share one reduction.
    """

    def __init__(self, length: int, generators: Iterable[Sequence[int]]):
        self.length = length
        self._gens: List[Planes] = []
        self._units: Dict[int, Planes] = {}  # pivot bit -> unit row (lo, hi)
        self._twos: Dict[int, int] = {}  # pivot bit -> two row's hi plane; lo is 0
        self._unit_mask = self._two_mask = 0
        self._profile: Dict[Profile, int] | None = None
        for g in generators:
            if len(g) != length:
                raise CodeError("generator length mismatch")
            self._gens.append(_planes(g))
            self._add(*self._gens[-1])

    @classmethod
    def _from_planes(cls, length: int, planes: Iterable[Planes]) -> Z4Code:
        """The code generated by words given as bit planes, in this order."""
        code = cls(length, ())
        for lo, hi in planes:
            code._gens.append((lo, hi))
            code._add(lo, hi)
        return code

    # -- basis ---------------------------------------------------------

    def _reduce(self, lo: int, hi: int) -> Planes:
        """v minus unit rows until it is even at every unit pivot, then
        (if it is even everywhere) minus two rows until it is zero at every
        two pivot.  The result is zero iff v is in the code.  A row's pivot
        is its lowest odd (unit) or nonzero (two) coordinate, so each layer
        is reduced as in `_eliminate`; subtracting u borrows from the high
        plane wherever u is odd and v even."""
        while m := lo & self._unit_mask:
            ulo, uhi = self._units[m & -m]
            hi ^= uhi ^ (ulo & ~lo)
            lo ^= ulo
        if not lo:
            hi = _eliminate(hi, self._twos, self._two_mask)
        return lo, hi

    def _add(self, lo: int, hi: int) -> None:
        lo, hi = self._reduce(lo, hi)
        if lo:
            p = lo & -lo
            self._units[p] = lo, hi
            self._unit_mask |= p
            self._add(0, lo)  # its double
        elif hi:
            p = hi & -hi
            self._twos[p] = hi
            self._two_mask |= p

    @property
    def log2_size(self) -> int:
        """The number of basis rows; the code has 2^log2_size words."""
        return len(self._units) + len(self._twos)

    def __len__(self) -> int:
        return 1 << self.log2_size

    def __contains__(self, v: Sequence[int]) -> bool:
        return len(v) == self.length and self._reduce(*_planes(v)) == (0, 0)

    def residue_code(self) -> BinaryCode:
        """The code mod 2, spanned by the unit rows' low planes."""
        return BinaryCode(self.length, [_bits(lo, self.length) for lo, _ in self._units.values()])

    def _basis(self) -> List[Planes]:
        return [*self._units.values(), *((0, hi) for hi in self._twos.values())]

    def codewords(self) -> Iterator[Vector]:
        if len(self) > ENUM_LIMIT:
            raise CodeError("Z4 code too large to enumerate")
        basis = self._basis()
        for coeffs in product((0, 1), repeat=len(basis)):
            lo = hi = 0
            for ulo, uhi in compress(basis, coeffs):
                lo, hi = lo ^ ulo, hi ^ uhi ^ (lo & ulo)  # the low bits carry
            yield _word(lo, hi, self.length)

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


# ---------------------------------------------------------------------------
# simple current extensions of Z4^d, where h(x) = sum x_i^2 / 8 mod 1


def non_integral_element(H: Z4Code) -> Optional[Vector]:
    """An element of H whose weight is not an integer, or None if there is none.

    h is a quadratic form with polar form b(x, y) = sum x_i y_i / 4, so it
    vanishes on H iff it vanishes on each generator and b vanishes on each
    pair of them.  For the first pair (g, k) of integral generators with
    b(g, k) != 0, g + k is the element.  In planes x_i^2 is 1 (mod 8) where
    lo is set and 4 where only hi is, so sum x_i^2 = |lo| + 4 |hi & ~lo|,
    and x_i y_i = lo lo' + 2 (lo hi' + hi lo') (mod 4).  As b(2x, 2y) = 0
    (mod 1), only the pairs with a unit generator (lo != 0) are visited.
    """
    gens = H._gens
    for lo, hi in gens:
        if (lo.bit_count() + 4 * (hi & ~lo).bit_count()) % 8:
            return _word(lo, hi, H.length)
    units = [j for j, (lo, _) in enumerate(gens) if lo]
    for i, (alo, ahi) in enumerate(gens):
        partners = range(i + 1, len(gens)) if alo else units[bisect_right(units, i):]
        for blo, bhi in map(gens.__getitem__, partners):
            b = (alo & blo).bit_count() + 2 * ((alo & bhi).bit_count() + (ahi & blo).bit_count())
            if b % 4:
                return _word(alo ^ blo, ahi ^ bhi ^ (alo & blo), H.length)
    return None


def quotient_orders(H: Z4Code) -> Tuple[int, ...]:
    """The orders of the cyclic factors of H-perp / H, as Z4^a x Z2^b.

    H is isotropic.  The quotient Q is killed by 4, so Q = Z4^a x Z2^b
    with 2Q = (H + 2 H-perp) / H = Z2^a.  Let T = {t in F2^d : 2t in H},
    spanned by H's two rows.  Then H cap 2 Z4^d = 2T, and 2 H-perp is 2R
    with R = H-perp mod 2 = T-perp (y = k + 2w pairs to 0 with 2t iff
    t.k = 0, and each such k lifts, as the unit rows are independent
    mod 2).  So 2Q = T-perp / (T cap T-perp) = (T + T-perp) / T,
    a = rank(T + T-perp) - dim T, and b = log2 |Q| - 2a with
    log2 |Q| = 2d - 2 log2 |H|, as |H-perp| = 4^d / |H|.
    """
    tor = _rref(H._twos.values())
    a = len(_rref([*tor.values(), *_kernel(tor, H.length)])) - len(tor)
    return (4,) * a + (2,) * (2 * (H.length - H.log2_size - a))


def z4_code_from_text(text: str) -> Z4Code:
    rows = parse_code_lines(text, 4)
    return Z4Code(len(rows[0]), rows)


def sigma2_code(n: int, zero_variant: bool = False) -> Z4Code:
    """The code {(00),(22)}^n, or its index-2 even-(22)-count subcode."""
    if n < 1:
        raise CodeError("n must be positive")
    # generator i is 22 on pair i, or 2222 on pairs i and i + 1
    block, count = (0b1111, n - 1) if zero_variant else (0b11, n)
    return Z4Code._from_planes(2 * n, [(0, block << 2 * i) for i in range(count)] or [(0, 0)])


def _glue(d: int) -> Planes:
    """The extra coset representative of the second lattice construction:
    1 on the even coordinates, and the last pair 32 when d = 8 (mod 16)."""
    return ((1 << d) - 1) // 3, 0b11 << d - 2 if d % 16 == 8 else 0


def _section(row: int, d: int) -> Planes:
    """The quotient-by-frame section of a packed binary row of length d, by
    pairs 00->00, 11->20, 10->11, 01->13.  It differs from the hat map
    (01->31) by a (2,2) block at 01, invisible modulo the full (22)-block
    code, and picks the coset the glue vector's normalization needs when
    only even (22)-counts are adjoined."""
    evens = ((1 << d) - 1) // 3  # 0101...01
    a, b = row & evens, row >> 1 & evens  # each pair's bits, at its even coordinate
    odd = a ^ b  # both symbols odd
    return odd | odd << 1, a & b | (b & ~a) << 1  # 2 first where 11, 3 second where 01


def delta_code(code: BinaryCode, variant: str) -> Z4Code:
    """Z4-code of the lattice built from `code` (variant "L" or "Ltilde")."""
    if variant not in ("L", "Ltilde"):
        raise CodeError(f"variant must be L or Ltilde, got {variant!r}")
    check_lattice_hypotheses(code)
    d = code.length
    gens = [_section(r, d) for r in code._rows.values()]
    if variant == "Ltilde":
        gens.append(_glue(d))
    gens += sigma2_code(d // 2, zero_variant=variant == "Ltilde")._gens
    out = Z4Code._from_planes(d, gens)
    expected = len(code) << (d // 2)
    if len(out) != expected:
        raise CodeError(f"delta code cardinality {len(out)} != {expected}")
    return out


@lru_cache(maxsize=None)
def builtin_delta(name: str, variant: str) -> Z4Code:
    """Cached delta code of a built-in binary code."""
    return delta_code(builtin_code(name), variant)
