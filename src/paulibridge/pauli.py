"""Pauli strings, weighted Pauli sums, and their algebra.

A Pauli string over ``n`` sites is a word in {I, X, Y, Z}. Strings are stored
bit-packed, two bits per site with I=0, X=1, Y=2, Z=3, and site 0 occupying
the highest bits. That packing makes integer comparison of the payload agree
with lexicographic comparison of the labels under the symbol order
I < X < Y < Z, which is the canonical ordering used everywhere downstream.

Dense conventions: site 0 is the most significant qubit, i.e. the dense
matrix of a string is ``kron(sigma[s_0], kron(sigma[s_1], ...))`` and bit j
of a computational basis index addresses site j from the left.

The one action rule, the binary (x, z) form of Aaronson & Gottesman (PRA
70, 052328, 2004): with x the basis bits of the X and Y sites and z those
of the Y and Z sites, a string maps |b> to i^{#Y} (-1)^{|b & z|} |b ^ x>.
Every dense or matrix-free action sums the terms sharing x into one diagonal.

A PauliSum is held as pack_strings ``rows`` and a complex128 ``coeffs``
vector, merged under one rule whether built from arrays or from terms.

The text format for weighted sums is line oriented: one ``<coeff> <STRING>``
pair per line, ``#`` starts a comment, blank lines are skipped. Coefficients
are ASCII real literals (``-0.25``, ``1e-3``) or complex ``a+bi`` (``0.5-0.25i``).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DimensionMismatch",
    "EmptyInput",
    "InconsistentLength",
    "JsonText",
    "LengthMismatch",
    "MalformedLine",
    "NotNormalized",
    "PauliError",
    "PauliString",
    "PauliSum",
    "PauliTerm",
    "SYMBOLS",
    "TooLarge",
    "PAULI_MATRICES",
    "apply_string",
    "dense_string",
    "expectation",
    "json_document",
    "json_columns",
    "json_field",
    "json_finite",
    "json_labels",
    "json_rows",
    "json_text",
    "malformed",
    "multiply",
    "n_words",
    "pack_strings",
    "packed_product",
    "parse_pauli_sum",
    "pauli_product",
    "serialize_pauli_sum",
    "site_codes",
    "to_dense",
    "unique_rows",
    "unpack_strings",
]

SYMBOLS = "IXYZ"

PAULI_MATRICES: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# most qubits of any dense matrix: sites, plus ancillas for an lcu walk unitary
DENSE_LIMIT = 12
NORM_TOL = 1e-12  # largest |norm - 1| expectation accepts
CHUNK_ENTRIES = 2**20  # signs, and diagonal entries, the action rule forms at once


class PauliError(ValueError):
    """Base class for errors raised by this package's Pauli layer."""


class MalformedLine(PauliError):
    """A line of Pauli-sum text that does not parse.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InconsistentLength(PauliError):
    """Strings of different lengths in one Pauli-sum source."""


class EmptyInput(PauliError):
    """No terms found where at least one was required."""


class LengthMismatch(PauliError):
    """Binary operation on strings of different lengths."""


class TooLarge(PauliError):
    """A dense object would exceed DENSE_LIMIT (matrices) or mps.STATE_DENSE_LIMIT (vectors)."""


class DimensionMismatch(PauliError):
    """State vector dimension does not match the operator."""


class NotNormalized(PauliError):
    """State vector norm differs from 1 beyond tolerance."""


_LABEL_DIGITS = str.maketrans(SYMBOLS, "0123")
_HEX_PAIRS = str.maketrans({f"{k:x}": SYMBOLS[k >> 2] + SYMBOLS[k & 3] for k in range(16)})


def _mask01(n: int) -> int:
    # 0b0101...01 over n two-bit slots
    return (4**n - 1) // 3


@dataclass(frozen=True, order=True)
class PauliString:
    """An n-site Pauli word, bit-packed two bits per site.

    Attributes
    ----------
    n_sites:
        Number of sites, at least 1.
    bits:
        Packed symbol codes; site j sits at bit offset ``2*(n_sites-1-j)``
        so that integer order equals lexicographic label order.
    """

    n_sites: int
    bits: int

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise PauliError(f"need at least one site, got {self.n_sites}")
        if not 0 <= self.bits < 4**self.n_sites:
            raise PauliError("packed bits out of range for site count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a label such as ``"XIZ"``: its codes are its base-4 digits."""
        if not label:
            raise PauliError("empty Pauli label")
        rest = label.strip(SYMBOLS)
        if rest:
            raise PauliError(f"invalid Pauli symbol {rest[0]!r} in {label!r}")
        # a power-of-two base is exempt from int()'s limit on digit count
        return cls(len(label), int(label.translate(_LABEL_DIGITS), 4))

    @classmethod
    def from_codes(cls, codes: Iterable[int]) -> "PauliString":
        return cls.from_label("".join(SYMBOLS[code] for code in codes))

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, 0)

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple((self.bits >> (2 * (self.n_sites - 1 - j))) & 3 for j in range(self.n_sites))

    @property
    def label(self) -> str:
        # a hex digit holds two sites; [-n:] drops the I an odd count pads with
        n = self.n_sites
        return format(self.bits, f"0{(n + 1) // 2}x").translate(_HEX_PAIRS)[-n:]

    def __str__(self) -> str:
        return self.label

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return ((self.bits | (self.bits >> 1)) & _mask01(self.n_sites)).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.bits == 0

    @property
    def is_diagonal(self) -> bool:
        """True when every site is I or Z."""
        return ((self.bits ^ (self.bits >> 1)) & _mask01(self.n_sites)) == 0


@dataclass(frozen=True)
class PauliTerm:
    """A complex coefficient attached to a Pauli string."""

    coeff: complex
    string: PauliString


class PauliSum:
    """An ordered, duplicate-free weighted sum of Pauli strings.

    Held as read-only arrays, ``rows`` of pack_strings and ``coeffs`` of
    complex128, or as ``terms``, PauliTerm objects; ``PauliSum(n, terms)``
    merges in a dict, ``from_rows`` in arrays, and the view a constructor
    was not given is derived on first use. The one merge rule: strings
    keep their first-occurrence order, each one's coefficients are added
    in input order from 0j, and exact zeros are dropped.
    """

    __slots__ = ("n_sites", "_terms", "_rows", "_coeffs")

    def __init__(self, n_sites: int, terms: Iterable[PauliTerm | tuple[complex, PauliString]]):
        merged: dict[PauliString, complex] = {}
        for item in terms:
            coeff, string = (item.coeff, item.string) if isinstance(item, PauliTerm) else item
            if string.n_sites != n_sites:
                raise InconsistentLength(f"string {string} has {string.n_sites} sites, expected {n_sites}")
            merged[string] = merged.get(string, 0j) + complex(coeff)
        self.n_sites = n_sites
        self._terms = tuple(PauliTerm(c, s) for s, c in merged.items() if c != 0)
        self._rows = self._coeffs = None

    @classmethod
    def from_rows(cls, n_sites: int, rows: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """Merge pack_strings ``rows`` weighted by ``coeffs`` under the one rule."""
        rows, coeffs = np.ascontiguousarray(rows, dtype=np.uint64), np.asarray(coeffs, dtype=np.complex128)
        if (n_sites < 1 or coeffs.ndim != 1 or rows.shape != (len(coeffs), n_words(n_sites))
                or np.any(rows[:, 0] >> np.uint64(2 * (n_sites - 32 * (rows.shape[1] - 1))))):  # past the sites
            raise PauliError(f"rows {rows.shape} and coeffs {coeffs.shape} do not fit {n_sites} sites")
        # each row as one key: a uint64 when the row is one word, as that sorts fastest
        keys = rows[:, 0] if rows.shape[1] == 1 else rows.view(f"V{8 * rows.shape[1]}")[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        group = np.argsort(np.argsort(first))[inverse]  # numbered in first-occurrence order
        # bincount adds each group's weights in input order from +0.0, one part at a time
        total = np.empty(len(first), dtype=np.complex128)
        total.real = np.bincount(group, coeffs.real, len(first))
        total.imag = np.bincount(group, coeffs.imag, len(first))
        keep = total != 0
        op = cls.__new__(cls)
        op.n_sites, op._terms, op._rows, op._coeffs = n_sites, None, rows[np.sort(first)[keep]], total[keep]
        op._rows.flags.writeable = op._coeffs.flags.writeable = False
        return op

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        if self._terms is None:
            self._terms = tuple(map(PauliTerm, self._coeffs.tolist(), unpack_strings(self._rows, self.n_sites)))
        return self._terms

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:  # a term list's two arrays, built together
            self._rows = pack_strings((t.string for t in self._terms), self.n_sites)
            self._coeffs = np.array([t.coeff for t in self._terms], dtype=np.complex128)
            self._rows.flags.writeable = self._coeffs.flags.writeable = False
        return self._rows

    @property
    def coeffs(self) -> np.ndarray:
        self.rows  # a term list's coeffs are built with its rows
        return self._coeffs

    @property
    def n_terms(self) -> int:
        return len(self._terms if self._terms is not None else self._coeffs)

    def __len__(self) -> int:
        return self.n_terms

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_sites == other.n_sites and self.terms == other.terms

    def __repr__(self) -> str:
        return f"PauliSum(n_sites={self.n_sites}, n_terms={self.n_terms})"

    def as_dict(self) -> dict[PauliString, complex]:
        return {t.string: t.coeff for t in self.terms}


# ---------------------------------------------------------------------------
# products: the Z2 x Z2 bit-plane rule of Aaronson & Gottesman (PRA 70,
# 052328, 2004) on the I=0, X=1, Y=2, Z=3 packing

_I_POWERS = np.array([1, 1j, -1, -1j])

_WORD_MASK01 = 0x5555555555555555
_WORD_ONES = 0xFFFFFFFFFFFFFFFF


def _cyclic_sites(a, b, mask01):
    """Bit sets of the sites where (a, b) is cyclic (XY, YZ, ZX) and anticyclic.

    Works on Python ints and on uint64 arrays alike. A code's bits are
    ``hl``; the successor of a non-identity code in X -> Y -> Z -> X is
    ``(h ^ l, h)``, so a site is cyclic when ``b`` is the successor of a
    non-identity ``a`` and anticyclic when ``a`` is the successor of ``b``.
    The product of the two strings is ``a ^ b`` with phase
    ``i^(#cyclic - #anticyclic)``.
    """
    ah, al = (a >> 1) & mask01, a & mask01
    bh, bl = (b >> 1) & mask01, b & mask01
    cyclic = (ah | al) & ~(bh ^ ah ^ al) & ~(bl ^ ah)
    anticyclic = (bh | bl) & ~(ah ^ bh ^ bl) & ~(al ^ bh)
    return cyclic, anticyclic


def pauli_product(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product of two strings as (phase, string) with phase in {1, -1, i, -i}."""
    if a.n_sites != b.n_sites:
        raise LengthMismatch(f"{a.n_sites} sites vs {b.n_sites} sites")
    cyclic, anticyclic = _cyclic_sites(a.bits, b.bits, _mask01(a.n_sites))
    phase = complex(_I_POWERS[(cyclic.bit_count() - anticyclic.bit_count()) % 4])
    return phase, PauliString(a.n_sites, a.bits ^ b.bits)


def n_words(n_sites: int) -> int:
    """uint64 words per packed string: 32 sites to a word."""
    return -(-n_sites // 32)


def pack_strings(strings: Iterable[PauliString], n_sites: int) -> np.ndarray:
    """Packed codes as a ``(count, n_words(n_sites))`` uint64 array.

    ``bits`` is split into 64-bit words, most significant word first, so
    a word holds whole sites and strings of at most 32 sites pack into
    one word equal to ``bits``, as the sampler packs them.
    """
    words = n_words(n_sites)
    shifts = [64 * (words - 1 - w) for w in range(words)]
    rows = [[(s.bits >> sh) & _WORD_ONES for sh in shifts] for s in strings]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), words)


def unpack_strings(rows: np.ndarray, n_sites: int) -> list[PauliString]:
    """Inverse of pack_strings."""
    bits = [0] * len(rows)
    for column in rows.T.tolist():
        bits = [(b << 64) | word for b, word in zip(bits, column)]
    return [PauliString(n_sites, b) for b in bits]


def site_codes(packed: np.ndarray, n_sites: int, sites) -> np.ndarray:
    """Symbol codes of pack_strings rows at ``sites`` (an int or an array)."""
    offset = 2 * (n_sites - 1 - np.asarray(sites))
    word = packed[:, -1 - offset // 64]
    return ((word >> (offset % 64).astype(np.uint64)) & np.uint64(3)).astype(np.intp)


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pack_strings rows and the 1-D inverse; one word sorts as uint64, ~20x faster."""
    if rows.shape[1] == 1:
        unique, inverse = np.unique(rows[:, 0], return_inverse=True)
        return unique[:, None], inverse
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)


def packed_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of packed strings, broadcast over all but the last axis.

    Returns ``(exponent, codes)``: the product of ``a[...]`` and ``b[...]``
    is ``i**exponent`` times the string ``codes[...]``, with exponent in
    0..3. This is the rule pauli_product applies to one pair.
    """
    cyclic, anticyclic = _cyclic_sites(a, b, _WORD_MASK01)
    exponent = np.bitwise_count(cyclic).sum(axis=-1, dtype=np.int64)
    exponent -= np.bitwise_count(anticyclic).sum(axis=-1, dtype=np.int64)
    return exponent % 4, a ^ b


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` rounded as Python rounds a complex product; numpy's vector loop may fuse a multiply-add."""
    parts = (x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)
    return np.stack(parts, axis=-1).view(np.complex128)[..., 0]


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Term-by-term product of two sums, merged: one packed_product over all pairs."""
    if a.n_sites != b.n_sites:
        raise LengthMismatch(f"{a.n_sites} sites vs {b.n_sites} sites")
    exponent, rows = packed_product(a.rows[:, None], b.rows[None, :])
    with np.errstate(over="ignore", invalid="ignore"):  # a term that overflows leaves its merged sum non-finite
        coeffs = _times(_times(a.coeffs[:, None], b.coeffs[None, :]), _I_POWERS[exponent])
        product = PauliSum.from_rows(a.n_sites, rows.reshape(-1, rows.shape[-1]), coeffs.reshape(-1))
    if not np.isfinite(product.coeffs).all():
        bad = product.rows[np.argmin(np.isfinite(product.coeffs))]
        raise ValueError(f"the product coefficient of {_row_labels(bad[None], a.n_sites)[0]} overflows")
    return product


# ---------------------------------------------------------------------------
# dense forms and state-vector application

def dense_string(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a single string (site 0 most significant)."""
    return to_dense(PauliSum(p.n_sites, [(1.0, p)]))


def _flip_groups(op: PauliSum) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(masks, diagonals)`` blocks: distinct flip masks x of the terms
    and, per mask, the diagonal with ``op[b ^ x, b] = diagonal[b]``, its
    terms' ``c_t i^{#Y} (-1)^{|b & z_t|}`` added in term order. A block holds
    at most CHUNK_ENTRIES diagonal entries, or one mask when 2^n is more."""
    n = op.n_sites
    codes = site_codes(op.rows, n, np.arange(n))
    place = 1 << np.arange(n - 1, -1, -1)  # site 0 is the most significant bit
    flips = ((codes ^ (codes >> 1)) & 1) @ place  # X = 01 and Y = 10
    z = (codes >> 1) @ place  # Y = 10 and Z = 11
    phases = (op.coeffs * _I_POWERS[np.count_nonzero(codes == 2, axis=1) % 4])[:, None]
    masks, group = np.unique(flips, return_inverse=True)
    idx = np.arange(2**n)
    per_block = max(1, CHUNK_ENTRIES // idx.size)
    for lo in range(0, len(masks), per_block):
        terms = np.flatnonzero((group >= lo) & (group < lo + per_block))  # in term order
        diagonals = np.zeros((min(per_block, len(masks) - lo), idx.size), dtype=np.complex128)
        for rows in np.array_split(terms, max(1, len(terms) * idx.size // CHUNK_ENTRIES)):
            # flat indices take add.at's 1-D fast path; no chunk outlives the call
            np.add.at(
                diagonals.reshape(-1),
                ((group[rows, None] - lo) * idx.size + idx).ravel(),
                np.where(np.bitwise_count(idx & z[rows, None]) & 1, -phases[rows], phases[rows]).ravel(),
            )
        yield masks[lo : lo + per_block], diagonals


def _act(op: PauliSum, vec: np.ndarray) -> np.ndarray:
    """``op @ vec`` a block of masks at a time: ``(op vec)[r]`` sums
    ``diagonal[r ^ x] vec[r ^ x]`` over the masks x."""
    if vec.shape != (2**op.n_sites,):
        raise DimensionMismatch(f"state has shape {vec.shape}, operator needs ({2**op.n_sites},)")
    idx = np.arange(vec.size)
    out = np.zeros(vec.size, dtype=np.complex128)
    for masks, diagonals in _flip_groups(op):
        diagonals *= vec
        out += np.take_along_axis(diagonals, idx ^ masks[:, None], axis=1).sum(axis=0)
    return out


def to_dense(op: PauliSum) -> np.ndarray:
    """Dense matrix of a sum; refuses more than DENSE_LIMIT sites."""
    if op.n_sites > DENSE_LIMIT:
        raise TooLarge(f"{op.n_sites} sites exceeds dense limit {DENSE_LIMIT}")
    idx = np.arange(2**op.n_sites)
    out = np.zeros((idx.size, idx.size), dtype=np.complex128)
    for masks, diagonals in _flip_groups(op):
        out[idx ^ masks[:, None], idx] = diagonals
    return out


def apply_string(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Apply one Pauli string to a state vector without forming the matrix."""
    return _act(PauliSum(p.n_sites, [(1.0, p)]), vec)


def expectation(op: PauliSum, state: np.ndarray) -> complex:
    """<state|op|state>, with op acting on the vector through its flip-mask groups."""
    state = np.asarray(state, dtype=np.complex128)
    image = _act(op, state)
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    return complex(np.vdot(state, image))


# ---------------------------------------------------------------------------
# text format

def _parse_coeff(token: str) -> complex:
    # float() and complex() also take "_" separators and non-ASCII digits
    if not token.isascii() or "_" in token:
        raise PauliError(f"bad coefficient {token!r}")
    try:
        value = float(token)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return complex(value)
        raise PauliError(f"non-finite coefficient {token!r}")
    if token.endswith("i"):
        try:
            value = complex(token[:-1] + "j")
        except ValueError:
            raise PauliError(f"bad coefficient {token!r}") from None
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    raise PauliError(f"bad coefficient {token!r}")


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


# byte -> symbol code, 4 for a byte that is no symbol; and code -> code point
_BYTE_CODES = np.array([SYMBOLS.find(chr(b)) % 5 for b in range(256)], dtype=np.uint8)
_CODE_POINTS = np.array([ord(c) for c in SYMBOLS], dtype=np.uint32)
_WORD_SHIFTS = np.arange(62, -1, -2, dtype=np.uint64)  # the 32 sites of a word, first site highest


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """pack_strings rows of a ``(count, n_sites)`` array of symbol codes."""
    count, n = codes.shape
    padded = np.zeros((count, 32 * n_words(n)), dtype=np.uint64)
    padded[:, padded.shape[1] - n :] = codes  # the first word holds the leftover sites
    return (padded.reshape(count, -1, 32) << _WORD_SHIFTS).sum(axis=2, dtype=np.uint64)


def _row_labels(rows: np.ndarray, n_sites: int) -> np.ndarray:
    """The labels of pack_strings rows: codes to code points, viewed as one ``U`` string each."""
    points = np.ascontiguousarray(_CODE_POINTS[site_codes(rows, n_sites, np.arange(n_sites))])
    return points.view(f"U{n_sites}").reshape(-1)


def _line_error(body: list[tuple[int, str]], width: int) -> PauliError:
    """The error of the first body line that breaks the format; ``width`` is the first label's length."""
    for line_no, line in body:
        tokens = line.split()
        column = line.index(tokens[0]) + 1
        try:
            if len(tokens) != 2:
                raise PauliError(f"expected '<coeff> <STRING>', got {len(tokens)} tokens")
            _parse_coeff(tokens[0])
            column = line.index(tokens[1], column - 1 + len(tokens[0])) + 1
            PauliString.from_label(tokens[1])
        except PauliError as exc:
            return MalformedLine(str(exc), line_no, column)
        if len(tokens[1]) != width:
            return InconsistentLength(f"line {line_no}: string length {len(tokens[1])} != {width}")
    raise AssertionError("every line is well formed")


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented ``<coeff> <STRING>`` format into a merged sum.

    Raises MalformedLine / InconsistentLength / EmptyInput on bad input,
    checked in bulk and reported for the first bad line; a merge that
    overflows is a MalformedLine naming the line that made it overflow.
    """
    body = [(no, line) for no, raw in enumerate(text.splitlines(), 1) if (line := raw.split("#", 1)[0]).strip()]
    if not body:
        raise EmptyInput("no terms in input")
    pairs = [line.split() for _, line in body]
    width = len(pairs[0][-1])
    if set(map(len, pairs)) != {2}:
        raise _line_error(body, width)
    tokens, labels = zip(*pairs)
    numbers, joined = "".join(tokens), "".join(labels)
    coeffs = None
    try:  # real tokens at C speed; a complex one sends every token through _parse_coeff
        coeffs = np.array(list(map(float, tokens)), dtype=np.complex128)
    except ValueError:
        with contextlib.suppress(PauliError):
            coeffs = np.array(list(map(_parse_coeff, tokens)), dtype=np.complex128)
    codes = _BYTE_CODES[np.frombuffer(joined.encode(errors="surrogatepass"), dtype=np.uint8)]
    if (coeffs is None or not np.isfinite(coeffs).all() or not numbers.isascii() or "_" in numbers
            or codes.max() > 3 or set(map(len, labels)) != {width}):
        raise _line_error(body, width)
    op = PauliSum.from_rows(width, _pack_codes(codes.reshape(-1, width)), coeffs)
    if not np.isfinite(op.coeffs).all():
        # a merge overflowed: replay the merges, one per body line, to name the line
        totals: dict[str, complex] = {}
        for (line_no, line), label, coeff in zip(body, labels, coeffs.tolist()):
            totals[label] = totals.get(label, 0j) + coeff
            if not cmath.isfinite(totals[label]):
                message = f"coefficient of {label} is not finite once merged with earlier lines"
                raise MalformedLine(message, line_no, len(line) - len(line.lstrip()) + 1)
    return op


def serialize_pauli_sum(op: PauliSum) -> str:
    """Inverse of parse_pauli_sum; exact round trip for every float."""
    coeffs = map(_format_coeff, op.coeffs.tolist())
    return "\n".join(map("{} {}".format, coeffs, _row_labels(op.rows, op.n_sites).tolist())) + "\n"


# ---------------------------------------------------------------------------
# checked fields of the JSON formats; every failure is a ValueError that
# names the format and the field

def malformed(fmt: str, where: str, problem: str) -> ValueError:
    return ValueError(f"{fmt} field {where}: {problem}")


def json_document(text: str, fmt: str) -> dict:
    """Parse ``text`` and check that it is a ``fmt`` document."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        got = doc.get("format") if isinstance(doc, dict) else doc
        raise ValueError(f"expected format {fmt!r}, got {got!r}")
    return doc


def json_field(fmt: str, doc, key: str, kind, where: str = ""):
    """``doc[key]`` when it is a ``kind``; ``where`` prefixes the field name."""
    # bool is an int subclass in Python but never a valid count or value
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise malformed(fmt, where + key, f"expected {kind.__name__}, got {value!r}")
    return value


def json_finite(fmt: str, doc, key: str, where: str = "") -> float:
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise malformed(fmt, where + key, f"expected a finite number, got {value!r}")
    return float(value)


def json_columns(rows: list, keys: tuple[str, ...], kinds: tuple) -> list[tuple] | None:
    """The ``keys`` of every row as one tuple per key, or None unless every row is a dict
    holding each key as its kind: ``str``, ``float`` (a finite number, read as a float;
    never a bool) or a size (an int in 0..size-1)."""
    try:
        columns = list(zip(*map(operator.itemgetter(*keys), rows))) or [()] * len(keys)
        for j, (column, kind) in enumerate(zip(columns, kinds)):
            types = set(map(type, column))
            if kind is float:  # math.isfinite raises OverflowError on an int past the float range
                if not (types <= {int, float} and all(map(math.isfinite, column))):
                    return None
                columns[j] = tuple(map(float, column))
            elif kind is str and not types <= {str}:
                return None
            elif kind is not str and not (types <= {int} and all(map(range(kind).__contains__, column))):
                return None
    except (KeyError, TypeError, OverflowError):
        return None
    return columns


def json_labels(fmt: str, doc, key: str, width: int) -> tuple[str, ...]:
    """``doc[key]`` as a non-empty, strictly increasing list of ``width``-site Pauli labels."""
    labels = json_field(fmt, doc, key, list)
    if not labels:
        raise malformed(fmt, key, "empty fragment dictionary")
    if (set(map(type, labels)) == {str} and set(map(len, labels)) == {width}
            and set("".join(labels)) <= set(SYMBOLS) and all(map(operator.lt, labels, labels[1:]))):
        return tuple(labels)
    for k, label in enumerate(labels):  # the first bad label
        if not (isinstance(label, str) and len(label) == width and set(label) <= set(SYMBOLS)):
            raise malformed(fmt, f"{key}[{k}]", f"expected a {width}-site Pauli label, got {label!r}")
        if k and label <= labels[k - 1]:  # ASCII order is the I < X < Y < Z order
            raise malformed(fmt, f"{key}[{k}]", f"not increasing: {label!r} after {labels[k - 1]!r}")
    raise AssertionError("every label is well formed")


# ---------------------------------------------------------------------------
# the one JSON writer: every format is laid out as json.dumps(indent=2) would

class JsonText(str):
    """Text that json_text places verbatim: a value already laid out at its depth."""


_CONTAINERS = (dict, list, tuple, JsonText)


@functools.cache
def _flat_encoder(depth: int):
    """C encoder whose item separator ends in the indent of ``depth`` levels."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


def _holds_container(values) -> bool:
    # one issubclass per distinct type; map and set iterate in C
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _emit(value, depth: int, out: list[str]) -> None:
    """Append the pieces of ``value`` laid out as json.dumps(indent=2) lays it out."""
    if isinstance(value, JsonText):  # laid out already
        out.append(value)
        return
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))) or not value:  # a scalar, "[]" or "{}"
        out.append(_flat_encoder(depth)(value))
        return
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not _holds_container(value.values() if is_dict else value):
        # the C encoder lays out a flat container but for its brackets
        text = _flat_encoder(depth + 1)(value)
        out += (text[0], inner, text[1:-1], outer, text[-1])
        return
    out.append("{" if is_dict else "[")
    separator = inner
    for key, child in value.items() if is_dict else enumerate(value):
        out.append(separator)
        separator = "," + inner
        if is_dict:
            out.append(json.encoder.encode_basestring_ascii(key) + ": ")
        _emit(child, depth + 1, out)
    out += (outer, "}" if is_dict else "]")


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, encoded in C a container at a time.

    Byte-identical for every document with string keys; a NaN or an
    infinity raises ValueError instead of being written as invalid JSON.
    """
    out: list[str] = []
    _emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def json_rows(fields: dict[str, str], columns: list) -> JsonText:
    """A list of flat objects, row k holding each key's format applied to ``columns[j][k]``, as
    json_text lays it out as the value of a top-level key; ``%r`` writes a float as json.dumps
    does (float.__repr__), and a NaN or an infinity raises json_text's ValueError. One ``%``
    formats every row."""
    floats = [column for column, fmt in zip(columns, fields.values()) if fmt == "%r"]
    if not all(map(math.isfinite, itertools.chain.from_iterable(floats))):
        _flat_encoder(0)(list(itertools.chain.from_iterable(zip(*floats))))  # raises on the first
    if not columns[0]:
        return JsonText("[]")
    template = "\n    {" + ",".join(f'\n      "{name}": {fmt}' for name, fmt in fields.items()) + "\n    }"
    flat = tuple(itertools.chain.from_iterable(zip(*columns)))
    return JsonText("[" + ",".join([template] * len(columns[0])) % flat + "\n  ]")
