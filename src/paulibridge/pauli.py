"""Pauli strings, weighted Pauli sums, and their algebra.

A Pauli string over ``n`` sites is a word in {I, X, Y, Z}, held as a packed
row: two bits per site with I=0, X=1, Y=2, Z=3 and site 0 in the highest
bits, cut into ``n_words(n)`` uint64 words of 32 sites, most significant word
first, so the first word holds the leftover sites. Comparing rows word by
word then agrees with lexicographic comparison of the labels under the
symbol order I < X < Y < Z, the canonical ordering used everywhere
downstream. Labels come in through ``label_rows`` and the text format.

Dense conventions: site 0 is the most significant qubit, i.e. the dense
matrix of a string is ``kron(sigma[s_0], kron(sigma[s_1], ...))`` and bit j
of a computational basis index addresses site j from the left.

The one action rule, the binary (x, z) form of Aaronson & Gottesman (PRA
70, 052328, 2004): with x the basis bits of the X and Y sites and z those
of the Y and Z sites, a string maps |b> to i^{#Y} (-1)^{|b & z|} |b ^ x>.
Every dense or matrix-free action sums the terms sharing x into one diagonal.

A PauliSum is held as packed ``rows`` and a complex128 ``coeffs`` vector;
``PauliSum.from_rows`` is its one constructor and merge.

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
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DimensionMismatch",
    "EmptyInput",
    "InconsistentLength",
    "IndexOutOfRange",
    "JsonText",
    "LengthMismatch",
    "MalformedLine",
    "PauliError",
    "PauliSum",
    "SYMBOLS",
    "TooLarge",
    "PAULI_MATRICES",
    "apply_string",
    "dense_string",
    "diagonal_rows",
    "json_document",
    "json_field",
    "json_labels",
    "json_skeleton",
    "json_load",
    "json_rows",
    "json_text",
    "label_rows",
    "malformed",
    "multiply",
    "n_words",
    "packed_product",
    "parse_pauli_sum",
    "pauli_product",
    "require_dense",
    "require_hermitian",
    "rows_fit",
    "serialize_pauli_sum",
    "site_codes",
    "to_dense",
    "unique_rows",
]

SYMBOLS = "IXYZ"

PAULI_MATRICES = np.array(  # sigma_c of code c, the one table every per-site Pauli action reads
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)

# most qubits of any dense matrix: sites, plus ancillas for an lcu walk unitary
DENSE_LIMIT = 12
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
    """A dense matrix, or the 4^n coefficients of an MPO check, would exceed DENSE_LIMIT qubits."""


class DimensionMismatch(PauliError):
    """State vector dimension does not match the operator."""


class IndexOutOfRange(ValueError):
    """An index outside its range: a fermion mode, or a bridge entry's fragment pair."""


class PauliSum:
    """An ordered, duplicate-free weighted sum of Pauli strings.

    Held as two read-only arrays, ``rows`` of packed strings and ``coeffs``
    of complex128, built only by ``from_rows``, under the one merge rule:
    strings keep their first-occurrence order, each one's coefficients are
    added in input order from +0.0, and exact zeros are dropped. Two sums
    are equal when they hold the same strings with equal coefficients, in
    any order.
    """

    __slots__ = ("n_sites", "rows", "coeffs")

    @classmethod
    def from_rows(cls, n_sites: int, rows: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """Merge packed ``rows`` weighted by ``coeffs`` under the one rule."""
        rows, coeffs = np.ascontiguousarray(rows, dtype=np.uint64), np.asarray(coeffs, dtype=np.complex128)
        if not rows_fit(rows, n_sites) or coeffs.ndim != 1 or len(rows) != len(coeffs):
            raise PauliError(f"rows {rows.shape} and coeffs {coeffs.shape} do not fit {n_sites} sites")
        # one stable sort of the keys: each run of equal keys is one string, and starts at its first occurrence
        keys = _row_keys(rows)
        order = keys.argsort(kind="stable")
        sorted_keys = keys[order]
        starts = np.empty(len(keys), dtype=bool)
        starts[:1] = True
        starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
        group = np.empty(len(keys), dtype=np.intp)
        group[order] = starts.cumsum() - 1
        first = order[starts]
        # bincount adds each group's weights in input order from +0.0, one part at a time
        total = np.empty(len(first), dtype=np.complex128)
        total.real = np.bincount(group, coeffs.real, len(first))
        total.imag = np.bincount(group, coeffs.imag, len(first))
        kept = first.argsort()  # the strings in first-occurrence order, exact zeros dropped
        kept = kept[total[kept] != 0]
        op = cls.__new__(cls)
        op.n_sites, op.rows, op.coeffs = n_sites, rows[first[kept]], total[kept]
        op.rows.flags.writeable = op.coeffs.flags.writeable = False
        return op

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        if (self.n_sites, self.n_terms) != (other.n_sites, other.n_terms):
            return False
        mine, theirs = _row_keys(self.rows).argsort(), _row_keys(other.rows).argsort()
        same_rows = (self.rows[mine] == other.rows[theirs]).all()
        return bool(same_rows and (self.coeffs[mine] == other.coeffs[theirs]).all())


# ---------------------------------------------------------------------------
# products: the Z2 x Z2 bit-plane rule of Aaronson & Gottesman (PRA 70,
# 052328, 2004) on the I=0, X=1, Y=2, Z=3 packing

_I_POWERS = np.array([1, 1j, -1, -1j])

_WORD_MASK01 = 0x5555555555555555


def pauli_product(a: np.ndarray, b: np.ndarray) -> tuple[complex, np.ndarray]:
    """Product of two packed rows as (phase, row) with phase in {1, -1, i, -i}."""
    if np.shape(a) != np.shape(b):
        raise LengthMismatch(f"rows of shapes {np.shape(a)} and {np.shape(b)}")
    exponent, row = packed_product(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    return complex(_I_POWERS[exponent]), row


def n_words(n_sites: int) -> int:
    """uint64 words per packed string: 32 sites to a word."""
    return -(-n_sites // 32)


def rows_fit(rows: np.ndarray, n_sites: int) -> bool:
    """Whether ``rows`` are uint64 packed rows of ``n_sites`` sites, no bit set past the sites."""
    return (n_sites >= 1 and rows.dtype == np.uint64 and rows.ndim == 2 and rows.shape[1] == n_words(n_sites)
            and rows[:, 0].max(initial=0) >> 2 * (n_sites - 32 * (rows.shape[1] - 1)) == 0)


def diagonal_rows(rows: np.ndarray) -> np.ndarray:
    """Which packed rows are diagonal, I or Z on every site: no X or Y, whose two bits differ."""
    return ~((rows ^ (rows >> np.uint64(1))) & np.uint64(_WORD_MASK01)).any(axis=1)


def site_codes(packed: np.ndarray, n_sites: int, sites) -> np.ndarray:
    """Symbol codes of packed rows at ``sites`` (an int or an array)."""
    offset = 2 * (n_sites - 1 - np.asarray(sites))
    word = packed[:, -1 - offset // 64]
    return ((word >> (offset % 64).astype(np.uint64)) & np.uint64(3)).astype(np.intp)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each packed row as one key: a uint64 when the row is one word, as that sorts
    fastest, else the row's bytes."""
    rows = np.ascontiguousarray(rows)
    return rows[:, 0] if rows.shape[1] == 1 else rows.view(f"V{8 * rows.shape[1]}")[:, 0]


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed rows, keyed as PauliSum.from_rows keys them, and the 1-D inverse."""
    unique, inverse = np.unique(_row_keys(rows), return_inverse=True)
    return unique.view(np.uint64).reshape(len(unique), rows.shape[1]), inverse


def packed_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of packed strings, broadcast over all but the last axis.

    Returns ``(exponent, codes)``: the product of ``a[...]`` and ``b[...]``
    is ``i**exponent`` times the string ``codes[...]``, with exponent in
    0..3. A code's bits are ``hl``; the successor of a non-identity code in
    X -> Y -> Z -> X is ``(h ^ l, h)``, so a site is cyclic (XY, YZ, ZX)
    when ``b`` is the successor of a non-identity ``a`` and anticyclic when
    ``a`` is the successor of ``b``, and the exponent is
    ``#cyclic - #anticyclic``.
    """
    ah, al = (a >> 1) & _WORD_MASK01, a & _WORD_MASK01
    bh, bl = (b >> 1) & _WORD_MASK01, b & _WORD_MASK01
    cyclic = (ah | al) & ~(bh ^ ah ^ al) & ~(bl ^ ah)
    anticyclic = (bh | bl) & ~(ah ^ bh ^ bl) & ~(al ^ bh)
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

def dense_string(row: np.ndarray, n_sites: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one packed ``n_sites``-site row (site 0 most significant)."""
    return to_dense(PauliSum.from_rows(n_sites, np.reshape(row, (1, -1)), [1.0]))


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


def require_dense(n: int, what: str = "sites") -> None:
    """The one dense ceiling: TooLarge when ``n`` qubits (``what`` names them) exceed DENSE_LIMIT."""
    if n > DENSE_LIMIT:
        raise TooLarge(f"{n} {what} exceeds dense limit {DENSE_LIMIT}")


def to_dense(op: PauliSum) -> np.ndarray:
    """Dense matrix of a sum, in Fortran order, which LAPACK solves in place; refuses more than DENSE_LIMIT sites."""
    require_dense(op.n_sites)
    idx = np.arange(2**op.n_sites)
    out = np.zeros((idx.size, idx.size), dtype=np.complex128, order="F")
    for masks, diagonals in _flip_groups(op):
        out[idx ^ masks[:, None], idx] = diagonals
    return out


def require_hermitian(op: PauliSum) -> PauliSum:
    """``op``, if ||H - H^dag||_F <= 1e-10 max(||H||_F, 1), else ValueError; both norms are read off the
    coefficients, as the strings are Hermitian and Frobenius-orthogonal, each of norm 2^(n/2)."""
    norm = 2.0 ** (op.n_sites / 2)
    if 2 * norm * np.linalg.norm(op.coeffs.imag) > 1e-10 * max(norm * np.linalg.norm(op.coeffs), 1.0):
        raise ValueError("operator is not Hermitian")
    return op


def apply_string(row: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Apply one packed row to a state vector of ``2**n`` entries without forming the matrix."""
    return _act(PauliSum.from_rows(np.size(vec).bit_length() - 1, np.reshape(row, (1, -1)), [1.0]), vec)


# ---------------------------------------------------------------------------
# text format

def _parse_coeff(token: str) -> complex:
    # float() and complex() also take "_" separators and non-ASCII digits
    if token.isascii() and "_" not in token:
        try:
            value = float(token)
        except ValueError:  # a complex a+bi, or no number
            with contextlib.suppress(ValueError):
                if token.endswith("i") and cmath.isfinite(value := complex(token[:-1] + "j")):
                    return value
        else:
            if math.isfinite(value):
                return complex(value)
            raise PauliError(f"non-finite coefficient {token!r}")
    raise PauliError(f"bad coefficient {token!r}")


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


# byte -> symbol code, 4 for a byte that is no symbol; and code -> code point
_BYTE_CODES = np.array([SYMBOLS.find(chr(b)) % 5 for b in range(256)], dtype=np.uint8)
_CODE_POINTS = np.array([ord(c) for c in SYMBOLS], dtype=np.uint32)
_WORD_PLACES = 4 ** np.arange(31, -1, -1, dtype=np.uint64)  # the 32 sites of a word, first site highest


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Packed rows of a ``(count, n_sites)`` array of symbol codes."""
    count, n = codes.shape
    padded = np.zeros((count, 32 * n_words(n)), dtype=np.uint64)
    padded[:, padded.shape[1] - n :] = codes  # the first word holds the leftover sites
    return padded.reshape(count, n_words(n), 32) @ _WORD_PLACES  # an integer product, exact


def label_rows(labels: Sequence[str], n_sites: int) -> np.ndarray:
    """Packed rows of ``n_sites``-site labels such as ``"XIZ"``; anything else is refused."""
    codes = _BYTE_CODES[np.frombuffer("".join(labels).encode(errors="surrogatepass"), dtype=np.uint8)]
    if n_sites < 1 or codes.max(initial=0) > 3 or set(map(len, labels)) - {n_sites}:
        raise PauliError(f"not {n_sites}-site Pauli labels")
    return _pack_codes(codes.reshape(len(labels), n_sites))


def _row_labels(rows: np.ndarray, n_sites: int) -> np.ndarray:
    """The labels of packed rows: codes to code points, viewed as one ``U`` string each."""
    points = np.ascontiguousarray(_CODE_POINTS[site_codes(rows, n_sites, np.arange(n_sites))])
    return points.view(f"U{n_sites}").reshape(-1)


def _read_line(line: str, line_no: int, width: int) -> tuple[complex, str]:
    """The rule: a body line's coefficient and label, or the error of its first broken clause."""
    tokens = line.split()
    column = line.index(tokens[0]) + 1
    try:
        if len(tokens) != 2:
            raise PauliError(f"expected '<coeff> <STRING>', got {len(tokens)} tokens")
        coeff = _parse_coeff(tokens[0])
        column = line.index(tokens[1], column - 1 + len(tokens[0])) + 1
        if tokens[1].strip(SYMBOLS):
            raise PauliError(f"invalid Pauli symbol {tokens[1].strip(SYMBOLS)[0]!r} in {tokens[1]!r}")
    except PauliError as exc:
        raise MalformedLine(str(exc), line_no, column) from None
    if len(tokens[1]) != width:
        raise InconsistentLength(f"line {line_no}: string length {len(tokens[1])} != {width}")
    return coeff, tokens[1]


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented ``<coeff> <STRING>`` format into a merged sum, each line read once, in
    file order, by one rule (``_read_line``): MalformedLine or InconsistentLength at the first bad
    line, EmptyInput if none holds a term; a merge that overflows is a MalformedLine naming its line."""
    coeffs, labels, line_nos, width = [], [], [], 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0] if "#" in raw else raw  # most lines hold no comment to split off
        if not (tokens := line.split()):
            continue
        width = width or len(tokens[-1])
        try:  # the shortcut: a finite ASCII real with no "_" and an IXYZ label of the width
            number, label = tokens
            coeff = float(number)
        except ValueError:
            coeff = math.nan
        if not (math.isfinite(coeff) and number.isascii() and "_" not in number and len(label) == width
                and label.isascii() and not label.encode().strip(b"IXYZ")):  # faster than str.strip
            coeff, label = _read_line(line, line_no, width)
        coeffs.append(coeff)
        labels.append(label)
        line_nos.append(line_no)
    if not labels:
        raise EmptyInput("no terms in input")
    codes = _BYTE_CODES[np.frombuffer("".join(labels).encode(), dtype=np.uint8)]  # each IXYZ of the width
    op = PauliSum.from_rows(width, _pack_codes(codes.reshape(-1, width)), np.array(coeffs, dtype=np.complex128))
    if not np.isfinite(op.coeffs).all():  # a merge overflowed: replay the merges, one per line, to name it
        totals: dict[str, complex] = {}
        for line_no, label, coeff in zip(line_nos, labels, coeffs):
            totals[label] = totals.get(label, 0j) + coeff
            if not cmath.isfinite(totals[label]):
                line = text.splitlines()[line_no - 1]
                message = f"coefficient of {label} is not finite once merged with earlier lines"
                raise MalformedLine(message, line_no, len(line) - len(line.lstrip()) + 1)
    return op


def serialize_pauli_sum(op: PauliSum) -> str:
    """Inverse of parse_pauli_sum, which reads the text back as ``op`` field for field. A sum that it
    would refuse, with no terms or a coefficient that is not finite, is refused here."""
    if not op.n_terms:
        raise EmptyInput("no terms to write")
    if not (finite := np.isfinite(op.coeffs)).all():
        k = int(np.argmin(finite))
        label = _row_labels(op.rows[k : k + 1], op.n_sites)[0]
        raise PauliError(f"coefficient {op.coeffs[k]} of {label} is not finite")
    coeffs = map(_format_coeff, op.coeffs.tolist())
    return "\n".join(map("{} {}".format, coeffs, _row_labels(op.rows, op.n_sites).tolist())) + "\n"


# ---------------------------------------------------------------------------
# checked fields of the JSON formats; every failure is a ValueError that
# names the format and the field

def malformed(fmt: str, where: str, problem: str) -> ValueError:
    return ValueError(f"{fmt} field {where}: {problem}")


def json_load(text: str, fmt: str):
    """``json.loads``, with text that is not JSON or too deeply nested refused as a ValueError naming ``fmt``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{fmt}: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{fmt}: JSON nested too deeply to parse") from None


def json_document(text: str, fmt: str) -> dict:
    """Parse ``text`` and check that it is a ``fmt`` document."""
    doc = json_load(text, fmt)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        got = doc.get("format") if isinstance(doc, dict) else doc
        raise ValueError(f"expected format {fmt!r}, got {got!r}")
    return doc


def json_field(fmt: str, doc, key: str, kind, where: str = ""):
    """``doc[key]`` when it is a ``kind``: ``float`` is a finite number, read as a float, and an
    int kind is an index below it; ``where`` prefixes the field name."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if kind is float:
        try:
            if not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value):
                return float(value)
        except OverflowError:  # math.isfinite on an int past the float range
            pass
        raise malformed(fmt, where + key, f"expected a finite number, got {value!r}")
    size, kind = (kind, int) if isinstance(kind, int) else (None, kind)
    # bool is an int subclass in Python but never a valid count or value
    if not isinstance(value, kind) or isinstance(value, bool):
        raise malformed(fmt, where + key, f"expected {kind.__name__}, got {value!r}")
    if size is not None and not 0 <= value < size:
        raise malformed(fmt, where + key, f"{value} not in 0..{size - 1}")
    return value


def json_labels(fmt: str, doc, key: str, width: int) -> tuple[str, ...]:
    """``doc[key]`` as a non-empty, strictly increasing list of ``width``-site Pauli labels."""
    labels = json_field(fmt, doc, key, list)
    if not labels:
        raise malformed(fmt, key, "empty fragment dictionary")
    for k, label in enumerate(labels):
        if not (isinstance(label, str) and len(label) == width and not label.strip(SYMBOLS)):
            raise malformed(fmt, f"{key}[{k}]", f"expected a {width}-site Pauli label, got {label!r}")
        if k and label <= labels[k - 1]:  # ASCII order is the I < X < Y < Z order
            raise malformed(fmt, f"{key}[{k}]", f"not increasing: {label!r} after {labels[k - 1]!r}")
    return tuple(labels)


def json_skeleton(fmt: str, doc, left_key: str, right_key: str) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """``(cut, left, right)`` of a cut format's header, the cut checked against ``n_sites``."""
    n_sites = json_field(fmt, doc, "n_sites", int)
    cut = json_field(fmt, doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise malformed(fmt, "cut", f"{cut} not in 1..{n_sites - 1}")
    return cut, json_labels(fmt, doc, left_key, cut), json_labels(fmt, doc, right_key, n_sites - cut)


# ---------------------------------------------------------------------------
# the one JSON writer: every format is laid out as json.dumps(indent=2) would

class JsonText(str):
    """Text that json_text places verbatim: a value already laid out at its depth."""


@functools.cache
def _flat_encoder(depth: int):
    """C encoder whose item separator ends in the indent of ``depth`` levels."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


def _emit(value, depth: int, out: list[str]) -> None:
    """Append the pieces of ``value`` laid out as json.dumps(indent=2) lays it out."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, JsonText):  # laid out already
        out.append(value)
    elif isinstance(value, dict) and value:
        separator = "{" + inner
        for key, child in value.items():
            out += (separator, json.encoder.encode_basestring_ascii(key), ": ")
            separator = "," + inner
            _emit(child, depth + 1, out)
        out += ("\n" + "  " * depth, "}")
    elif isinstance(value, (list, tuple)) and value:  # the C encoder lays it out but for its brackets
        text = _flat_encoder(depth + 1)(value)
        out += (text[0], inner, text[1:-1], "\n" + "  " * depth, text[-1])
    else:  # a scalar, "[]" or "{}"
        out.append(_flat_encoder(depth)(value))


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, encoded in C a list or a scalar at a time.

    Byte-identical for every document with string keys whose lists and
    tuples hold no dict, list or tuple (a row list arrives as a JsonText);
    a NaN or an infinity raises ValueError instead of being written as
    invalid JSON.
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
