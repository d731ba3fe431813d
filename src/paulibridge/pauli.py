"""Pauli strings, weighted Pauli sums, and their algebra.

A Pauli string over ``n`` sites is a word in {I, X, Y, Z}. Strings are stored
bit-packed, two bits per site with I=0, X=1, Y=2, Z=3, and site 0 occupying
the highest bits. That packing makes integer comparison of the payload agree
with lexicographic comparison of the labels under the symbol order
I < X < Y < Z, which is the canonical ordering used everywhere downstream.

Dense conventions: site 0 is the most significant qubit, i.e. the dense
matrix of a string is ``kron(sigma[s_0], kron(sigma[s_1], ...))`` and bit j
of a computational basis index addresses site j from the left.

The text format for weighted sums is line oriented: one ``<coeff> <STRING>``
pair per line, ``#`` starts a comment, blank lines are skipped. Coefficients
are real (``-0.25``, ``1e-3``) or complex in ``a+bi`` form (``0.5-0.25i``).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DimensionMismatch",
    "EmptyInput",
    "InconsistentLength",
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
    "json_field",
    "json_finite",
    "json_labels",
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
        bits = 0
        n = 0
        for code in codes:
            # int() first: a numpy code would wrap bits at 32 sites
            bits = (bits << 2) | (int(code) & 3)
            n += 1
        return cls(n, bits)

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, 0)

    def code(self, site: int) -> int:
        """Symbol code (0..3) at ``site``."""
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} out of range")
        return (self.bits >> (2 * (self.n_sites - 1 - site))) & 3

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(self.code(j) for j in range(self.n_sites))

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

    def _planes(self) -> tuple[int, int]:
        """High and low code bits, one bit per site, site 0 most significant."""
        digits = format(self.bits, f"0{2 * self.n_sites}b")
        return int(digits[0::2], 2), int(digits[1::2], 2)

    @property
    def x_flip_mask(self) -> int:
        """Basis-index bits flipped by this string (X and Y sites)."""
        high, low = self._planes()
        return high ^ low

    @property
    def phase_mask(self) -> int:
        """Basis-index bits contributing a (-1) phase (Y and Z sites)."""
        return self._planes()[0]

    @property
    def y_count(self) -> int:
        high, low = self._planes()
        return (high & ~low).bit_count()


@dataclass(frozen=True)
class PauliTerm:
    """A complex coefficient attached to a Pauli string."""

    coeff: complex
    string: PauliString


class PauliSum:
    """An ordered, duplicate-free weighted sum of Pauli strings.

    Terms passed to the constructor are merged by string (coefficients
    added), preserving first-occurrence order; exactly-zero coefficients
    are dropped after merging. All strings must share one site count.
    """

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms: Iterable[PauliTerm | tuple[complex, PauliString]]):
        merged: dict[PauliString, complex] = {}
        for item in terms:
            if isinstance(item, PauliTerm):
                coeff, string = item.coeff, item.string
            else:
                coeff, string = item
            if string.n_sites != n_sites:
                raise InconsistentLength(
                    f"string {string} has {string.n_sites} sites, expected {n_sites}"
                )
            merged[string] = merged.get(string, 0j) + complex(coeff)
        self.n_sites = n_sites
        self.terms: tuple[PauliTerm, ...] = tuple(
            PauliTerm(c, s) for s, c in merged.items() if c != 0
        )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

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

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

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
    phase = _I_POWERS[(cyclic.bit_count() - anticyclic.bit_count()) % 4]
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


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Term-by-term product of two sums, merged."""
    if a.n_sites != b.n_sites:
        raise LengthMismatch(f"{a.n_sites} sites vs {b.n_sites} sites")
    out: list[tuple[complex, PauliString]] = []
    for ta in a.terms:
        for tb in b.terms:
            phase, s = pauli_product(ta.string, tb.string)
            out.append((ta.coeff * tb.coeff * phase, s))
    return PauliSum(a.n_sites, out)


# ---------------------------------------------------------------------------
# dense forms and state-vector application

def dense_string(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a single string (site 0 most significant)."""
    return to_dense(PauliSum(p.n_sites, [(1.0, p)]))


def to_dense(op: PauliSum) -> np.ndarray:
    """Dense matrix of a sum; refuses more than DENSE_LIMIT sites."""
    if op.n_sites > DENSE_LIMIT:
        raise TooLarge(f"{op.n_sites} sites exceeds dense limit {DENSE_LIMIT}")
    idx = np.arange(2**op.n_sites)
    out = np.zeros((idx.size, idx.size), dtype=np.complex128)
    for term in op.terms:
        out[idx ^ term.string.x_flip_mask, idx] += term.coeff * _string_phases(term.string, idx)
    return out


def _string_phases(p: PauliString, idx: np.ndarray) -> np.ndarray:
    """Phases of P|b> = i^{#Y} (-1)^{sum of b over Y,Z sites} |b xor flips>."""
    parity = np.bitwise_count(idx & p.phase_mask) & 1
    return (1j**p.y_count) * np.where(parity, -1.0, 1.0)


def apply_string(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Apply one Pauli string to a state vector without forming the matrix."""
    n = p.n_sites
    if vec.shape != (2**n,):
        raise DimensionMismatch(f"state has shape {vec.shape}, expected ({2**n},)")
    idx = np.arange(2**n)
    out = np.empty_like(vec, dtype=np.complex128)
    out[idx ^ p.x_flip_mask] = _string_phases(p, idx) * vec
    return out


def expectation(op: PauliSum, state: np.ndarray) -> complex:
    """<state|op|state> evaluated term by term on the vector."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (2**op.n_sites,):
        raise DimensionMismatch(
            f"state has shape {state.shape}, operator needs ({2**op.n_sites},)"
        )
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    acc = 0j
    for term in op.terms:
        acc += term.coeff * np.vdot(state, apply_string(term.string, state))
    return acc


# ---------------------------------------------------------------------------
# text format

def _parse_coeff(token: str) -> complex:
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


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented ``<coeff> <STRING>`` format.

    Duplicate strings are merged, exactly-zero results dropped, term order
    is first occurrence. Raises MalformedLine / InconsistentLength /
    EmptyInput on bad input; a merge that overflows is a MalformedLine
    naming the line that made it overflow.
    """
    entries: list[tuple[complex, PauliString]] = []
    n_sites: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(
                f"expected '<coeff> <STRING>', got {len(tokens)} tokens",
                line_no, line.index(tokens[0]) + 1,
            )
        # columns are looked up only on the way out: a good line needs none
        try:
            coeff = _parse_coeff(tokens[0])
        except PauliError as exc:
            raise MalformedLine(str(exc), line_no, line.index(tokens[0]) + 1) from None
        try:
            string = PauliString.from_label(tokens[1])
        except PauliError as exc:
            string_col = line.index(tokens[1], line.index(tokens[0]) + len(tokens[0])) + 1
            raise MalformedLine(str(exc), line_no, string_col) from None
        if n_sites is None:
            n_sites = string.n_sites
        elif string.n_sites != n_sites:
            raise InconsistentLength(
                f"line {line_no}: string length {string.n_sites} != {n_sites}"
            )
        entries.append((coeff, string))
    if n_sites is None:
        raise EmptyInput("no terms in input")
    op = PauliSum(n_sites, entries)
    if op.n_terms < len(entries) and not all(cmath.isfinite(t.coeff) for t in op.terms):
        # a merge overflowed: replay the merges, one per non-blank line, to name the line
        lines = [(no, raw) for no, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].strip()]
        totals: dict[PauliString, complex] = {}
        for (line_no, raw), (coeff, string) in zip(lines, entries):
            totals[string] = totals.get(string, 0j) + coeff
            if not cmath.isfinite(totals[string]):
                raise MalformedLine(
                    f"coefficient of {string} is not finite once merged with earlier lines",
                    line_no, len(raw) - len(raw.lstrip()) + 1,
                )
    return op


def serialize_pauli_sum(op: PauliSum) -> str:
    """Inverse of parse_pauli_sum; exact round trip for every float."""
    lines = [f"{_format_coeff(t.coeff)} {t.string.label}" for t in op.terms]
    return "\n".join(lines) + "\n"


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


def json_labels(fmt: str, doc, key: str, width: int) -> tuple[str, ...]:
    """``doc[key]`` as a non-empty, strictly increasing list of ``width``-site Pauli labels."""
    labels = json_field(fmt, doc, key, list)
    if not labels:
        raise malformed(fmt, key, "empty fragment dictionary")
    for k, label in enumerate(labels):
        if not (isinstance(label, str) and len(label) == width and set(label) <= set(SYMBOLS)):
            raise malformed(fmt, f"{key}[{k}]", f"expected a {width}-site Pauli label, got {label!r}")
        if k and label <= labels[k - 1]:  # ASCII order is the I < X < Y < Z order
            raise malformed(fmt, f"{key}[{k}]", f"not increasing: {label!r} after {labels[k - 1]!r}")
    return tuple(labels)


# ---------------------------------------------------------------------------
# the one JSON writer: every format is laid out as json.dumps(indent=2) would

_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """C encoder whose item separator ends in the indent of ``depth`` levels."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


def _holds_container(values) -> bool:
    # one issubclass per distinct type; map and set iterate in C
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _emit(value, depth: int, out: list[str]) -> None:
    """Append the pieces of ``value`` laid out as json.dumps(indent=2) lays it out."""
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
    if (not is_dict and set(map(type, value)) == {dict} and all(value)
            and not _holds_container(itertools.chain.from_iterable(map(dict.values, value)))):
        # flat rows: every newline the encoder writes is a separator, since
        # an encoded string escapes its own, so "},<newline>{" only ends a row
        row = inner + "  "
        text = _flat_encoder(depth + 2)(value)[2:-2]
        out += ("[", inner, "{", row, text.replace("}," + row + "{", inner + "}," + inner + "{" + row),
                inner, "}", outer, "]")
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
