"""Direct sampling of Pauli strings from a right-canonical MPS.

The target distribution assigns a string P probability
``<psi|P|psi>^2 / 2^n``, which sums to one over all 4^n strings for a
normalized state. Sampling walks the sites left to right: after fixing
symbols on the first j sites the environment matrix

    E_j(alpha) = sum_{s,s'} sigma_alpha[s,s'] A_j[s]^dag E_{j-1} A_j[s']

carries everything needed, and the conditional weight of the next symbol
is the squared Frobenius norm of its environment. In the right-canonical
gauge those weights sum to ``2 ||E_{j-1}||^2`` exactly, so normalizing
them per site reproduces the joint distribution with no rejection step.

Each sample consumes an independent Philox stream keyed by
``(seed, sample_index)``, so sample i is the same regardless of batch
size or chunking. Each chunk packs its drawn symbol codes in one step,
by pauli's rule, so samples and curated pools are packed rows from the
draw to the Ritz pencil: any site count fits and the layout is pauli's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from paulibridge import mps
from paulibridge.mps import Mps, _transfer, is_right_canonical_site
from paulibridge.pauli import (
    SYMBOLS,
    PauliError,
    _pack_codes,
    _row_labels,
    diagonal_rows,
    label_rows,
    n_words,
    rows_fit,
    unique_rows,
)

__all__ = [
    "GaugeViolation",
    "SampledPool",
    "SamplerConfig",
    "conditional_weights",
    "curate",
    "pool_from_text",
    "pool_to_text",
    "sample_strings",
    "samples_from_text",
    "samples_to_text",
]

GAUGE_TOL = 1e-10  # largest right-isometry deviation sample_strings accepts


class GaugeViolation(ValueError):
    """The state is not right-canonical, so conditionals would not normalize."""


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        for name, value in (("n_samples", self.n_samples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # Philox keys 1.9 or True as 1
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")


def conditional_weights(tensor: np.ndarray, envs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and next environments of the four symbols at one site, for a batch of environments.

    ``envs`` is ``(batch, l, l)``; ``weights[i, a]`` is the normalized conditional probability of
    symbol ``a`` after ``envs[i]``, and ``cand[i, a]``, ``(batch, 4, r, r)``, its unnormalized next
    environment. Chaining products of weights over a full path yields the string's joint probability.
    """
    cand = _transfer(envs[:, None], tensor, np.arange(4))
    parts = cand.reshape(*cand.shape[:2], -1).view(np.float64)  # real and imaginary, not copied
    raw = np.einsum("bax,bax->ba", parts, parts)
    total = raw.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise GaugeViolation("conditional weights vanished; environment collapsed")
    return raw / total, cand


def sample_strings(m: Mps, config: SamplerConfig) -> np.ndarray:
    """Draw Pauli strings as ``(n_samples, n_words(n_sites))`` packed rows, read-only and kept for
    the last exact state and config (``mps._memo``)."""
    return mps._memo("sample_strings", (mps._content(m.tensors), config.n_samples, config.seed),
                     lambda: _draw(m, config))


def _draw(m: Mps, config: SamplerConfig) -> np.ndarray:
    n = m.n_sites
    for j, t in enumerate(m.tensors):
        if not is_right_canonical_site(t, tol=GAUGE_TOL):
            raise GaugeViolation(
                f"site {j} violates the right gauge condition at {GAUGE_TOL}; "
                "canonicalize first"
            )
    out = np.empty((config.n_samples, n_words(n)), dtype=np.uint64)
    for start in range(0, config.n_samples, mps.CHUNK_STRINGS):
        stop = min(start + mps.CHUNK_STRINGS, config.n_samples)
        out[start:stop] = _sample_chunk(m, config.seed, start, stop - start)
    return out


def _sample_chunk(m: Mps, seed: int, start: int, batch: int) -> np.ndarray:
    n = m.n_sites
    uniforms = np.empty((batch, n))
    for i in range(batch):  # a uint64 key: a list would go through float64 from seed 2**63 on
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, start + i], dtype=np.uint64)))
        uniforms[i] = gen.random(n)
    envs = np.ones((batch, 1, 1), dtype=np.complex128)
    codes = np.empty((batch, n), dtype=np.uint8)
    rows = np.arange(batch)
    for j, tensor in enumerate(m.tensors):
        weights, cand = conditional_weights(tensor, envs)
        cum = np.cumsum(weights, axis=1)
        codes[:, j] = chosen = np.minimum((cum < uniforms[:, j : j + 1]).sum(axis=1), 3)
        envs = cand[rows, chosen]
        del cand  # free before the next site's step
        norms = np.linalg.norm(envs.reshape(batch, -1), axis=1)
        envs /= norms[:, None, None]
    return _pack_codes(codes)


@dataclass
class SampledPool:
    """A curated pool: ``strings``, packed rows, holds the off-diagonal
    strings seen, then the most frequent diagonal ones (identity excluded)
    up to the curation limit, each part ranked by multiplicity, ties in
    label order; ``counts`` holds their multiplicities, aligned with it."""

    n_sites: int
    n_samples: int
    strings: np.ndarray
    counts: np.ndarray


def curate(samples: np.ndarray, n_sites: int, keep_iz: int | None = None) -> SampledPool:
    """Tally packed rows and select the pool.

    Off-diagonal strings are all kept; diagonal ones are ranked by
    multiplicity (ties broken lexicographically) and capped at
    ``keep_iz``. The identity never enters the pool.
    """
    if keep_iz is not None and keep_iz < 0:
        raise ValueError(f"keep_iz must be non-negative, got {keep_iz}")
    if not rows_fit(samples, n_sites):
        raise PauliError(f"sample rows of shape {samples.shape} do not fit {n_sites} sites")
    unique, inverse = unique_rows(samples)
    freq = np.bincount(inverse, minlength=len(unique))
    order = np.lexsort((*unique.T[::-1], -freq))  # the last key, the count, is primary
    unique, freq = unique[order], freq[order]
    diagonal = diagonal_rows(unique)
    keep = np.concatenate([np.flatnonzero(~diagonal), np.flatnonzero(diagonal & unique.any(axis=1))[:keep_iz]])
    return SampledPool(n_sites, len(samples), unique[keep], freq[keep])


def samples_to_text(samples: np.ndarray, n_sites: int, seed: int) -> str:
    """Raw sample listing, one string label per line, under a header that records the seed."""
    if not rows_fit(samples, n_sites):
        raise PauliError(f"sample rows of shape {samples.shape} do not fit {n_sites} sites")
    header = f"# samples-v1 n_sites={n_sites} n_samples={len(samples)} seed={seed}"
    return "\n".join([header, *_row_labels(samples, n_sites).tolist()]) + "\n"


def _read_listing(text: str, fmt: str, fields: str) -> tuple[int, int, list, np.ndarray]:
    """The header sizes, data lines and packed rows of a ``fmt`` listing.

    ``fields`` names a line's whitespace-separated fields, the label last.
    A data line comes back as ``(line number, other fields, label)``, its
    row at the same index; blank and ``#`` lines are skipped.
    """
    header = re.match(rf"#\s*{fmt}\s+n_sites=([0-9]+)\s+n_samples=([0-9]+)(?!\S)", text)
    if header is None:
        raise ValueError(f"missing {fmt} header line")
    n_sites, n_samples = int(header.group(1)), int(header.group(2))
    if n_sites < 1:
        raise ValueError(f"{fmt} header field n_sites: expected at least 1, got {n_sites}")
    lines = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != len(fields.split()):
            raise ValueError(f"line {line_no}: expected {fields!r}")
        label = parts[-1]
        if label.strip(SYMBOLS):
            raise ValueError(f"line {line_no}: invalid Pauli symbol {label.strip(SYMBOLS)[0]!r} in {label!r}")
        if len(label) != n_sites:
            raise ValueError(f"line {line_no}: string has {len(label)} sites, header says {n_sites}")
        lines.append((line_no, parts[:-1], label))
    return n_sites, n_samples, lines, label_rows([label for *_, label in lines], n_sites)


def samples_from_text(text: str) -> tuple[np.ndarray, int]:
    """A samples-v1 listing as packed rows and its site count."""
    n_sites, n_samples, lines, rows = _read_listing(text, "samples-v1", "label")
    if len(lines) != n_samples:
        raise ValueError(f"header says {n_samples} samples, found {len(lines)}")
    return rows, n_sites


def pool_to_text(pool: SampledPool) -> str:
    """One line per kept string: multiplicity, sampled frequency, label."""
    lines = [f"# pool-v1 n_sites={pool.n_sites} n_samples={pool.n_samples}"]
    for count, label in zip(pool.counts.tolist(), _row_labels(pool.strings, pool.n_sites).tolist()):
        lines.append(f"{count} {count / pool.n_samples:.8f} {label}")
    return "\n".join(lines) + "\n"


def pool_from_text(text: str) -> SampledPool:
    """A pool-v1 listing, off-diagonal rows first, each part in file order. A frequency
    may be off count / n_samples by 5e-9, half the last decimal pool_to_text writes."""
    n_sites, n_samples, lines, rows = _read_listing(text, "pool-v1", "count freq label")
    counts: dict[str, int] = {}
    total = 0
    for line_no, (count_token, freq_token), label in lines:
        numbers = count_token + freq_token  # int() and float() also take "_" and non-ASCII digits
        if not numbers.isascii() or "_" in numbers:
            raise ValueError(f"line {line_no}: count and frequency must be ASCII numbers without '_'")
        try:
            count, freq = int(count_token), float(freq_token)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if not 1 <= count < 2**63:  # counts are held as int64
            raise ValueError(f"line {line_no}: count must be at least 1 and below 2**63, got {count}")
        if (total := total + count) > n_samples:  # before the frequency check: n_samples may be 0
            raise ValueError(f"line {line_no}: counts sum to {total}, above header n_samples={n_samples}")
        if not 0 <= freq <= 1:
            raise ValueError(f"line {line_no}: frequency must be a finite number in [0, 1], got {freq_token}")
        if label in counts:
            raise ValueError(f"line {line_no}: {label} appears twice")
        counts[label] = count
    for line_no, (_, freq_token), label in lines:
        # 2**-53 covers reading the decimal into a double: 5/512 is written 0.00976562, exactly 5e-9 off
        if abs(float(freq_token) - counts[label] / n_samples) > 5e-9 + 2**-53:
            raise ValueError(f"line {line_no}: frequency {freq_token} is not {counts[label]}/{n_samples} to 8 decimals")
    order = np.argsort(diagonal_rows(rows), kind="stable")
    return SampledPool(n_sites, n_samples, rows[order], np.array(list(counts.values()), dtype=np.int64)[order])
