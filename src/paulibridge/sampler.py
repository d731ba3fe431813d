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
size or chunking. Samples are ``pauli.pack_strings`` rows, so any site
count fits and the layout is pauli's alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from paulibridge import mps
from paulibridge.mps import Mps, _transfer, is_right_canonical_site
from paulibridge.pauli import (
    SYMBOLS,
    PauliError,
    PauliString,
    n_words,
    pack_strings,
    unique_rows,
    unpack_strings,
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
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


def conditional_weights(
    tensor: np.ndarray, env: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and environments for the four symbols at one site.

    Returns ``(weights, envs)`` where ``weights[a]`` is the normalized
    conditional probability of symbol ``a`` and ``envs[a]`` the
    unnormalized next environment; chaining products of weights over a
    full path yields the string's joint probability.
    """
    w, e = _step(tensor, env[None])
    return w[0], e[0]


def _step(tensor: np.ndarray, envs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # envs: (batch, l, l) -> weights (batch, 4), new envs (batch, 4, r, r)
    cand = _transfer(envs[:, None], tensor, np.arange(4))
    raw = np.einsum("barq,barq->ba", cand, cand.conj()).real
    total = raw.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise GaugeViolation("conditional weights vanished; environment collapsed")
    return raw / total, cand


def sample_strings(m: Mps, config: SamplerConfig) -> np.ndarray:
    """Draw Pauli strings as ``(n_samples, n_words(n_sites))`` pack_strings rows."""
    n = m.n_sites
    for j, t in enumerate(m.tensors):
        if not is_right_canonical_site(t, tol=GAUGE_TOL):
            raise GaugeViolation(
                f"site {j} violates the right gauge condition at {GAUGE_TOL}; "
                "canonicalize first"
            )
    # site_rows[j, c]: the row of symbol c alone on site j; a sample ORs one per site
    labels = ("I" * j + c + "I" * (n - 1 - j) for j in range(n) for c in SYMBOLS)
    site_rows = pack_strings(map(PauliString.from_label, labels), n).reshape(n, 4, -1)
    out = np.empty((config.n_samples, n_words(n)), dtype=np.uint64)
    for start in range(0, config.n_samples, mps.CHUNK_STRINGS):
        stop = min(start + mps.CHUNK_STRINGS, config.n_samples)
        out[start:stop] = _sample_chunk(m, site_rows, config.seed, start, stop - start)
    return out


def _sample_chunk(m: Mps, site_rows: np.ndarray, seed: int, start: int, batch: int) -> np.ndarray:
    n = m.n_sites
    uniforms = np.empty((batch, n))
    for i in range(batch):
        gen = np.random.Generator(np.random.Philox(key=[seed, start + i]))
        uniforms[i] = gen.random(n)
    envs = np.ones((batch, 1, 1), dtype=np.complex128)
    packed = np.zeros((batch, site_rows.shape[2]), dtype=np.uint64)
    rows = np.arange(batch)
    for j, tensor in enumerate(m.tensors):
        weights, cand = _step(tensor, envs)
        cum = np.cumsum(weights, axis=1)
        chosen = np.minimum((cum < uniforms[:, j : j + 1]).sum(axis=1), 3)
        envs = cand[rows, chosen]
        del cand  # free before the next site's step
        norms = np.linalg.norm(envs.reshape(batch, -1), axis=1)
        envs /= norms[:, None, None]
        packed |= site_rows[j, chosen]
    return packed


@dataclass
class SampledPool:
    """Curated operator pool split into off-diagonal and diagonal parts.

    ``xy`` holds every distinct off-diagonal string seen; ``iz`` holds
    the most frequent diagonal strings (identity excluded), capped at
    the curation limit. ``counts`` keeps the full tally including
    strings that were not kept.
    """

    n_sites: int
    n_samples: int
    xy: tuple[PauliString, ...]
    iz: tuple[PauliString, ...]
    counts: dict[PauliString, int] = field(default_factory=dict)

    @property
    def strings(self) -> tuple[PauliString, ...]:
        return self.xy + self.iz


def curate(
    samples: np.ndarray, n_sites: int, keep_iz: int | None = None
) -> SampledPool:
    """Tally pack_strings rows and select the pool.

    Off-diagonal strings are all kept; diagonal ones are ranked by
    multiplicity (ties broken lexicographically) and capped at
    ``keep_iz``. The identity never enters the pool.
    """
    if keep_iz is not None and keep_iz < 0:
        raise ValueError(f"keep_iz must be non-negative, got {keep_iz}")
    unique, inverse = unique_rows(samples)
    freq = np.bincount(inverse, minlength=len(unique))
    counts = dict(zip(unpack_strings(unique, n_sites), freq.tolist()))
    ranked = sorted(counts, key=lambda s: (-counts[s], s.label))
    xy = tuple(s for s in ranked if not s.is_diagonal)
    iz = tuple(s for s in ranked if s.is_diagonal and not s.is_identity)
    return SampledPool(n_sites, len(samples), xy, iz[:keep_iz], counts)


def samples_to_text(samples: np.ndarray, n_sites: int, seed: int | None = None) -> str:
    """Raw sample listing, one string label per line."""
    header = f"# samples-v1 n_sites={n_sites} n_samples={len(samples)}"
    if seed is not None:
        header += f" seed={seed}"
    return "\n".join([header, *(s.label for s in unpack_strings(samples, n_sites))]) + "\n"


def _read_listing(text: str, fmt: str, fields: str) -> tuple[int, int, list]:
    """The header sizes and data lines of a ``fmt`` listing.

    ``fields`` names a line's whitespace-separated fields, the label
    last. Each data line comes back as ``(line number, its other fields,
    its string)``; blank and ``#`` lines are skipped.
    """
    header = re.match(rf"#\s*{fmt}\s+n_sites=([0-9]+)\s+n_samples=([0-9]+)", text)
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
        try:
            string = PauliString.from_label(parts[-1])
        except PauliError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if string.n_sites != n_sites:
            raise ValueError(
                f"line {line_no}: string has {string.n_sites} sites, header says {n_sites}"
            )
        lines.append((line_no, parts[:-1], string))
    return n_sites, n_samples, lines


def samples_from_text(text: str) -> tuple[np.ndarray, int]:
    """A samples-v1 listing as pack_strings rows and its site count."""
    n_sites, n_samples, lines = _read_listing(text, "samples-v1", "label")
    if len(lines) != n_samples:
        raise ValueError(f"header says {n_samples} samples, found {len(lines)}")
    return pack_strings((string for _, _, string in lines), n_sites), n_sites


def pool_to_text(pool: SampledPool) -> str:
    """One line per kept string: multiplicity, sampled frequency, label."""
    lines = [f"# pool-v1 n_sites={pool.n_sites} n_samples={pool.n_samples}"]
    for string in pool.strings:
        count = pool.counts[string]
        lines.append(f"{count} {count / pool.n_samples:.8f} {string.label}")
    return "\n".join(lines) + "\n"


def pool_from_text(text: str) -> SampledPool:
    n_sites, n_samples, lines = _read_listing(text, "pool-v1", "count freq label")
    counts: dict[PauliString, int] = {}
    xy: list[PauliString] = []
    iz: list[PauliString] = []
    for line_no, (count_token, freq_token), string in lines:
        numbers = count_token + freq_token  # int() and float() also take "_" and non-ASCII digits
        if not numbers.isascii() or "_" in numbers:
            raise ValueError(f"line {line_no}: count and frequency must be ASCII numbers without '_'")
        try:
            count, freq = int(count_token), float(freq_token)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if count < 1:
            raise ValueError(f"line {line_no}: count must be at least 1, got {count}")
        if not 0 <= freq <= 1:
            raise ValueError(
                f"line {line_no}: frequency must be a finite number in [0, 1], got {freq_token}"
            )
        if string in counts:
            raise ValueError(f"line {line_no}: {string.label} appears twice")
        counts[string] = count
        (iz if string.is_diagonal else xy).append(string)
    if sum(counts.values()) > n_samples:
        raise ValueError(f"counts sum to {sum(counts.values())}, above header n_samples={n_samples}")
    return SampledPool(n_sites, n_samples, tuple(xy), tuple(iz), counts)
