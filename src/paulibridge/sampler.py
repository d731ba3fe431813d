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
size or chunking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from paulibridge import mps
from paulibridge.mps import Mps, _transfer, is_right_canonical_site
from paulibridge.pauli import PauliError, PauliString

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
    """Draw packed Pauli strings, one uint64 of 2-bit codes per sample."""
    n = m.n_sites
    if n > 32:
        raise ValueError(f"{n} sites exceeds the 32-site packing limit")
    for j, t in enumerate(m.tensors):
        if not is_right_canonical_site(t, tol=GAUGE_TOL):
            raise GaugeViolation(
                f"site {j} violates the right gauge condition at {GAUGE_TOL}; "
                "canonicalize first"
            )
    out = np.empty(config.n_samples, dtype=np.uint64)
    for start in range(0, config.n_samples, mps.CHUNK_STRINGS):
        stop = min(start + mps.CHUNK_STRINGS, config.n_samples)
        out[start:stop] = _sample_chunk(m, config.seed, start, stop - start)
    return out


def _sample_chunk(m: Mps, seed: int, start: int, batch: int) -> np.ndarray:
    n = m.n_sites
    uniforms = np.empty((batch, n))
    for i in range(batch):
        gen = np.random.Generator(np.random.Philox(key=[seed, start + i]))
        uniforms[i] = gen.random(n)
    envs = np.ones((batch, 1, 1), dtype=np.complex128)
    packed = np.zeros(batch, dtype=np.uint64)
    rows = np.arange(batch)
    for j, tensor in enumerate(m.tensors):
        weights, cand = _step(tensor, envs)
        cum = np.cumsum(weights, axis=1)
        chosen = np.minimum((cum < uniforms[:, j : j + 1]).sum(axis=1), 3)
        envs = cand[rows, chosen]
        del cand  # free before the next site's step
        norms = np.linalg.norm(envs.reshape(batch, -1), axis=1)
        envs /= norms[:, None, None]
        packed = (packed << np.uint64(2)) | chosen.astype(np.uint64)
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
    """Tally samples and select the pool.

    Off-diagonal strings are all kept; diagonal ones are ranked by
    multiplicity (ties broken lexicographically) and capped at
    ``keep_iz``. The identity never enters the pool.
    """
    values, freq = np.unique(np.asarray(samples, dtype=np.uint64), return_counts=True)
    counts = {
        PauliString(n_sites, int(v)): int(c) for v, c in zip(values, freq)
    }
    xy: list[tuple[int, PauliString]] = []
    iz: list[tuple[int, PauliString]] = []
    for string, count in counts.items():
        if string.is_identity:
            continue
        if string.is_diagonal:
            iz.append((count, string))
        else:
            xy.append((count, string))
    xy.sort(key=lambda item: (-item[0], item[1].label))
    iz.sort(key=lambda item: (-item[0], item[1].label))
    if keep_iz is not None:
        if keep_iz < 0:
            raise ValueError(f"keep_iz must be non-negative, got {keep_iz}")
        iz = iz[:keep_iz]
    return SampledPool(
        n_sites,
        int(np.asarray(samples).size),
        tuple(s for _, s in xy),
        tuple(s for _, s in iz),
        counts,
    )


def samples_to_text(samples: np.ndarray, n_sites: int, seed: int | None = None) -> str:
    """Raw sample listing, one string label per line."""
    header = f"# samples-v1 n_sites={n_sites} n_samples={np.asarray(samples).size}"
    if seed is not None:
        header += f" seed={seed}"
    lines = [header]
    lines += [PauliString(n_sites, int(v)).label for v in np.asarray(samples)]
    return "\n".join(lines) + "\n"


def samples_from_text(text: str) -> tuple[np.ndarray, int]:
    header = re.match(r"#\s*samples-v1\s+n_sites=(\d+)\s+n_samples=(\d+)", text)
    if header is None:
        raise ValueError("missing samples-v1 header line")
    n_sites = int(header.group(1))
    if not 1 <= n_sites <= 32:
        # a sample is one uint64 of two bits per site
        raise ValueError(f"samples-v1 header field n_sites: expected 1..32, got {n_sites}")
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            string = PauliString.from_label(stripped)
        except PauliError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if string.n_sites != n_sites:
            raise ValueError(
                f"line {line_no}: string has {string.n_sites} sites, header says {n_sites}"
            )
        values.append(string.bits)
    if len(values) != int(header.group(2)):
        raise ValueError(
            f"header says {header.group(2)} samples, found {len(values)}"
        )
    return np.array(values, dtype=np.uint64), n_sites


def pool_to_text(pool: SampledPool) -> str:
    """One line per kept string: multiplicity, sampled frequency, label."""
    lines = [f"# pool-v1 n_sites={pool.n_sites} n_samples={pool.n_samples}"]
    for string in pool.strings:
        count = pool.counts[string]
        lines.append(f"{count} {count / pool.n_samples:.8f} {string.label}")
    return "\n".join(lines) + "\n"


def pool_from_text(text: str) -> SampledPool:
    header = re.match(r"#\s*pool-v1\s+n_sites=(\d+)\s+n_samples=(\d+)", text)
    if header is None:
        raise ValueError("missing pool-v1 header line")
    n_sites, n_samples = int(header.group(1)), int(header.group(2))
    if n_sites < 1:
        raise ValueError(f"pool-v1 header field n_sites: expected at least 1, got {n_sites}")
    counts: dict[PauliString, int] = {}
    xy: list[PauliString] = []
    iz: list[PauliString] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 'count freq label'")
        try:
            count, freq = int(parts[0]), float(parts[1])
            string = PauliString.from_label(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if count < 1:
            raise ValueError(f"line {line_no}: count must be at least 1, got {count}")
        if not 0 <= freq <= 1:
            raise ValueError(
                f"line {line_no}: frequency must be a finite number in [0, 1], got {parts[1]}"
            )
        if string.n_sites != n_sites:
            raise ValueError(
                f"line {line_no}: string has {string.n_sites} sites, header says {n_sites}"
            )
        if string in counts:
            raise ValueError(f"line {line_no}: {string.label} appears twice")
        counts[string] = count
        (iz if string.is_diagonal else xy).append(string)
    if sum(counts.values()) > n_samples:
        raise ValueError(f"counts sum to {sum(counts.values())}, above header n_samples={n_samples}")
    return SampledPool(n_sites, n_samples, tuple(xy), tuple(iz), counts)
