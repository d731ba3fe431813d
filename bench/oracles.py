"""Output oracles that share no code with the package under test.

Every check reads the program's output files (or returned values) and
recomputes the expected result from the benchmark's own representation
of the input: a ``{label: coeff}`` dict parsed by ``parse_terms`` here,
dense matrices built by ``dense_matrix`` here, and tensors decoded from
the JSON payloads by ``decode_tensors`` here. Each check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter

import numpy as np

SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)
CODE = {"I": 0, "X": 1, "Y": 2, "Z": 3}

# Relative tolerances, scaled by the operator's largest coefficient or
# one-norm: exact outputs (re-summation, prep norm) get roundoff-level
# slack; contractions and eigensolvers get more.
EXACT_TOL = 1e-12
CONTRACTION_TOL = 1e-9
ENERGY_TOL = 1e-8


def parse_terms(text: str) -> dict[str, complex]:
    """Operator text (``<coeff> <LABEL>`` lines) to a merged dict."""
    terms: dict[str, complex] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        coeff, label = line.split()
        value = complex(coeff[:-1] + "j") if coeff.endswith("i") else complex(float(coeff))
        terms[label] = terms.get(label, 0j) + value
    return {k: v for k, v in terms.items() if v != 0}


def format_terms(terms: dict[str, complex]) -> str:
    return "".join(f"{c.real!r} {label}\n" for label, c in terms.items())


def decode_tensors(doc: dict, phys: tuple[int, ...]) -> list[np.ndarray]:
    bonds = doc["bond_dims"]
    return [
        np.frombuffer(base64.b64decode(payload), dtype="<c16").reshape(
            (bonds[i], bonds[i + 1]) + phys
        )
        for i, payload in enumerate(doc["tensors"])
    ]


def dense_matrix(terms: dict[str, complex]) -> np.ndarray:
    """Dense operator, site 0 the most significant bit, from bit masks."""
    n = len(next(iter(terms)))
    dim = 2**n
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for label, c in terms.items():
        flip = sum(1 << (n - 1 - j) for j, s in enumerate(label) if s in "XY")
        sign = sum(1 << (n - 1 - j) for j, s in enumerate(label) if s in "YZ")
        signs = np.where(np.bitwise_count(idx & sign) & 1, -1.0, 1.0)
        # column b maps to row b ^ flip with phase i^{#Y} (-1)^{parity(b & sign)}
        out[idx ^ flip, idx] += c * (1j ** label.count("Y")) * signs
    return out


def check_hermitian(terms: dict[str, complex]) -> list[str]:
    """A Hermitian input maps to real Pauli coefficients."""
    residue = max(abs(c.imag) for c in terms.values())
    if residue > EXACT_TOL * _scale(terms):
        return [f"mapped operator keeps imaginary parts up to {residue:.2e}"]
    return []


def _scale(terms: dict[str, complex]) -> float:
    return max(1.0, max(abs(c) for c in terms.values()))


def check_bridge(bridge_text: str, terms: dict[str, complex]) -> list[str]:
    """Bridge JSON re-summed over its active pairs equals the operator."""
    doc = json.loads(bridge_text)
    left, right = doc["left_fragments"], doc["right_fragments"]
    summed: dict[str, complex] = {}
    for e in doc["bridge"]:
        c = complex(e["re"], e["im"])
        if c != 0:
            label = left[e["a"]] + right[e["b"]]
            summed[label] = summed.get(label, 0j) + c
    tol = EXACT_TOL * _scale(terms)
    bad = [
        label
        for label in set(summed) | set(terms)
        if abs(summed.get(label, 0j) - terms.get(label, 0j)) > tol
    ]
    return [f"bridge re-sum differs on {len(bad)} strings, e.g. {sorted(bad)[:3]}"] if bad else []


def mpo_coefficients(tensors: list[np.ndarray], labels: list[str]) -> np.ndarray:
    """``Tr(P W) / 2^n`` for each label by a per-site Pauli-trace chain."""
    vecs = np.ones((len(labels), 1), dtype=np.complex128)
    codes = np.array([[CODE[s] for s in label] for label in labels])
    for j, w in enumerate(tensors):
        # traced[p] = Tr(sigma_p^dag W[:, :, s, t]) / 2
        traced = np.einsum("pst,abst->pab", SIGMA.conj(), w) / 2
        nxt = np.empty((len(labels), w.shape[1]), dtype=np.complex128)
        for p in range(4):
            rows = codes[:, j] == p
            nxt[rows] = vecs[rows] @ traced[p]
        vecs = nxt
    return vecs[:, 0]


def check_mpo(mpo_text: str, terms: dict[str, complex], rng: np.random.Generator,
              max_terms: int = 128, n_absent: int = 16) -> list[str]:
    """MPO coefficients match the operator on its terms and on absent strings."""
    doc = json.loads(mpo_text)
    tensors = decode_tensors(doc, (2, 2))
    labels = list(terms)
    if len(labels) > max_terms:
        labels = [labels[i] for i in sorted(rng.choice(len(labels), max_terms, replace=False))]
    n = doc["n_sites"]
    absent: list[str] = []
    while len(absent) < n_absent:
        label = "".join("IXYZ"[c] for c in rng.integers(0, 4, n))
        if label not in terms and label not in absent:
            absent.append(label)
    got = mpo_coefficients(tensors, labels + absent)
    want = np.array([terms[l] for l in labels] + [0j] * len(absent))
    err = float(np.max(np.abs(got - want)))
    tol = CONTRACTION_TOL * _scale(terms)
    return [f"mpo coefficient error {err:.3e} > {tol:.1e}"] if err > tol else []


def check_lcu(program_text: str, terms: dict[str, complex]) -> list[str]:
    """lambda is the one-norm, prep is a unit vector of sqrt(|c|/lambda), phases are c/|c|."""
    doc = json.loads(program_text)
    fails = []
    lam = sum(abs(c) for c in terms.values())
    if abs(doc["lambda"] - lam) > EXACT_TOL * lam:
        fails.append(f"lambda {doc['lambda']!r} != one-norm {lam!r}")
    amps = {(p["a"], p["b"]): p["amp"] for p in doc["prep"]}
    norm2 = sum(a * a for a in amps.values())
    if abs(norm2 - 1) > EXACT_TOL * len(amps):
        fails.append(f"sum of prep^2 is {norm2!r}")
    seen = set()
    for row in doc["select"]:
        label = row["pl"] + row["pr"]
        c = terms.get(label)
        if c is None:
            fails.append(f"select row {label} is not an operator term")
            break
        seen.add(label)
        phase = complex(row["phase_re"], row["phase_im"])
        amp = amps.get((row["a"], row["b"]), 0.0)
        if abs(phase - c / abs(c)) > CONTRACTION_TOL or abs(amp * amp - abs(c) / lam) > CONTRACTION_TOL:
            fails.append(f"select/prep entry for {label} does not encode {c}")
            break
    if len(seen) != len(terms):
        fails.append(f"select covers {len(seen)} of {len(terms)} terms")
    return fails


def check_gates(gates_text: str, n_pairs: int) -> list[str]:
    lines = gates_text.splitlines()
    rows = sum(1 for line in lines if line.startswith("cpauli "))
    if rows != n_pairs or lines[-1] != "unprep":
        return [f"gate listing has {rows} cpauli rows for {n_pairs} pairs"]
    return []


def check_samples(samples_text: str, pool_text: str, n_sites: int, n_samples: int) -> list[str]:
    """Every sample line is a valid string, and curate's counts sum to the sample count."""
    lines = samples_text.splitlines()
    body = [line for line in lines if line and not line.startswith("#")]
    fails = []
    invalid = [
        line for line in body if len(line) != n_sites or set(line) - set("IXYZ")
    ]
    if invalid or len(body) != n_samples:
        fails.append(f"{len(invalid)} invalid lines, {len(body)} of {n_samples} samples")
    tally = Counter(body)
    pool = {}
    for line in pool_text.splitlines():
        if line and not line.startswith("#"):
            count, _, label = line.split()
            pool[label] = int(count)
    identity = "I" * n_sites
    kept = {label: c for label, c in tally.items() if label != identity}
    if pool != kept:
        fails.append(f"pool counts differ from the sample tally on {len(set(pool) ^ set(kept))} strings")
    if sum(pool.values()) + tally.get(identity, 0) != n_samples:
        fails.append("pool counts plus identity do not sum to the sample count")
    return fails


def mps_vector(mps_text: str) -> np.ndarray:
    doc = json.loads(mps_text)
    vec = np.ones((1, 1), dtype=np.complex128)
    for t in decode_tensors(doc, (2,)):
        vec = np.einsum("xl,lrp->xpr", vec, t).reshape(-1, t.shape[1])
    return vec[:, 0]


def check_ground_state(mps_text: str, energy: float, terms: dict[str, complex]) -> list[str]:
    """Printed energy is the lowest eigenvalue, and the stored state attains it."""
    h = dense_matrix(terms)
    exact = float(np.linalg.eigvalsh(h)[0])
    vec = mps_vector(mps_text)
    fails = []
    tol = ENERGY_TOL * max(1.0, abs(exact))
    if abs(energy - exact) > tol:
        fails.append(f"ground energy {energy!r} != {exact!r}")
    norm = float(np.linalg.norm(vec))
    rayleigh = float(np.vdot(vec, h @ vec).real)
    if abs(norm - 1) > CONTRACTION_TOL or abs(rayleigh - exact) > tol:
        fails.append(f"state norm {norm:.12f}, <H> {rayleigh!r} vs {exact!r}")
    return fails


def check_ritz(energies: list[float], pools: list[int], lobpcg: float, pencil_k: int,
               terms: dict[str, complex], reference: float) -> tuple[list[str], float]:
    """Variational bound, nested-pool monotonicity, LOBPCG against the dense solve."""
    exact = float(np.linalg.eigvalsh(dense_matrix(terms))[0])
    tol = ENERGY_TOL * max(1.0, abs(exact))
    fails = []
    if abs(reference - exact) > tol:
        fails.append(f"sweep reference {reference!r} != {exact!r}")
    if any(e < exact - tol for e in energies + [lobpcg]):
        fails.append("Ritz energy below the exact ground energy")
    if any(b > a + tol for a, b in zip(energies, energies[1:])):
        fails.append(f"energies increase across nested pools: {energies}")
    if any(b < a for a, b in zip(pools, pools[1:])) or pencil_k != pools[-1] + 1:
        fails.append(f"pools {pools} not nested into the final pencil of size {pencil_k}")
    if abs(lobpcg - energies[-1]) > 1e-7 * max(1.0, abs(exact)):
        fails.append(f"LOBPCG {lobpcg!r} disagrees with the dense solve {energies[-1]!r}")
    if not all(math.isfinite(e) for e in energies):
        fails.append("non-finite Ritz energy")
    return fails, energies[-1] - exact
