"""Fault injection for the benchmark's oracles.

Each test builds a correct output with the package, checks that the
oracle accepts it, then perturbs one entry and checks that the oracle
flags it. This shows a fault in that output would count toward the
benchmark's failed ops.

    python3 -m pytest -q bench/test_oracles.py
"""

import base64
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from paulibridge.bridge import compile as compile_bridge, decomposition_to_json  # noqa: E402
from paulibridge.lcu import compile_lcu, program_to_json  # noqa: E402
from paulibridge.mpo import build_mpo_qr, mpo_to_json  # noqa: E402
from paulibridge.mps import ground_state_reference  # noqa: E402
from paulibridge.pauli import parse_pauli_sum  # noqa: E402
from paulibridge.sampler import (  # noqa: E402
    SamplerConfig, curate, pool_to_text, sample_strings, samples_to_text,
)

H2_TEXT = oracles.format_terms({k: complex(v) for k, v in workloads.H2.items()})
TERMS = oracles.parse_terms(H2_TEXT)


def test_mpo_oracle_flags_one_tensor_entry():
    text = mpo_to_json(build_mpo_qr(parse_pauli_sum(H2_TEXT)))
    assert oracles.check_mpo(text, TERMS, np.random.default_rng(0)) == []
    doc = json.loads(text)
    shape = (doc["bond_dims"][1], doc["bond_dims"][2], 2, 2)
    w = np.frombuffer(base64.b64decode(doc["tensors"][1]), dtype="<c16").reshape(shape).copy()
    w[0, 0, 0, 0] += 1e-3
    doc["tensors"][1] = base64.b64encode(w.tobytes()).decode()
    assert oracles.check_mpo(json.dumps(doc), TERMS, np.random.default_rng(0))


def test_bridge_oracle_flags_one_coefficient():
    text = decomposition_to_json(compile_bridge(parse_pauli_sum(H2_TEXT), 2))
    assert oracles.check_bridge(text, TERMS) == []
    doc = json.loads(text)
    doc["bridge"][3]["re"] += 1e-6
    assert oracles.check_bridge(json.dumps(doc), TERMS)


def test_lcu_oracle_flags_one_prep_amplitude():
    text = program_to_json(compile_lcu(compile_bridge(parse_pauli_sum(H2_TEXT), 2)))
    assert oracles.check_lcu(text, TERMS) == []
    doc = json.loads(text)
    doc["prep"][0]["amp"] *= 1.001
    assert oracles.check_lcu(json.dumps(doc), TERMS)


def test_sample_oracle_flags_one_sampled_code():
    state = ground_state_reference(parse_pauli_sum(H2_TEXT), max_bond=2).mps
    samples = sample_strings(state, SamplerConfig(n_samples=200, seed=3))
    samples_text = samples_to_text(samples, 4, seed=3)
    pool_text = pool_to_text(curate(samples, 4))
    assert oracles.check_samples(samples_text, pool_text, 4, 200) == []
    lines = samples_text.splitlines()
    first = lines[1]
    swapped = "XYZI"["IXYZ".index(first[0])] + first[1:]
    for bad in (swapped, "Q" + first[1:]):
        perturbed = "\n".join([lines[0], bad] + lines[2:]) + "\n"
        assert oracles.check_samples(perturbed, pool_text, 4, 200)


def test_ritz_oracle_flags_bound_and_monotonicity():
    exact = float(np.linalg.eigvalsh(oracles.dense_matrix(TERMS))[0])
    good = [exact + 0.3, exact + 0.2, exact + 0.1]
    fails, excess = oracles.check_ritz(good, [2, 4, 6], good[-1], 7, TERMS, exact)
    assert fails == [] and abs(excess - 0.1) < 1e-12
    assert oracles.check_ritz(good[::-1], [2, 4, 6], good[0], 7, TERMS, exact)[0]
    below = good[:2] + [exact - 1e-3]
    assert oracles.check_ritz(below, [2, 4, 6], below[-1], 7, TERMS, exact)[0]
    assert oracles.check_ritz(good, [2, 4, 6], good[-1] + 1e-4, 7, TERMS, exact)[0]


def test_dense_oracle_matches_bit_mask_rule():
    h = oracles.dense_matrix({"XY": 1.0, "ZI": 0.5})
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    assert np.allclose(h, np.kron(x, y) + 0.5 * np.kron(z, np.eye(2)))


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
