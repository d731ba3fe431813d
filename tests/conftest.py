import base64
import functools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from paulibridge.bridge import compile as compile_bridge
from paulibridge.lcu import compile_lcu
from paulibridge.pauli import PAULI_MATRICES, PauliString, PauliSum, parse_pauli_sum

FIXTURES = Path(__file__).parent / "fixtures"

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and more of them
# for the properties that compare a fast path's bytes with its oracle's
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.register_profile("ci", derandomize=True)
settings.load_profile(PROFILE)
BYTE_IDENTITY = settings(max_examples=1000 if PROFILE == "ci" else 150, deadline=None)

# three terms on the four sites of the h2 fixture, with another skeleton
OTHER_OPERATOR = "1.0 XXXX\n0.5 ZZZZ\n-0.25 XZZX\n"


@pytest.fixture(scope="session")
def h2_text() -> str:
    return (FIXTURES / "h2_subset.pauli").read_text()


@pytest.fixture(scope="session")
def h2_subset(h2_text) -> PauliSum:
    return parse_pauli_sum(h2_text)


def random_pauli_sum(rng: np.random.Generator, n_sites: int, n_terms: int,
                     complex_coeffs: bool = False) -> PauliSum:
    """Distinct random strings with nonzero coefficients."""
    n_terms = min(n_terms, 4**n_sites)
    seen = set()
    entries = []
    while len(entries) < n_terms:
        codes = rng.integers(0, 4, size=n_sites)
        s = PauliString.from_codes(int(c) for c in codes)
        if s in seen:
            continue
        seen.add(s)
        c = rng.standard_normal()
        if complex_coeffs:
            c = c + 1j * rng.standard_normal()
        if c == 0:
            continue
        entries.append((c, s))
    return PauliSum(n_sites, entries)


def thirteen_qubit_op() -> PauliSum:
    """Ten distinct two-site and three-site halves: 5 sites + 4 + 4 ancillas at cut 2."""
    def word(k, width):
        return "".join("IXYZ"[(k >> (2 * j)) & 3] for j in range(width))

    return PauliSum(5, [(0.1 * (k + 1), PauliString.from_label(word(k, 2) + word(3 * k + 1, 3)))
                        for k in range(10)])


def random_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    v = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    return v / np.linalg.norm(v)


def kron_string(string: PauliString) -> np.ndarray:
    """Dense oracle of one string: the Kronecker product of its site matrices."""
    return functools.reduce(np.kron, (PAULI_MATRICES[c] for c in string.codes))


def kron_dense(op: PauliSum) -> np.ndarray:
    """Dense oracle of a sum: its terms' Kronecker products added in term order."""
    zero = np.zeros((2**op.n_sites,) * 2, dtype=np.complex128)
    return sum((t.coeff * kron_string(t.string) for t in op.terms), zero)


def scatter_dense(op: PauliSum) -> np.ndarray:
    """Byte oracle of to_dense: each term scattered on its own, in term order.

    A string maps |b> to i^{#Y} (-1)^{|b & z|} |b ^ x>, with the masks x
    (X and Y sites) and z (Y and Z sites) read off the label, site 0 the
    most significant bit.
    """
    idx = np.arange(2**op.n_sites)
    out = np.zeros((idx.size, idx.size), dtype=np.complex128)
    for t in op.terms:
        label = t.string.label
        x = int("".join("1" if s in "XY" else "0" for s in label), 2)
        z = int("".join("1" if s in "YZ" else "0" for s in label), 2)
        signs = np.where(np.bitwise_count(idx & z) & 1, -1.0, 1.0)
        out[idx ^ x, idx] += t.coeff * (1j ** label.count("Y") * signs)
    return out


def _set_first_value_nan(doc):
    raw = bytearray(base64.b64decode(doc["tensors"][0]))
    raw[:8] = np.array([np.nan]).tobytes()
    doc["tensors"][0] = base64.b64encode(bytes(raw)).decode()


# (field named in the error, mutation) for mps-v1 and mpo-v1 documents of
# at least three sites; both readers share one header check
CHAIN_MUTATIONS = [
    pytest.param("n_sites", lambda d: d.update(n_sites="4"), id="n-sites-string"),
    pytest.param("n_sites", lambda d: d.update(n_sites=0), id="n-sites-zero"),
    pytest.param("bond_dims", lambda d: d.update(bond_dims=None), id="bond-dims-null"),
    pytest.param("bond_dims", lambda d: d["bond_dims"].__setitem__(1, 2.0), id="bond-dim-float"),
    pytest.param("bond_dims", lambda d: d["bond_dims"].__setitem__(2, True), id="bond-dim-bool"),
    pytest.param("bond_dims", lambda d: d["bond_dims"].__setitem__(0, 2), id="left-boundary-bond"),
    pytest.param("bond_dims", lambda d: d["bond_dims"].__setitem__(-1, 2), id="right-boundary-bond"),
    pytest.param("bond_dims", lambda d: d["bond_dims"].pop(), id="bond-dims-short"),
    pytest.param("tensors", lambda d: d.update(tensors=None), id="tensors-null"),
    pytest.param("tensors", lambda d: d["tensors"].pop(), id="tensors-short"),
    pytest.param("tensors[0]", lambda d: d["tensors"].__setitem__(0, None), id="payload-null"),
    pytest.param("tensors[1]", lambda d: d["tensors"].__setitem__(1, 7), id="payload-number"),
    pytest.param("tensors[1]", lambda d: d["tensors"].__setitem__(1, "@@@@"), id="payload-not-base64"),
    pytest.param("tensors[2]", lambda d: d["tensors"].__setitem__(2, d["tensors"][2][:-24]), id="payload-short"),
    pytest.param("tensors[0]", _set_first_value_nan, id="payload-nan"),
    pytest.param("gauge", lambda d: d.update(gauge=None), id="gauge-null"),
    pytest.param("gauge", lambda d: d["gauge"].pop(), id="gauge-short"),
]


# (field named in the error, mutation) for the bridge-v1 document that
# compiling the h2 fixture at cut 2 writes
BRIDGE_MUTATIONS = [
    pytest.param("bridge[0].re", lambda d: d["bridge"][0].update(re=float("nan")), id="nan-re"),
    pytest.param("bridge[0].re", lambda d: d["bridge"][0].update(re=None), id="null-re"),
    pytest.param("bridge[1].im", lambda d: d["bridge"][1].update(im=float("inf")), id="infinite-im"),
    pytest.param("bridge[2].a", lambda d: d["bridge"][2].update(a="0"), id="string-index"),
    pytest.param("bridge[3].b", lambda d: d["bridge"][3].update(b=1.0), id="float-index"),
    pytest.param("bridge[0].a", lambda d: d["bridge"].__setitem__(0, 5), id="entry-not-object"),
    pytest.param("bridge[0]", lambda d: d["bridge"][0].update(a=99), id="index-out-of-range"),
    pytest.param("bridge[1]", lambda d: d["bridge"][1].update(
        a=d["bridge"][0]["a"], b=d["bridge"][0]["b"]), id="pair-twice"),
    pytest.param("left_fragments[0]", lambda d: d["left_fragments"].__setitem__(0, None),
                 id="null-fragment"),
    pytest.param("cut", lambda d: d.update(cut="2"), id="cut-string"),
    pytest.param("left_fragments[0]", lambda d: d["left_fragments"].__setitem__(0, ""), id="label-empty"),
    pytest.param("left_fragments[1]", lambda d: d["left_fragments"].__setitem__(1, "XQ"), id="label-bad-symbol"),
    pytest.param("right_fragments[1]", lambda d: d["right_fragments"].__setitem__(1, "XYZ"),
                 id="label-mixed-widths"),
    pytest.param("left_fragments[1]", lambda d: d["left_fragments"].__setitem__(1, "II"),
                 id="label-repeated"),
    pytest.param("right_fragments[1]", lambda d: d["right_fragments"].reverse(), id="labels-reversed"),
    pytest.param("left_fragments[0]", lambda d: d.update(cut=1), id="left-width-not-cut"),
    pytest.param("n_sites", lambda d: d.update(n_sites="4"), id="n-sites-string"),
    pytest.param("cut", lambda d: d.update(n_sites=2), id="n-sites-at-cut"),
    pytest.param("right_fragments[0]", lambda d: d.update(n_sites=3), id="n-sites-below-width"),
]

# (field named in the error, mutation) for tests/fixtures/number_op.json
FERMION_MUTATIONS = [
    pytest.param("n", lambda d: d.pop("n"), id="n-missing"),
    pytest.param("n", lambda d: d.update(n=0), id="n-zero"),
    pytest.param("n", lambda d: d.update(n="1"), id="n-string"),
    pytest.param("n", lambda d: d.update(n=True), id="n-bool"),
    pytest.param("terms", lambda d: d.update(terms=None), id="terms-null"),
    pytest.param("terms[0]", lambda d: d["terms"].__setitem__(0, 3), id="term-not-object"),
    pytest.param("terms[0].kind", lambda d: d["terms"][0].update(kind=1), id="kind-int"),
    pytest.param("terms[0]", lambda d: d["terms"][0].update(kind="three_body"), id="kind-unknown"),
    pytest.param("terms[0]", lambda d: d["terms"][0].update(indices=[0]), id="indices-short"),
    pytest.param("terms[0].indices", lambda d: d["terms"][0].update(indices="00"), id="indices-string"),
    pytest.param("terms[0].indices", lambda d: d["terms"][0].update(indices=[0, "a"]), id="index-string"),
    pytest.param("terms[0].indices", lambda d: d["terms"][0].update(indices=[0, 1]), id="index-out-of-range"),
    pytest.param("terms[0].coeff", lambda d: d["terms"][0].update(coeff=float("nan")), id="coeff-nan"),
    pytest.param("terms[0].coeff", lambda d: d["terms"][0].update(coeff="1.0"), id="coeff-string"),
    pytest.param("terms[0].coeff", lambda d: d["terms"][0].update(coeff=[1.0, 0.0, 0.0]), id="coeff-triple"),
    pytest.param("terms[0].coeff[1]", lambda d: d["terms"][0].update(coeff=[1.0, float("inf")]),
                 id="coeff-pair-infinite"),
]

# the select hash of another three-term operator's program at cut 2
OTHER_SELECT_HASH = compile_lcu(compile_bridge(parse_pauli_sum(OTHER_OPERATOR), 2)).select_hash

# (field named in the error, mutation) for the lcu-v1 program of that bridge
PROGRAM_MUTATIONS = [
    pytest.param("select[0].a", lambda d: d["select"][0].update(a=99), id="select-index-out-of-range"),
    pytest.param("prep[0].amp", lambda d: d["prep"][0].update(amp=None), id="null-amplitude"),
    pytest.param("prep[1].b", lambda d: d["prep"][1].update(b=-1), id="prep-index-negative"),
    pytest.param("prep[0].a", lambda d: d["prep"][0].update(a="0"), id="prep-index-string"),
    pytest.param("select[2].phase_re", lambda d: d["select"][2].update(phase_re=float("nan")), id="nan-phase"),
    pytest.param("select[1].phase_im", lambda d: d["select"][1].update(phase_im=True), id="bool-phase"),
    pytest.param("select[0]", lambda d: d["select"][0].update(phase_re=5.0), id="phase-off-unit-circle"),
    pytest.param("select[2]", lambda d: d["select"][2].update(phase_re=0.0, phase_im=0.0), id="phase-zero"),
    pytest.param("select[0].a", lambda d: d["select"].__setitem__(0, 3), id="select-row-not-object"),
    pytest.param("prep", lambda d: [row.update(amp=2 * row["amp"]) for row in d["prep"]], id="prep-norm-two"),
    pytest.param("a_left", lambda d: d.update(a_left=7), id="a-left-too-wide"),
    pytest.param("a_right", lambda d: d.update(a_right=None), id="a-right-null"),
    pytest.param("n_sites", lambda d: d.update(n_sites="4"), id="n-sites-string"),
    pytest.param("cut", lambda d: d.update(cut=4), id="cut-at-end"),
    pytest.param("lambda", lambda d: d.update(**{"lambda": -1.0}), id="lambda-negative"),
    pytest.param("lambda", lambda d: d.update(**{"lambda": float("inf")}), id="lambda-infinite"),
    pytest.param("left[0]", lambda d: d["left"].__setitem__(0, "IIZ"), id="label-wrong-width"),
    pytest.param("right", lambda d: d.update(right={}), id="right-not-list"),
    pytest.param("left[1]", lambda d: d["left"].__setitem__(1, "II"), id="label-repeated"),
    pytest.param("right[1]", lambda d: d["right"].reverse(), id="labels-reversed"),
    pytest.param("select_hash", lambda d: d.pop("select_hash"), id="select-hash-missing"),
    pytest.param("prep[4]", lambda d: d["prep"][4].update(b=1), id="prep-pair-without-select-row"),
    pytest.param("prep[1]", lambda d: d["prep"][1].update(a=0, b=0), id="prep-pair-twice"),
    pytest.param("select[1]", lambda d: d["select"][1].update(
        a=0, b=0, pl=d["left"][0], pr=d["right"][0]), id="select-pair-twice"),
    pytest.param("select", lambda d: d["select"].pop(), id="select-row-dropped"),
    pytest.param("select_hash", lambda d: d.update(select_hash=OTHER_SELECT_HASH), id="select-hash-stale"),
]

# edits of the first pool-v1 entry line, split into its three tokens;
# None appends a copy of that line
POOL_MUTATIONS = [
    pytest.param(lambda p: ["0", *p[1:]], id="count-zero"),
    pytest.param(lambda p: ["-5", *p[1:]], id="count-negative"),
    pytest.param(lambda p: [p[0], "nan", p[2]], id="freq-nan"),
    pytest.param(lambda p: [p[0], "1.5", p[2]], id="freq-above-one"),
    pytest.param(lambda p: [p[0], "abc", p[2]], id="freq-text"),
    pytest.param(None, id="label-twice"),
]
