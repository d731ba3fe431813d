import base64
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from paulibridge.bridge import Bridge, BridgeDecomposition, compile as compile_bridge
from paulibridge.lcu import LcuProgram, PrepColumns, _fragment_ops, _phase_rows, compile_lcu
from paulibridge import mps as mps_module
from paulibridge.mps import Mps, canonicalize_mps, dense_to_mps, is_right_canonical_site
from paulibridge.pauli import PAULI_MATRICES, SYMBOLS, PauliSum, TooLarge, label_rows, parse_pauli_sum, require_dense

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parents[1] / "bench"

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


def int_rows(values, n_sites: int) -> np.ndarray:
    """Packed rows of strings given as base-4 integers, site 0 the most significant digit
    (I=0, X=1, Y=2, Z=3): the oracle of the layout, one Python int cut into 64-bit words,
    most significant word first."""
    words = -(-n_sites // 32)
    rows = [[(int(v) >> 64 * (words - 1 - w)) & (2**64 - 1) for w in range(words)] for v in values]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), words)


def row_ints(rows: np.ndarray) -> list[int]:
    """Inverse of int_rows."""
    return [functools.reduce(lambda value, word: value << 64 | word, row, 0) for row in rows.tolist()]


def int_label(value: int, n_sites: int) -> str:
    return "".join(SYMBOLS[(value >> 2 * (n_sites - 1 - j)) & 3] for j in range(n_sites))


def label_int(label: str) -> int:
    """Inverse of int_label: the label's base-4 digits."""
    return int(label.translate(str.maketrans(SYMBOLS, "0123")), 4)


def row_codes(rows: np.ndarray, n_sites: int) -> np.ndarray:
    """``(count, n_sites)`` symbol codes of packed rows, read through int_rows' layout."""
    return np.array([[(v >> 2 * (n_sites - 1 - j)) & 3 for j in range(n_sites)] for v in row_ints(rows)],
                    dtype=np.intp).reshape(len(rows), n_sites)


def pauli_sum(n_sites: int, terms) -> PauliSum:
    """The merged sum of ``(coeff, label)`` terms."""
    coeffs = np.array([c for c, _ in terms], dtype=np.complex128).reshape(-1)
    return PauliSum.from_rows(n_sites, label_rows([label for _, label in terms], n_sites), coeffs)


def row_labels(rows: np.ndarray, n_sites: int) -> list[str]:
    """Labels of packed rows, read through int_rows' layout."""
    return [int_label(v, n_sites) for v in row_ints(rows)]


def sum_terms(op: PauliSum) -> list[tuple[complex, str]]:
    """``(coeff, label)`` of each term in order."""
    return list(zip(op.coeffs.tolist(), row_labels(op.rows, op.n_sites)))


def term_dict(op: PauliSum) -> dict[str, complex]:
    return {label: c for c, label in sum_terms(op)}


def random_pauli_sum(rng: np.random.Generator, n_sites: int, n_terms: int,
                     complex_coeffs: bool = False) -> PauliSum:
    """Distinct random strings with nonzero coefficients."""
    n_terms = min(n_terms, 4**n_sites)
    seen = set()
    entries = []
    while len(entries) < n_terms:
        label = "".join(SYMBOLS[c] for c in rng.integers(0, 4, size=n_sites))
        if label in seen:
            continue
        seen.add(label)
        c = rng.standard_normal()
        if complex_coeffs:
            c = c + 1j * rng.standard_normal()
        if c == 0:
            continue
        entries.append((c, label))
    return pauli_sum(n_sites, entries)


def thirteen_qubit_op() -> PauliSum:
    """Ten distinct two-site and three-site halves: 5 sites + 4 + 4 ancillas at cut 2."""
    def word(k, width):
        return "".join("IXYZ"[(k >> (2 * j)) & 3] for j in range(width))

    return pauli_sum(5, [(0.1 * (k + 1), word(k, 2) + word(3 * k + 1, 3)) for k in range(10)])


def bench_workloads():
    """``bench/workloads.py``, the benchmark's seeded input generators."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads

    return workloads


@functools.cache
def fermion_document(seed: tuple, n_modes: int, n_pairs: int) -> str:
    """The benchmark's seeded fermion document: ``fermion_doc(default_rng(seed), n_modes, n_pairs)``."""
    return json.dumps(bench_workloads().fermion_doc(np.random.default_rng(list(seed)), n_modes, n_pairs)) + "\n"


def chain_sum(seed: int, n_sites: int) -> PauliSum:
    """The benchmark's seeded chain, ``chain_terms(default_rng(seed), n_sites)``: 5n - 3 terms."""
    terms = bench_workloads().chain_terms(np.random.default_rng(seed), n_sites)
    return PauliSum.from_rows(n_sites, label_rows(list(terms), n_sites), np.array(list(terms.values())))


def jw12_document() -> str:
    """jw12: the 12-mode document, 80 two-body pairs, 1,429 Pauli terms after jw."""
    return fermion_document((5, 0), 12, 80)


def count_dense_solves(monkeypatch, n_sites: int) -> list:
    """Patch ``scipy.linalg.eigh`` and ``eigvalsh`` to record each call on a 2^n x 2^n matrix as
    ``(name, subset_by_index)``; the record list. (``eigvalsh`` reaches LAPACK without the patched
    ``eigh``.)"""
    calls = []

    def counting(name):
        solve = getattr(scipy.linalg, name)

        def counted(a, *args, **kwargs):
            if np.shape(a) == (2**n_sites, 2**n_sites):
                calls.append((name, kwargs.get("subset_by_index")))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)

    counting("eigh")
    counting("eigvalsh")
    return calls


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to record the positional arguments of each call; the record list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def real_state(seed: int, n_sites: int, max_bond: int) -> Mps:
    """The right-canonical MPS of a random real unit vector: complex128 tensors, imaginary parts zero."""
    vec = np.random.default_rng(seed).standard_normal(2**n_sites)
    m = canonicalize_mps(dense_to_mps(vec / np.linalg.norm(vec), max_bond=max_bond))
    return Mps([t.real.astype(np.complex128) for t in m.tensors])


def memo_variants(m: Mps, seed: int) -> dict[str, Mps]:
    """States a memo must tell from ``m``, a ``real_state``: one entry one ulp up, the same values as
    float64 tensors, and the ``real_state`` of ``seed`` with as many sites."""
    up = [t.copy() for t in m.tensors]
    up[1][0, 0, 0] = np.nextafter(up[1][0, 0, 0].real, np.inf)
    return {"one ulp": Mps(up), "float64 tensors": Mps([t.real.copy() for t in m.tensors]),
            "a state in between": real_state(seed, m.n_sites, max(m.bond_dims))}


def evict_memos() -> None:
    """Empty every memo ``mps._memo`` keeps (``lowest_pairs``, ``sample_strings``, ``string_expectations``),
    so the next call of each computes afresh: a test that compares a recomputation with a first result
    evicts in between, or it would compare the memo with itself."""
    mps_module._memos.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty memos, whatever ran before it."""
    evict_memos()


def dict_bridge(entries: dict) -> Bridge:
    """A bridge over the mapping ``entries`` from (a, b) to a coefficient, sorted into columns."""
    items = sorted(entries.items())
    pairs = np.array([pair for pair, _ in items], dtype=np.int64).reshape(-1, 2)
    return Bridge(pairs, np.array([c for _, c in items], dtype=np.complex128))


def bridge_matrix(d: BridgeDecomposition) -> np.ndarray:
    """The dense ``len(d.left) x len(d.right)`` bridge matrix; a pair never listed is 0."""
    m = np.zeros((len(d.left), len(d.right)), dtype=np.complex128)
    m[d.bridge.pairs[:, 0], d.bridge.pairs[:, 1]] = d.bridge.coeffs
    return m


def prep_rows(program: LcuProgram) -> tuple:
    """The Prep table of ``program`` as one ``(a, b, amp, phase)`` tuple per pair."""
    return tuple(zip(*(column.tolist() for column in program.columns)))


def prep_columns(rows) -> PrepColumns:
    """A Prep table of ``(a, b, amp, phase)`` rows, as the columns a program holds."""
    columns = zip(*rows) if rows else ((),) * 4
    return PrepColumns(*map(np.array, columns, (np.int64, np.int64, np.float64, np.complex128)))


def program_state(program: LcuProgram) -> tuple:
    """Everything a program holds, comparable with ``==``."""
    return program.cut, program.left, program.right, program.lam, prep_rows(program)


def random_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    v = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    return v / np.linalg.norm(v)


def kron_string(codes) -> np.ndarray:
    """Dense oracle of one string: the Kronecker product of its site matrices, read off its codes."""
    return functools.reduce(np.kron, (PAULI_MATRICES[c] for c in codes))


def kron_dense(op: PauliSum) -> np.ndarray:
    """Dense oracle of a sum: its terms' Kronecker products added in term order."""
    zero = np.zeros((2**op.n_sites,) * 2, dtype=np.complex128)
    terms = zip(op.coeffs.tolist(), row_codes(op.rows, op.n_sites))
    return sum((c * kron_string(codes) for c, codes in terms), zero)


def scatter_dense(op: PauliSum) -> np.ndarray:
    """Byte oracle of to_dense: each term scattered on its own, in term order.

    A string maps |b> to i^{#Y} (-1)^{|b & z|} |b ^ x>, with the masks x
    (X and Y sites) and z (Y and Z sites) read off the label, site 0 the
    most significant bit.
    """
    idx = np.arange(2**op.n_sites)
    out = np.zeros((idx.size, idx.size), dtype=np.complex128)
    for coeff, label in sum_terms(op):
        x = int("".join("1" if s in "XY" else "0" for s in label), 2)
        z = int("".join("1" if s in "YZ" else "0" for s in label), 2)
        signs = np.where(np.bitwise_count(idx & z) & 1, -1.0, 1.0)
        out[idx ^ x, idx] += coeff * (1j ** label.count("Y") * signs)
    return out


STATE_DENSE_LIMIT = 20  # most sites of a dense state vector


def mps_to_dense(m: Mps) -> np.ndarray:
    """Dense oracle of an MPS: its state vector, site 0 the most significant qubit."""
    if m.n_sites > STATE_DENSE_LIMIT:
        raise TooLarge(f"{m.n_sites} sites exceeds dense limit {STATE_DENSE_LIMIT}")
    if m.tensors[0].shape[0] != 1 or m.tensors[-1].shape[1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    acc = np.ones((1, 1), dtype=np.complex128)
    for t in m.tensors:
        acc = np.einsum("lB,lrp->rBp", acc, t).reshape(t.shape[1], -1)
    return acc[0]


def is_left_canonical_site(t: np.ndarray, tol: float = 1e-12) -> bool:
    """``sum_{a,phys} T*[a,r] T[a,r'] = delta``: the right condition with the two bonds swapped."""
    return is_right_canonical_site(t.swapaxes(0, 1), tol)


def select_factorized_dense(program: LcuProgram) -> np.ndarray:
    """Phi . Select_L . Select_R, equal to ``lcu.select_dense`` for every program.

    Select_L applies left fragment alpha to the left sites when the left
    register holds alpha, and Select_R does the same on the right; neither
    depends on a coefficient. Every phase sits in Phi, a diagonal on the
    pair register.
    """
    require_dense(program.a_total + program.n_sites, "total qubits")
    cut, n = program.cut, program.n_sites
    dim_l, dim_r = 2**program.a_left, 2**program.a_right
    left = _fragment_ops(program.left, dim_l, cut)
    right = _fragment_ops(program.right, dim_r, n - cut)
    eye_l, eye_r = np.eye(2**cut), np.eye(2 ** (n - cut))
    # the left register holds the high bits, so each of its blocks
    # repeats over every right index
    sel_l = scipy.linalg.block_diag(*(np.kron(np.eye(dim_r), np.kron(p, eye_r)) for p in left))
    sel_r = np.kron(np.eye(dim_l), scipy.linalg.block_diag(*(np.kron(eye_l, q) for q in right)))
    out = sel_l @ sel_r
    out *= _phase_rows(program)
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
