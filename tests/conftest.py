import base64
from pathlib import Path

import numpy as np
import pytest

from paulibridge.pauli import PauliString, PauliSum, parse_pauli_sum

FIXTURES = Path(__file__).parent / "fixtures"


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


def random_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    v = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    return v / np.linalg.norm(v)


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
