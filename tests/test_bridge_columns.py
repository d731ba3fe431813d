"""Bridges and Prep tables held as columns, against the per-row code they replaced.

The oracles here are the per-row forms of the ``bridge-v1`` and ``lcu-v1``
writers and readers, the per-pair Prep table of ``compile_lcu``, the
per-pair ``lcu-gates-v1`` listing and the per-payload tensor-chain writer.
The column code must write the same bytes,
build the same tables bit for bit, read the same objects and raise the same
errors (class and message).
"""

import base64
import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paulibridge.bridge import (
    BridgeDecomposition,
    EmptyOperator,
    IndexOutOfRange,
    compile as compile_bridge,
    decomposition_from_json,
    decomposition_to_json,
    set_bridge,
    skeleton_hash,
)
from paulibridge.lcu import (
    LcuProgram,
    compile_lcu,
    emit_gates,
    program_from_json,
    program_to_json,
    update_coefficients,
)
from paulibridge.mpo import Mpo, mpo_to_json
from paulibridge.mps import Mps, mps_to_json
from paulibridge.pauli import (
    SYMBOLS,
    json_document,
    json_field,
    malformed,
)

from conftest import BYTE_IDENTITY, dict_bridge, pauli_sum, prep_columns, prep_rows
from test_pauli_core import _json_values

# ---------------------------------------------------------------------------
# oracles: the per-row code


def bridge_entries(bridge) -> dict:
    """The bridge's table as a mapping from (a, b) to its coefficient."""
    return dict(zip(map(tuple, bridge.pairs.tolist()), bridge.coeffs.tolist()))


def json_finite(fmt: str, doc, key: str, where: str = "") -> float:
    """The per-row readers' finite-number check, kept here apart from ``pauli.json_field``."""
    value = doc.get(key) if isinstance(doc, dict) else None
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise malformed(fmt, where + key, f"expected a finite number, got {value!r}")
    return float(value)


def oracle_json_text(doc) -> str:
    """The layout every writer promises, ``json.dumps(doc, indent=2) + "\\n"``, refusing a NaN or an
    infinity with the C encoder's ValueError, as the writers do; row lists are plain lists of dicts here."""
    json.JSONEncoder(allow_nan=False).encode(doc)
    return json.dumps(doc, indent=2) + "\n"


def oracle_decomposition_to_json(d: BridgeDecomposition) -> str:
    entries = bridge_entries(d.bridge)
    doc = {
        "format": "bridge-v1",
        "n_sites": d.n_sites,
        "cut": d.cut,
        "left_fragments": list(d.left),
        "right_fragments": list(d.right),
        "bridge": [
            {"a": a, "b": b, "re": entries[(a, b)].real, "im": entries[(a, b)].imag} for a, b in sorted(entries)
        ],
    }
    left = [len({s[:i] for s in d.left}) for i in range(d.cut + 1)]
    right = [len({s[i:] for s in d.right}) for i in range(len(d.right[0]) + 1)]
    for side, sizes, edges in (("left", left, left[1:]), ("right", right, right[:-1])):
        doc[f"graph_{side}"] = {"layer_sizes": sizes, "edge_counts": edges}
    return oracle_json_text(doc)


def oracle_labels(fmt: str, doc, key: str, width: int) -> tuple[str, ...]:
    labels = json_field(fmt, doc, key, list)
    if not labels:
        raise malformed(fmt, key, "empty fragment dictionary")
    for k, label in enumerate(labels):
        if not (isinstance(label, str) and len(label) == width and set(label) <= set(SYMBOLS)):
            raise malformed(fmt, f"{key}[{k}]", f"expected a {width}-site Pauli label, got {label!r}")
        if k and label <= labels[k - 1]:
            raise malformed(fmt, f"{key}[{k}]", f"not increasing: {label!r} after {labels[k - 1]!r}")
    return tuple(labels)


def oracle_decomposition_from_json(text: str) -> BridgeDecomposition:
    fmt = "bridge-v1"
    doc = json_document(text, fmt)
    n_sites = json_field(fmt, doc, "n_sites", int)
    cut = json_field(fmt, doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise malformed(fmt, "cut", f"{cut} not in 1..{n_sites - 1}")
    left = oracle_labels(fmt, doc, "left_fragments", cut)
    right = oracle_labels(fmt, doc, "right_fragments", n_sites - cut)
    entries = {}
    for k, e in enumerate(json_field(fmt, doc, "bridge", list)):
        where = f"bridge[{k}]"
        a, b = json_field(fmt, e, "a", int, where + "."), json_field(fmt, e, "b", int, where + ".")
        if not (0 <= a < len(left) and 0 <= b < len(right)):
            raise IndexOutOfRange(f"{fmt} field {where}: pair ({a}, {b}) outside ({len(left)}, {len(right)})")
        if (a, b) in entries:
            raise malformed(fmt, where, f"pair ({a}, {b}) appears twice")
        entries[(a, b)] = complex(json_finite(fmt, e, "re", where + "."), json_finite(fmt, e, "im", where + "."))
    return BridgeDecomposition(cut, left, right, dict_bridge(entries))


def oracle_compile_lcu(d: BridgeDecomposition) -> LcuProgram:
    entries = bridge_entries(d.bridge)
    active = sorted(p for p, c in entries.items() if c != 0)
    if not active:
        raise EmptyOperator("bridge has no active pairs")
    coeffs = np.array([entries[p] for p in active])
    with np.errstate(over="ignore"):
        lam = float(np.sum(np.abs(coeffs)))
    if not math.isfinite(lam):
        raise ValueError(f"the one-norm lambda of the bridge overflows to {lam}")
    amps = np.sqrt(np.abs(coeffs) / lam)
    amps /= np.linalg.norm(amps)
    phases = [complex(1.0 if c.real > 0 else -1.0) if c.imag == 0 else unit_phase(c) for c in coeffs]
    prep = tuple((a, b, float(amp), ph) for (a, b), amp, ph in zip(active, amps, phases))
    return LcuProgram(cut=d.cut, left=d.left, right=d.right, lam=lam, columns=prep_columns(prep))


def unit_phase(c: np.complex128) -> complex:
    # c / |c| as numpy divides a complex scalar; a c of subnormal modulus, whose 1 / |c|
    # overflows, is first scaled by 2**1022
    if abs(c) < 2.0**-1022:
        c = c * 2.0**1022
    return complex(c / abs(c))


def oracle_emit_gates(program: LcuProgram) -> str:
    width = program.a_total
    lines = [
        f"# lcu-gates-v1 n_sites={program.n_sites} cut={program.cut}"
        f" a_left={program.a_left} a_right={program.a_right}"
        f" lambda={program.lam:.12g}"
    ]
    rows = prep_rows(program)
    lines.append("prep " + " ".join(f"{program.pair_index(a, b)}:{amp:.12g}" for a, b, amp, _ in rows))
    for a, b, _, ph in rows:
        pattern = format(program.pair_index(a, b), f"0{width}b") if width else "-"
        row = f"cpauli {pattern} {program.left[a]}{program.right[b]}"
        if ph != 1:
            if ph.imag == 0:
                note = f"{ph.real:.12g}"
            elif ph.real == 0:
                note = f"{ph.imag:.12g}i"
            else:
                note = f"{ph.real:.12g}{ph.imag:+.12g}i"
            row += f" phase={note}"
        lines.append(row)
    lines.append("unprep")
    return "\n".join(lines) + "\n"


def oracle_program_to_json(program: LcuProgram) -> str:
    rows = prep_rows(program)
    doc = {
        "format": "lcu-v1",
        "n_sites": program.n_sites,
        "cut": program.cut,
        "left": list(program.left),
        "right": list(program.right),
        "lambda": program.lam,
        "a_left": program.a_left,
        "a_right": program.a_right,
        "prep": [{"a": a, "b": b, "amp": amp} for a, b, amp, _ in rows],
        "select": [
            {"a": a, "b": b, "pl": program.left[a], "pr": program.right[b], "phase_re": ph.real, "phase_im": ph.imag}
            for a, b, _, ph in rows
        ],
        "select_hash": skeleton_hash(program.cut, program.left, program.right, [(a, b) for a, b, *_ in rows]),
    }
    return oracle_json_text(doc)


def oracle_program_from_json(text: str) -> LcuProgram:
    fmt = "lcu-v1"

    def index(row, key, size, where):
        value = json_field(fmt, row, key, int, where)
        if not 0 <= value < size:
            raise malformed(fmt, where + key, f"{value} not in 0..{size - 1}")
        return value

    doc = json_document(text, fmt)
    n_sites = json_field(fmt, doc, "n_sites", int)
    cut = json_field(fmt, doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise malformed(fmt, "cut", f"{cut} not in 1..{n_sites - 1}")
    left = oracle_labels(fmt, doc, "left", cut)
    right = oracle_labels(fmt, doc, "right", n_sites - cut)
    lam = json_finite(fmt, doc, "lambda")
    if lam <= 0:
        raise malformed(fmt, "lambda", f"expected a positive one-norm, got {lam!r}")
    for key, labels in (("a_left", left), ("a_right", right)):
        want = (len(labels) - 1).bit_length()
        if json_field(fmt, doc, key, int) != want:
            raise malformed(fmt, key, f"{len(labels)} fragments need {want} ancillas, got {doc[key]}")
    preps, selects = json_field(fmt, doc, "prep", list), json_field(fmt, doc, "select", list)
    if len(preps) != len(selects):
        raise malformed(fmt, "select", f"{len(selects)} rows, prep has {len(preps)}")
    rows = {}
    for k, (p_row, s_row) in enumerate(zip(preps, selects)):
        where = f"select[{k}]."
        a = index(s_row, "a", len(left), where)
        b = index(s_row, "b", len(right), where)
        if json_field(fmt, s_row, "pl", str, where) != left[a] or json_field(fmt, s_row, "pr", str, where) != right[b]:
            raise malformed(fmt, where + "pl/pr", "select row labels disagree with the dictionaries")
        if (a, b) in rows:
            raise malformed(fmt, f"select[{k}]", f"pair ({a}, {b}) appears twice")
        phase = complex(json_finite(fmt, s_row, "phase_re", where), json_finite(fmt, s_row, "phase_im", where))
        off = abs(abs(phase) - 1)
        if off > 1e-9:
            raise malformed(fmt, f"select[{k}]", f"phase is {off:.2g} off the unit circle, past 1e-09: {phase}")
        where = f"prep[{k}]."
        pair = (index(p_row, "a", len(left), where), index(p_row, "b", len(right), where))
        if pair != (a, b):
            raise malformed(fmt, f"prep[{k}]", f"pair {pair} is not the pair ({a}, {b}) of select[{k}]")
        rows[pair] = (a, b, json_finite(fmt, p_row, "amp", where), phase)
    norm = math.sqrt(sum(amp * amp for _, _, amp, _ in rows.values()))
    if abs(norm - 1.0) > 1e-2:
        raise malformed(fmt, "prep", f"amplitude norm {norm:.6g} is not 1")
    program = LcuProgram(cut=cut, left=left, right=right, lam=lam, columns=prep_columns(tuple(rows.values())))
    if json_field(fmt, doc, "select_hash", str) != program.select_hash:
        raise malformed(fmt, "select_hash", "is not the hash of the dictionaries and pairs")
    return program


def oracle_chain_to_json(fmt: str, m) -> str:
    for i, t in enumerate(m.tensors):
        if not np.isfinite(t).all():
            raise malformed(fmt, f"tensors[{i}]", "non-finite values")
    doc = {
        "format": fmt,
        "n_sites": m.n_sites,
        "bond_dims": m.bond_dims,
        "gauge": list(m.gauge),
        "tensors": [base64.b64encode(np.ascontiguousarray(t, dtype="<c16").tobytes()).decode() for t in m.tensors],
    }
    return oracle_json_text(doc)


# ---------------------------------------------------------------------------
# strategies and comparisons

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 1.0, -1.0, 0.1, 1 / 3]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
moderate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 2.5e-7]),
                     st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: x == 0 or abs(x) > 1e-300))


@st.composite
def labels(draw, width: int) -> tuple[str, ...]:
    words = draw(st.sets(st.text(SYMBOLS, min_size=width, max_size=width), min_size=1, max_size=6))
    return tuple(sorted(words))


@st.composite
def decompositions(draw, values=floats) -> BridgeDecomposition:
    """A decomposition over any dictionaries and pairs, a zero entry a cancelled pair, or one compiled."""
    n_sites = draw(st.integers(2, 6))
    cut = draw(st.integers(1, n_sites - 1))
    complex_values = draw(st.booleans())
    value = st.builds(complex, values, values if complex_values else st.just(0.0))
    if draw(st.booleans()):
        label = st.text(SYMBOLS, min_size=n_sites, max_size=n_sites)
        strings = draw(st.dictionaries(label, value, min_size=1, max_size=12))
        op = pauli_sum(n_sites, [(c, s) for s, c in strings.items()])
        if op.n_terms:
            return compile_bridge(op, cut)
    left, right = draw(labels(cut)), draw(labels(n_sites - cut))
    pairs = [(a, b) for a in range(len(left)) for b in range(len(right))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    entries = {pair: draw(value) for pair in chosen}
    return BridgeDecomposition(cut, left, right, dict_bridge(entries))


def outcome(fn, *args):
    """``("ok", value)``, or the class and message of what ``fn`` raised; numpy's warnings are off."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return "ok", fn(*args)
        except ValueError as exc:
            return type(exc), str(exc)


def same_table(program: LcuProgram, oracle: LcuProgram) -> bool:
    """Same skeleton and the same Prep rows, bit for bit (repr tells -0.0 from 0.0)."""
    return (program.cut, program.left, program.right, repr(program.lam), repr(prep_rows(program))) == (
        oracle.cut, oracle.left, oracle.right, repr(oracle.lam), repr(prep_rows(oracle)))


# ---------------------------------------------------------------------------
# writers


@BYTE_IDENTITY
@given(decompositions())
def test_bridge_writer_bytes_equal_the_per_row_writer(d):
    got, want = outcome(decomposition_to_json, d), outcome(oracle_decomposition_to_json, d)
    assert got == want
    if got[0] == "ok":
        assert decomposition_to_json(decomposition_from_json(got[1])) == got[1]


@BYTE_IDENTITY
@given(decompositions())
def test_compile_lcu_table_equals_the_per_pair_table(d):
    got, want = outcome(compile_lcu, d), outcome(oracle_compile_lcu, d)
    if got[0] != "ok":
        assert got == want
    else:
        assert want[0] == "ok" and same_table(got[1], want[1])
        assert outcome(program_to_json, got[1]) == outcome(oracle_program_to_json, want[1])
        assert emit_gates(got[1]) == oracle_emit_gates(want[1])


@BYTE_IDENTITY
@given(decompositions(moderate), st.data())
def test_programs_from_rows_write_as_the_per_row_writers(d, data):
    # a program built from row tuples, as the tests build them: any phase of modulus one
    if not d.bridge.coeffs.any():
        return
    program = compile_lcu(d)
    size = len(program.columns.a)
    turns = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=size, max_size=size))
    rows = tuple((a, b, amp, complex(math.cos(t), math.sin(t))) for (a, b, amp, _), t in zip(prep_rows(program), turns))
    moved = dataclasses.replace(program, columns=prep_columns(rows))
    assert program_to_json(moved) == oracle_program_to_json(moved)
    assert emit_gates(moved) == oracle_emit_gates(moved)
    assert same_table(program_from_json(program_to_json(moved)), moved)


def test_bridge_and_prep_views_are_read_only():
    # every constructor path hands out read-only columns, so an edit fails
    # at once instead of going unseen by the code that reads the table
    d = compile_bridge(pauli_sum(2, [(0.5, "XZ"), (-1.0, "YI")]), 1)
    program = compile_lcu(d)
    bridges = [
        d.bridge,
        set_bridge(d, [0.0, 2.0]).bridge,
        decomposition_from_json(decomposition_to_json(d)).bridge,
    ]
    programs = [
        program,
        program_from_json(program_to_json(program)),
        update_coefficients(program, set_bridge(d, -2.0 * d.bridge.coeffs)),
    ]
    for bridge in bridges:
        for column in (bridge.pairs, bridge.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
    for column in (column for program in programs for column in program.columns):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_raise_the_writers_error(bad):
    bridge = dict_bridge({(0, 0): complex(1.0, bad)})
    d = BridgeDecomposition(1, ("X",), ("Z",), bridge)
    assert outcome(decomposition_to_json, d) == outcome(oracle_decomposition_to_json, d)
    assert outcome(decomposition_to_json, d)[0] is ValueError
    program = LcuProgram(cut=1, left=("X",), right=("Z",), lam=1.0, columns=prep_columns(((0, 0, bad, 1 + 0j),)))
    assert outcome(program_to_json, program) == outcome(oracle_program_to_json, program)
    program = dataclasses.replace(program, columns=prep_columns(((0, 0, 1.0, complex(bad, 0.0)),)))
    assert outcome(program_to_json, program) == outcome(oracle_program_to_json, program)
    mps = Mps([np.array([[[bad, 1.0]]], dtype=np.complex128)])
    assert outcome(mps_to_json, mps) == outcome(oracle_chain_to_json, "mps-v1", mps)


@st.composite
def chains(draw):
    n_sites = draw(st.integers(1, 4))
    bonds = [1] + [draw(st.integers(1, 3)) for _ in range(n_sites - 1)] + [1]
    is_mpo = draw(st.booleans())
    phys = (2, 2) if is_mpo else (2,)
    tensors = []
    for k in range(n_sites):
        count = bonds[k] * bonds[k + 1] * math.prod(phys) * 2
        values = draw(st.lists(floats, min_size=count, max_size=count))
        tensors.append(np.array(values).view(np.complex128).reshape(bonds[k], bonds[k + 1], *phys))
    return (Mpo if is_mpo else Mps)(tensors)


@BYTE_IDENTITY
@given(chains())
def test_chain_payloads_are_placed_as_the_per_payload_writer_writes_them(chain):
    write, fmt = (mpo_to_json, "mpo-v1") if isinstance(chain, Mpo) else (mps_to_json, "mps-v1")
    assert write(chain) == oracle_chain_to_json(fmt, chain)


# ---------------------------------------------------------------------------
# readers on corrupted documents

# 2**1024 - 2**970 is the least int that float() rounds past the largest float
BRIDGE_BAD = [True, False, None, "1", 1.0, 1.5, -1, 10**30, 10**400, 2**1024 - 2**970 - 1, 2**1024 - 2**970,
              math.nan, math.inf, [], {}]


def corrupt(doc: dict, key: str, data) -> None:
    """One change to one intact row of ``doc[key]``, drawn by ``data``."""
    rows = doc[key]
    intact = [k for k, row in enumerate(rows) if isinstance(row, dict) and {"a", "b"} <= row.keys()]
    if not intact:
        return
    k = data.draw(st.sampled_from(intact))
    row = rows[k]
    how = data.draw(st.sampled_from(["value", "drop", "row", "duplicate", "shift", "scale"]))
    if how == "row":
        rows[k] = data.draw(st.sampled_from([[], 1, "a", None, [row]]))
    elif how == "drop":
        row.pop(data.draw(st.sampled_from(sorted(row))))
    elif how == "duplicate":
        j = data.draw(st.sampled_from(intact))
        rows[j] = copy.deepcopy(row) if data.draw(st.booleans()) else {**rows[j], "a": row["a"], "b": row["b"]}
    elif how == "shift" and isinstance(row["a"], int) and isinstance(row["b"], int):
        row[data.draw(st.sampled_from(["a", "b"]))] += data.draw(st.sampled_from([1, -1, 2, 7]))
    elif how == "scale":
        numbers = sorted(f for f, v in row.items() if type(v) is float)
        if numbers:
            field = data.draw(st.sampled_from(numbers))
            row[field] = row[field] * data.draw(st.sampled_from([1.5, -1.0, 1 + 1e-8, 1 + 1e-10, 0.0]))
    elif how == "value":
        row[data.draw(st.sampled_from(sorted(row)))] = data.draw(st.sampled_from(BRIDGE_BAD + ["XX", "IZ", "ZZ"]))


def same_decomposition(got: BridgeDecomposition, want: BridgeDecomposition) -> bool:
    skeleton = (got.cut, got.left, got.right) == (want.cut, want.left, want.right)
    return skeleton and repr(sorted(bridge_entries(got.bridge).items())) == repr(
        sorted(bridge_entries(want.bridge).items()))


@BYTE_IDENTITY
@given(decompositions(), st.data())
def test_bridge_reader_matches_the_per_row_reader_on_corrupted_documents(d, data):
    text = outcome(decomposition_to_json, d)
    if text[0] != "ok":
        return
    doc = json.loads(text[1])
    for _ in range(data.draw(st.integers(0, 3))):
        corrupt(doc, "bridge", data)
    if data.draw(st.booleans()):
        rows = doc["bridge"]
        data.draw(st.randoms()).shuffle(rows)
    corrupted = json.dumps(doc)
    got, want = outcome(decomposition_from_json, corrupted), outcome(oracle_decomposition_from_json, corrupted)
    if got[0] == "ok":
        assert want[0] == "ok" and same_decomposition(got[1], want[1])
    else:
        assert got == want


@BYTE_IDENTITY
@given(decompositions(moderate), st.data())
def test_program_reader_matches_the_per_row_reader_on_corrupted_documents(d, data):
    if not d.bridge.coeffs.any():
        return
    doc = json.loads(program_to_json(compile_lcu(d)))
    for _ in range(data.draw(st.integers(0, 3))):
        corrupt(doc, data.draw(st.sampled_from(["prep", "select"])), data)
    change = data.draw(st.sampled_from(["none", "hash", "pop", "labels", "shuffle"]))
    if change == "hash":
        doc["select_hash"] = doc["select_hash"][::-1]
    elif change == "pop":
        doc[data.draw(st.sampled_from(["prep", "select"]))].pop()
    elif change == "labels" and doc["select"] and isinstance(doc["select"][0], dict):
        doc["select"][0][data.draw(st.sampled_from(["pl", "pr"]))] = data.draw(st.sampled_from(["XX", "Z", "", 3]))
    elif change == "shuffle":
        order = data.draw(st.permutations(range(len(doc["prep"]))))
        doc["prep"], doc["select"] = [doc["prep"][k] for k in order], [doc["select"][k] for k in order]
    corrupted = json.dumps(doc)
    got, want = outcome(program_from_json, corrupted), outcome(oracle_program_from_json, corrupted)
    if got[0] == "ok":
        assert want[0] == "ok" and same_table(got[1], want[1])
    else:
        assert got == want


def _set(key, k, field, value):
    def change(doc):
        doc[key][k][field] = value
    return change


def _copy_pair(key, src, dst):
    def change(doc):  # the pair and, on a select row, its labels
        doc[key][dst].update({f: v for f, v in doc[key][src].items() if f in ("a", "b", "pl", "pr")})
    return change


def _scale_amps(doc):
    for row in doc["prep"]:
        row["amp"] *= 2


BRIDGE_CHANGES = [
    _set("bridge", 0, "a", True), _set("bridge", 1, "b", 99), _set("bridge", 0, "a", -1),
    _set("bridge", 2, "re", 10**400),
    _set("bridge", 0, "im", math.nan), _set("bridge", 3, "re", math.inf), _set("bridge", 1, "a", 2**70),
    _set("bridge", 0, "re", 3), _copy_pair("bridge", 0, 4), _copy_pair("bridge", 5, 2), _set("bridge", 2, "b", 1.0),
]
PROGRAM_CHANGES = [
    _set("select", 1, "phase_re", 1.5), _set("select", 0, "phase_im", 10**400), _set("select", 2, "phase_re", math.nan),
    _set("prep", 1, "amp", 10**400), _set("prep", 0, "amp", math.inf), _set("prep", 0, "a", 5),
    _set("select", 0, "a", 2**70),
    _set("select", 3, "pr", "ZZZ"), _copy_pair("select", 0, 3), _copy_pair("prep", 1, 2), _scale_amps,
    _set("prep", 0, "amp", 1), _set("select", 0, "phase_re", -1), lambda doc: doc.update(select_hash="0" * 64),
    _set("select", 1, "b", True), _set("select", 2, "a", 1.0), _set("prep", 1, "b", True), _set("prep", 2, "a", 1.0),
    lambda doc: [_copy_pair(key, 0, 3)(doc) for key in ("select", "prep")],  # a pair twice, in both lists
]


@pytest.mark.parametrize("change", BRIDGE_CHANGES + [lambda doc: None])
def test_bridge_reader_raises_the_per_row_error(h2_subset, change):
    doc = json.loads(decomposition_to_json(compile_bridge(h2_subset, 2)))
    change(doc)
    text = json.dumps(doc)
    got, want = outcome(decomposition_from_json, text), outcome(oracle_decomposition_from_json, text)
    assert got == want if got[0] != "ok" else want[0] == "ok" and same_decomposition(got[1], want[1])


# one malformed header per case, for either cut format: (left key, right key) -> change, and the message
# after "<format> field "; the h2 skeleton at cut 2 has six left and five right fragments on 4 sites
HEADER_CHANGES = {
    "cut 0": (lambda doc, keys: doc.update(cut=0), "cut: 0 not in 1..3"),
    "cut n_sites": (lambda doc, keys: doc.update(cut=4), "cut: 4 not in 1..3"),
    "out of order": (lambda doc, keys: doc[keys[0]].reverse(), "{0}[1]: not increasing: 'ZI' after 'ZZ'"),
    "wrong width": (lambda doc, keys: doc[keys[1]].__setitem__(0, "III"),
                    "{1}[0]: expected a 2-site Pauli label, got 'III'"),
    "no n_sites": (lambda doc, keys: doc.pop("n_sites"), "n_sites: expected int, got None"),
}


@pytest.mark.parametrize("case", sorted(HEADER_CHANGES))
@pytest.mark.parametrize("fmt", ["bridge-v1", "lcu-v1"])
def test_both_cut_formats_refuse_a_malformed_header_in_their_own_name(h2_subset, fmt, case):
    d = compile_bridge(h2_subset, 2)
    if fmt == "bridge-v1":
        text, read, keys = decomposition_to_json(d), decomposition_from_json, ("left_fragments", "right_fragments")
    else:
        text, read, keys = program_to_json(compile_lcu(d)), program_from_json, ("left", "right")
    change, message = HEADER_CHANGES[case]
    doc = json.loads(text)
    change(doc, keys)
    with pytest.raises(ValueError) as info:
        read(json.dumps(doc))
    assert str(info.value) == f"{fmt} field " + message.format(*keys)


@pytest.mark.parametrize("change", PROGRAM_CHANGES + [lambda doc: None])
def test_program_reader_raises_the_per_row_error(h2_subset, change):
    doc = json.loads(program_to_json(compile_lcu(compile_bridge(h2_subset, 2))))
    change(doc)
    text = json.dumps(doc)
    got, want = outcome(program_from_json, text), outcome(oracle_program_from_json, text)
    assert got == want if got[0] != "ok" else want[0] == "ok" and same_table(got[1], want[1])


@pytest.mark.parametrize("value", [10**400, 2**1024 - 2**970])
@pytest.mark.parametrize("fmt, key, k, field", [
    ("bridge-v1", "bridge", 2, "re"), ("lcu-v1", "select", 0, "phase_im"), ("lcu-v1", "prep", 1, "amp")])
def test_an_int_past_the_float_range_is_not_a_finite_number(h2_subset, fmt, key, k, field, value):
    # math.isfinite raises OverflowError on such an int; the readers refuse it as they refuse an infinity
    d = compile_bridge(h2_subset, 2)
    text, read = ((decomposition_to_json(d), decomposition_from_json) if fmt == "bridge-v1"
                  else (program_to_json(compile_lcu(d)), program_from_json))
    doc = json.loads(text)
    doc[key][k][field] = value
    with pytest.raises(ValueError) as info:
        read(json.dumps(doc))
    assert str(info.value) == f"{fmt} field {key}[{k}].{field}: expected a finite number, got {value!r}"


# the fields of one prep/select row pair, as (list, field)
PROGRAM_FIELDS = [("select", f) for f in ("a", "b", "pl", "pr", "phase_re", "phase_im")] + [
    ("prep", f) for f in ("a", "b", "amp")]


@BYTE_IDENTITY
@given(st.integers(0, 99), st.sampled_from(["a", "b", "re", "im"]), _json_values)
def test_any_value_in_a_bridge_field_reads_as_the_per_row_reader_reads_it(h2_subset, k, field, value):
    # the readers take a row of exact JSON types without the rule; that must never change the verdict
    doc = json.loads(decomposition_to_json(compile_bridge(h2_subset, 2)))
    doc["bridge"][k % len(doc["bridge"])][field] = value
    text = json.dumps(doc)
    got, want = outcome(decomposition_from_json, text), outcome(oracle_decomposition_from_json, text)
    assert got == want if got[0] != "ok" else want[0] == "ok" and same_decomposition(got[1], want[1])


@BYTE_IDENTITY
@given(st.integers(0, 99), st.sampled_from(PROGRAM_FIELDS), _json_values)
def test_any_value_in_a_program_field_reads_as_the_per_row_reader_reads_it(h2_subset, k, place, value):
    doc = json.loads(program_to_json(compile_lcu(compile_bridge(h2_subset, 2))))
    key, field = place
    doc[key][k % len(doc[key])][field] = value
    text = json.dumps(doc)
    got, want = outcome(program_from_json, text), outcome(oracle_program_from_json, text)
    assert got == want if got[0] != "ok" else want[0] == "ok" and same_table(got[1], want[1])


def test_int_valued_numbers_read_as_floats():
    # 1 and -1 written as JSON ints go through the rule, which reads them as 1.0 and -1.0
    d = compile_bridge(pauli_sum(2, [(-1.0, "XZ")]), 1)
    doc = json.loads(decomposition_to_json(d))
    doc["bridge"][0]["re"] = 1
    assert same_decomposition(decomposition_from_json(json.dumps(doc)), set_bridge(d, [1.0]))
    program = compile_lcu(d)
    doc = json.loads(program_to_json(program))
    assert (doc["prep"][0]["amp"], doc["select"][0]["phase_re"]) == (1.0, -1.0)
    doc["prep"][0]["amp"], doc["select"][0]["phase_re"] = 1, -1
    assert same_table(program_from_json(json.dumps(doc)), program)
