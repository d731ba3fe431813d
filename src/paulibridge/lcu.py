"""Block-encoding programs compiled from bridge decompositions.

The pair register is split: ``a_left`` ancilla bits address the left
fragment, ``a_right`` the right, and a pair (alpha, beta) lives at index
``(alpha << a_right) | beta``. Prep loads non-negative amplitudes
``sqrt(|C| / lambda)`` over the active pairs. Select factors as
Phi . Select_L . Select_R for every program: the register selects apply
fragment strings and depend on the dictionaries only, never on a
coefficient, and the coefficient phases form Phi, a diagonal on the pair
register. A program holds the dictionaries and one Prep table with a
row ``(a, b, amp, phase)`` per pair, also read as the columns ``a``,
``b``, ``amp`` and ``phase``; Select is the table's pair list over the
dictionaries, and the ``lcu-v1`` select rows store Phi. The top-left
ancilla block of Prep^dag Select Prep is then the operator divided by
``lambda``, the one-norm of the bridge.

The select hash covers the fragment dictionaries and the pair list only,
never amplitudes or phases: coefficient-only updates recompile to a
program with the same hash and an unchanged select skeleton.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg

from paulibridge.bridge import BridgeDecomposition, EmptyOperator, skeleton_hash
from paulibridge.pauli import (
    DENSE_LIMIT,
    PauliString,
    PauliSum,
    TooLarge,
    _act,
    dense_string,
    json_columns,
    json_document,
    json_field,
    json_finite,
    json_labels,
    json_rows,
    json_text,
    malformed,
)

__all__ = [
    "LcuProgram",
    "SupportChanged",
    "block_encoding_dense",
    "block_error",
    "compile_lcu",
    "emit_gates",
    "encoded_block",
    "prep_dense",
    "program_from_json",
    "program_to_json",
    "select_dense",
    "select_factorized_dense",
    "success_probability",
    "update_coefficients",
]

FORMAT_NAME = "lcu-v1"
GATES_FORMAT = "lcu-gates-v1"

# a stored prep table further than this from unit norm is rejected as
# malformed; smaller drift is renormalized by the Householder prep and
# left for the block-encoding check to measure
PREP_NORM_TOL = 1e-2
# a select phase this far off the unit circle makes Select non-unitary and is
# rejected
PHASE_TOL = 1e-9


class SupportChanged(ValueError):
    """The new bridge has a different skeleton; a coefficient update cannot apply."""


# the Prep table as columns, one entry per pair; a program holds them read-only
PrepColumns = collections.namedtuple("PrepColumns", "a b amp phase")


@dataclass(frozen=True)
class LcuProgram:
    """A bridge's skeleton (cut and dictionaries) plus its Prep table.

    ``prep`` has one row ``(a, b, amp, phase)`` per pair, and ``columns``
    holds the same table as read-only arrays, built on first use;
    everything else about Select, the ancilla widths and the select hash
    follows.
    """

    cut: int
    left: tuple[str, ...]
    right: tuple[str, ...]
    lam: float
    prep: tuple[tuple[int, int, float, complex], ...]

    @cached_property
    def columns(self) -> PrepColumns:
        table = PrepColumns(*map(np.array, zip(*self.prep) if self.prep else ((),) * 4,
                                 (np.int64, np.int64, np.float64, np.complex128)))
        for column in table:
            column.flags.writeable = False
        return table

    @property
    def n_sites(self) -> int:
        return self.cut + len(self.right[0])

    @property
    def a_left(self) -> int:
        return (len(self.left) - 1).bit_length()

    @property
    def a_right(self) -> int:
        return (len(self.right) - 1).bit_length()

    @property
    def a_total(self) -> int:
        return self.a_left + self.a_right

    @cached_property  # a program is frozen, so its skeleton is hashed once
    def select_hash(self) -> str:
        return skeleton_hash(self.cut, self.left, self.right, [(a, b) for a, b, *_ in self.prep])

    def pair_index(self, a: int, b: int) -> int:
        return (a << self.a_right) | b


def compile_lcu(d: BridgeDecomposition) -> LcuProgram:
    """Compile a bridge decomposition into an LCU program."""
    pairs, coeffs = d.bridge.pairs, d.bridge.coeffs
    if np.count_nonzero(coeffs) < len(coeffs):  # cancelled pairs carry no amplitude
        pairs, coeffs = pairs[coeffs != 0], coeffs[coeffs != 0]
    if not len(coeffs):
        raise EmptyOperator("bridge has no active pairs")
    with np.errstate(over="ignore"):  # a complex subnormal c has no finite 1 / |c|; writers refuse its phase
        lam = float(np.sum(np.abs(coeffs)))
        # +-1 for a real coefficient, else c / |c| rounded as numpy divides a complex scalar
        unit = coeffs / np.hypot(coeffs.real, coeffs.imag)
    phases = np.where(coeffs.imag == 0, np.copysign(1.0, coeffs.real), unit)
    if not math.isfinite(lam):
        raise ValueError(f"the one-norm lambda of the bridge overflows to {lam}")
    amps = np.sqrt(np.abs(coeffs) / lam)
    amps /= np.linalg.norm(amps)
    prep = tuple(zip(*pairs.T.tolist(), amps.tolist(), phases.tolist()))
    return LcuProgram(cut=d.cut, left=d.left.labels, right=d.right.labels, lam=lam, prep=prep)


def update_coefficients(program: LcuProgram, d: BridgeDecomposition) -> LcuProgram:
    """Recompile against new coefficients on the same skeleton.

    Raises SupportChanged when the fragment dictionaries or the active
    pair set differ from the original program, since those alter the
    select structure rather than just prep amplitudes and phases.
    """
    fresh = compile_lcu(d)
    if fresh.select_hash != program.select_hash:
        raise SupportChanged(
            "bridge skeleton differs from the compiled program; recompile instead"
        )
    return fresh


def _pair_indices(program: LcuProgram) -> np.ndarray:
    return (program.columns.a << program.a_right) | program.columns.b


def prep_dense(program: LcuProgram) -> np.ndarray:
    """Householder reflection mapping |0> to the amplitude vector."""
    dim = 2**program.a_total
    u = np.zeros(dim)
    u[_pair_indices(program)] = program.columns.amp
    u /= np.linalg.norm(u)
    v = u - np.eye(dim)[:, 0]
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2


def _fragment_ops(labels, reg_dim: int, width: int) -> list[np.ndarray]:
    # padding indices of a register act as identity on that half
    ops = [dense_string(PauliString.from_label(s)) for s in labels]
    return ops + [np.eye(2**width, dtype=np.complex128)] * (reg_dim - len(ops))


def _phase_rows(program: LcuProgram) -> np.ndarray:
    # Phi as a column of row scales: each pair's phase; an index Prep does
    # not load gets no amplitude, so its scale is left at 1
    phases = np.ones(2**program.a_total, dtype=np.complex128)
    phases[_pair_indices(program)] = program.columns.phase
    return np.repeat(phases, 2**program.n_sites)[:, None]


def _check_dense_size(program: LcuProgram) -> None:
    total = program.a_total + program.n_sites
    if total > DENSE_LIMIT:
        raise TooLarge(f"{total} total qubits exceeds dense limit {DENSE_LIMIT}")


def select_dense(program: LcuProgram) -> np.ndarray:
    """Monolithic select unitary: Phi times one block per register pair."""
    _check_dense_size(program)
    cut, n = program.cut, program.n_sites
    left = _fragment_ops(program.left, 2**program.a_left, cut)
    right = _fragment_ops(program.right, 2**program.a_right, n - cut)
    out = scipy.linalg.block_diag(*(np.kron(p, q) for p in left for q in right))
    out *= _phase_rows(program)
    return out


def select_factorized_dense(program: LcuProgram) -> np.ndarray:
    """Phi . Select_L . Select_R, equal to ``select_dense`` for every program.

    Select_L applies left fragment alpha to the left sites when the left
    register holds alpha, and Select_R does the same on the right; neither
    depends on a coefficient. Every phase sits in Phi, a diagonal on the
    pair register.
    """
    _check_dense_size(program)
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


def block_encoding_dense(program: LcuProgram) -> np.ndarray:
    """Full walk unitary (Prep^dag x I) Select (Prep x I); a test oracle."""
    _check_dense_size(program)
    dim_sys = 2**program.n_sites
    prep = prep_dense(program)
    sel = select_dense(program)
    lifted = np.kron(prep, np.eye(dim_sys))
    return lifted.conj().T @ sel @ lifted


def encoded_block(program: LcuProgram) -> PauliSum:
    """The encoded operator <0|(Prep^dag x I) Select (Prep x I)|0> as a Pauli sum.

    Prep is the real Householder reflection taking |0> to the normalized
    amplitude vector u, and Select is block diagonal over the pair
    register, so the block is sum_j u_j^2 Phi_j S_j over the table's pairs,
    with S_j the pair's string; a padding half is the identity.
    """
    norm2 = sum(amp * amp for _, _, amp, _ in program.prep)
    cut, n = program.cut, program.n_sites
    left = program.left + ("I" * cut,) * (2**program.a_left - len(program.left))
    right = program.right + ("I" * (n - cut),) * (2**program.a_right - len(program.right))
    return PauliSum(n, [(amp * amp / norm2 * ph, PauliString.from_label(left[a] + right[b]))
                        for a, b, amp, ph in program.prep])


def block_error(program: LcuProgram, op: PauliSum) -> float:
    """The l1 norm of the Pauli coefficients of ``encoded_block(program) - op / lambda``.

    Every Pauli string has spectral norm 1, so this bounds the
    spectral-norm error of the block encoding without densifying.
    """
    if program.n_sites != op.n_sites:
        raise ValueError(f"program acts on {program.n_sites} sites, operator has {op.n_sites}")
    target = [(-t.coeff / program.lam, t.string) for t in op.terms]
    return float(sum(abs(t.coeff) for t in PauliSum(op.n_sites, [*encoded_block(program), *target])))


def success_probability(program: LcuProgram, state: np.ndarray) -> float:
    """Probability of the all-zeros ancilla outcome on a unit input state.

    The block acts on the vector through its flip-mask groups, so the
    only dense objects are the state and one diagonal per mask.
    """
    out = _act(encoded_block(program), np.asarray(state, dtype=np.complex128).ravel())
    return float(np.vdot(out, out).real)


def _fmt_phase(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    if z.real == 0:
        return f"{z.imag:.12g}i"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def emit_gates(program: LcuProgram) -> str:
    """Text listing: prep pseudo-gate, one controlled Pauli per pair.

    The control pattern is the pair index in binary (left register bits
    first); unit phases are omitted from the annotation.
    """
    width, columns, index = program.a_total, program.columns, _pair_indices(program).tolist()
    head = (
        f"# {GATES_FORMAT} n_sites={program.n_sites} cut={program.cut}"
        f" a_left={program.a_left} a_right={program.a_right}"
        f" lambda={program.lam:.12g}"
    )
    prep = " ".join(map("{}:{:.12g}".format, index, columns.amp.tolist()))
    patterns = map(f"{{:0{width}b}}".format, index) if width else ["-"] * len(index)
    phases = columns.phase.tolist()
    notes = {ph: "" if ph == 1 else f" phase={_fmt_phase(ph)}" for ph in set(phases)}
    rows = zip(patterns, map(program.left.__getitem__, columns.a.tolist()),
               map(program.right.__getitem__, columns.b.tolist()), map(notes.__getitem__, phases))
    cpauli = "".join(["cpauli %s %s%s%s\n"] * len(index)) % tuple(itertools.chain.from_iterable(rows))
    return f"{head}\nprep {prep}\n{cpauli}unprep\n"


def program_to_json(program: LcuProgram) -> str:
    columns = program.columns
    a, b = columns.a.tolist(), columns.b.tolist()
    doc = {
        "format": FORMAT_NAME,
        "n_sites": program.n_sites,
        "cut": program.cut,
        "left": list(program.left),
        "right": list(program.right),
        "lambda": program.lam,
        "a_left": program.a_left,
        "a_right": program.a_right,
        "prep": json_rows({"a": "%d", "b": "%d", "amp": "%r"}, [a, b, columns.amp.tolist()]),
        "select": json_rows(
            # labels are IXYZ only, so they need no escape
            {"a": "%d", "b": "%d", "pl": '"%s"', "pr": '"%s"', "phase_re": "%r", "phase_im": "%r"},
            [a, b, list(map(program.left.__getitem__, a)), list(map(program.right.__getitem__, b)),
             columns.phase.real.tolist(), columns.phase.imag.tolist()],
        ),
        "select_hash": program.select_hash,
    }
    return json_text(doc)


_malformed = partial(malformed, FORMAT_NAME)
_field = partial(json_field, FORMAT_NAME)
_finite = partial(json_finite, FORMAT_NAME)


def program_from_json(text: str) -> LcuProgram:
    """Read an lcu-v1 document; every malformed field raises ValueError naming it.

    ``prep[k]`` and ``select[k]`` are one row of the program's table, so
    they must name the same pair, and ``select_hash`` must be the hash of
    the dictionaries and pairs read.
    """
    doc = json_document(text, FORMAT_NAME)
    n_sites = _field(doc, "n_sites", int)
    cut = _field(doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise _malformed("cut", f"{cut} not in 1..{n_sites - 1}")
    left = json_labels(FORMAT_NAME, doc, "left", cut)
    right = json_labels(FORMAT_NAME, doc, "right", n_sites - cut)
    lam = _finite(doc, "lambda")
    if lam <= 0:
        raise _malformed("lambda", f"expected a positive one-norm, got {lam!r}")
    for key, labels in (("a_left", left), ("a_right", right)):
        want = (len(labels) - 1).bit_length()
        if _field(doc, key, int) != want:
            raise _malformed(key, f"{len(labels)} fragments need {want} ancillas, got {doc[key]}")
    preps, selects = _field(doc, "prep", list), _field(doc, "select", list)
    if len(preps) != len(selects):
        raise _malformed("select", f"{len(selects)} rows, prep has {len(preps)}")
    prep = _read_table(preps, selects, left, right)
    norm = math.sqrt(sum(amp * amp for _, _, amp, _ in prep))
    if abs(norm - 1.0) > PREP_NORM_TOL:
        raise _malformed("prep", f"amplitude norm {norm:.6g} is not 1")
    program = LcuProgram(cut=cut, left=left, right=right, lam=lam, prep=prep)
    if _field(doc, "select_hash", str) != program.select_hash:
        raise _malformed("select_hash", "is not the hash of the dictionaries and pairs")
    return program


def _read_table(preps: list, selects: list, left: tuple[str, ...], right: tuple[str, ...]) -> tuple:
    """The table rows of equally long ``prep`` and ``select`` lists, in file order, checked in bulk."""
    sizes = (len(left), len(right))
    keys = ("a", "b", "pl", "pr", "phase_re", "phase_im")
    s_cols = json_columns(selects, keys, (*sizes, str, str, float, float))
    p_cols = json_columns(preps, keys[:2] + ("amp",), (*sizes, float))
    if (s_cols is None or p_cols is None or p_cols[:2] != s_cols[:2]
            or len(set(zip(*s_cols[:2]))) < len(selects)
            or tuple(map(left.__getitem__, s_cols[0])) != s_cols[2]
            or tuple(map(right.__getitem__, s_cols[1])) != s_cols[3]
            # np.hypot rounds as abs(complex) does
            or not (np.abs(np.hypot(s_cols[4], s_cols[5]) - 1) <= PHASE_TOL).all()):
        _raise_row_error(preps, selects, left, right)
    return tuple(zip(*s_cols[:2], p_cols[2], map(complex, *s_cols[4:])))


def _index(row, key: str, size: int, where: str) -> int:
    value = _field(row, key, int, where)
    if not 0 <= value < size:
        raise _malformed(where + key, f"{value} not in 0..{size - 1}")
    return value


def _raise_row_error(preps: list, selects: list, left: tuple[str, ...], right: tuple[str, ...]):
    """Raise the error of the first prep/select row pair that breaks the format."""
    seen = set()
    for k, (p_row, s_row) in enumerate(zip(preps, selects)):
        where = f"select[{k}]."
        a = _index(s_row, "a", len(left), where)
        b = _index(s_row, "b", len(right), where)
        if _field(s_row, "pl", str, where) != left[a] or _field(s_row, "pr", str, where) != right[b]:
            raise _malformed(where + "pl/pr", "select row labels disagree with the dictionaries")
        if (a, b) in seen:
            raise _malformed(f"select[{k}]", f"pair ({a}, {b}) appears twice")
        seen.add((a, b))
        phase = complex(_finite(s_row, "phase_re", where), _finite(s_row, "phase_im", where))
        if abs(abs(phase) - 1) > PHASE_TOL:
            raise _malformed(f"select[{k}]", f"phase {phase} has modulus {abs(phase):.6g}, not 1")
        where = f"prep[{k}]."
        pair = (_index(p_row, "a", len(left), where), _index(p_row, "b", len(right), where))
        if pair != (a, b):
            raise _malformed(f"prep[{k}]", f"pair {pair} is not the pair ({a}, {b}) of select[{k}]")
        _finite(p_row, "amp", where)
    raise AssertionError("every prep and select row is well formed")
