"""Block-encoding programs compiled from bridge decompositions.

The pair register is split: ``a_left`` ancilla bits address the left
fragment, ``a_right`` the right, and a pair (alpha, beta) lives at index
``(alpha << a_right) | beta``. Prep loads non-negative amplitudes
``sqrt(|C| / lambda)`` over the active pairs. Select factors as
Phi . Select_L . Select_R for every program: the register selects apply
fragment strings and depend on the dictionaries only, never on a
coefficient, and the coefficient phases form Phi, a diagonal on the pair
register. A program holds the dictionaries and one Prep table, the
read-only columns ``a``, ``b``, ``amp`` and ``phase`` with one entry per
pair; Select is the table's pair list over the dictionaries, and the
``lcu-v1`` select rows store Phi. The top-left
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
    PauliSum,
    _act,
    dense_string,
    json_columns,
    json_document,
    json_field,
    json_rows,
    json_skeleton,
    json_text,
    label_rows,
    malformed,
    require_dense,
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


@dataclass(frozen=True, eq=False)
class LcuProgram:
    """A bridge's skeleton (cut and dictionaries) plus its Prep table.

    ``columns`` holds the table, one entry per pair: int64 ``a`` and
    ``b``, float64 ``amp`` and complex128 ``phase``, made read-only here;
    everything else about Select, the ancilla widths and the select hash
    follows.
    """

    cut: int
    left: tuple[str, ...]
    right: tuple[str, ...]
    lam: float
    columns: PrepColumns

    def __post_init__(self) -> None:
        for column in self.columns:
            column.flags.writeable = False

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
        return skeleton_hash(self.cut, self.left, self.right, np.column_stack(self.columns[:2]).tolist())

    def pair_index(self, a, b):
        """The pair register index of (a, b); of each pair, for int arrays ``a`` and ``b``."""
        return (a << self.a_right) | b


def compile_lcu(d: BridgeDecomposition) -> LcuProgram:
    """Compile a bridge decomposition into an LCU program."""
    active = d.bridge.coeffs != 0  # cancelled pairs carry no amplitude
    pairs, coeffs = d.bridge.pairs[active], d.bridge.coeffs[active]
    if not len(coeffs):
        raise EmptyOperator("bridge has no active pairs")
    with np.errstate(over="ignore"):  # an infinite lambda is refused below; np.where drops an infinite 2**1022 c
        modulus = np.abs(coeffs)
        lam = float(np.sum(modulus))
        # a subnormal |c| has no finite 1 / |c|, so such a c is first scaled by 2**1022, exactly
        scaled = np.where(modulus < 2.0**-1022, coeffs * 2.0**1022, coeffs)
        # +-1 for a real coefficient, else c / |c| rounded as numpy divides a complex scalar
        unit = scaled / np.hypot(scaled.real, scaled.imag)
    phases = np.where(coeffs.imag == 0, np.copysign(1.0, coeffs.real), unit)
    if not math.isfinite(lam):
        raise ValueError(f"the one-norm lambda of the bridge overflows to {lam}")
    amps = np.sqrt(modulus / lam)
    amps /= np.linalg.norm(amps)
    return LcuProgram(d.cut, d.left, d.right, lam, PrepColumns(*pairs.T, amps, phases))


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


def prep_dense(program: LcuProgram) -> np.ndarray:
    """Householder reflection mapping |0> to the amplitude vector."""
    dim = 2**program.a_total
    u = np.zeros(dim)
    u[program.pair_index(*program.columns[:2])] = program.columns.amp
    u /= np.linalg.norm(u)
    v = u - np.eye(dim)[:, 0]
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2


def _fragment_ops(labels, reg_dim: int, width: int) -> list[np.ndarray]:
    # padding indices of a register act as identity on that half
    ops = [dense_string(row, width) for row in label_rows(labels, width)]
    return ops + [np.eye(2**width, dtype=np.complex128)] * (reg_dim - len(ops))


def _phase_rows(program: LcuProgram) -> np.ndarray:
    # Phi as a column of row scales: each pair's phase; an index Prep does
    # not load gets no amplitude, so its scale is left at 1
    phases = np.ones(2**program.a_total, dtype=np.complex128)
    phases[program.pair_index(*program.columns[:2])] = program.columns.phase
    return np.repeat(phases, 2**program.n_sites)[:, None]


def select_dense(program: LcuProgram) -> np.ndarray:
    """Monolithic select unitary: Phi times one block per register pair."""
    require_dense(program.a_total + program.n_sites, "total qubits")
    cut, n = program.cut, program.n_sites
    left = _fragment_ops(program.left, 2**program.a_left, cut)
    right = _fragment_ops(program.right, 2**program.a_right, n - cut)
    out = scipy.linalg.block_diag(*(np.kron(p, q) for p in left for q in right))
    out *= _phase_rows(program)
    return out


def block_encoding_dense(program: LcuProgram) -> np.ndarray:
    """Full walk unitary (Prep^dag x I) Select (Prep x I); a test oracle."""
    require_dense(program.a_total + program.n_sites, "total qubits")
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
    a, b, amp, phase = program.columns
    weights = amp * amp
    cut, n = program.cut, program.n_sites
    left = program.left + ("I" * cut,) * (2**program.a_left - len(program.left))
    right = program.right + ("I" * (n - cut),) * (2**program.a_right - len(program.right))
    rows = label_rows([left[i] + right[j] for i, j in zip(a.tolist(), b.tolist())], n)
    return PauliSum.from_rows(n, rows, weights / sum(weights.tolist()) * phase)


def block_error(program: LcuProgram, op: PauliSum) -> float:
    """The l1 norm of the Pauli coefficients of ``encoded_block(program) - op / lambda``.

    Every Pauli string has spectral norm 1, so this bounds the
    spectral-norm error of the block encoding without densifying.
    """
    if program.n_sites != op.n_sites:
        raise ValueError(f"program acts on {program.n_sites} sites, operator has {op.n_sites}")
    block = encoded_block(program)
    # -c / lambda one part at a time: numpy's complex division multiplies by 1 / lambda, which rounds otherwise
    target = (op.coeffs.view(np.float64) / -program.lam).view(np.complex128)
    rows, coeffs = np.concatenate([block.rows, op.rows]), np.concatenate([block.coeffs, target])
    return float(sum(map(abs, PauliSum.from_rows(op.n_sites, rows, coeffs).coeffs.tolist())))


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
    width, columns, index = program.a_total, program.columns, program.pair_index(*program.columns[:2]).tolist()
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


def program_from_json(text: str) -> LcuProgram:
    """Read an lcu-v1 document; every malformed field raises ValueError naming it.

    ``prep[k]`` and ``select[k]`` are one row of the program's table, so
    they must name the same pair, and ``select_hash`` must be the hash of
    the dictionaries and pairs read.
    """
    doc = json_document(text, FORMAT_NAME)
    cut, left, right = json_skeleton(FORMAT_NAME, doc, "left", "right")
    lam = _field(doc, "lambda", float)
    if lam <= 0:
        raise _malformed("lambda", f"expected a positive one-norm, got {lam!r}")
    for key, labels in (("a_left", left), ("a_right", right)):
        want = (len(labels) - 1).bit_length()
        if _field(doc, key, int) != want:
            raise _malformed(key, f"{len(labels)} fragments need {want} ancillas, got {doc[key]}")
    preps, selects = _field(doc, "prep", list), _field(doc, "select", list)
    if len(preps) != len(selects):
        raise _malformed("select", f"{len(selects)} rows, prep has {len(preps)}")
    columns = _read_table(preps, selects, left, right)
    norm = math.sqrt(sum(amp * amp for amp in columns.amp.tolist()))
    if abs(norm - 1.0) > PREP_NORM_TOL:
        raise _malformed("prep", f"amplitude norm {norm:.6g} is not 1")
    program = LcuProgram(cut=cut, left=left, right=right, lam=lam, columns=columns)
    if _field(doc, "select_hash", str) != program.select_hash:
        raise _malformed("select_hash", "is not the hash of the dictionaries and pairs")
    return program


def _read_table(preps: list, selects: list, left: tuple[str, ...], right: tuple[str, ...]) -> PrepColumns:
    """The table of equally long ``prep`` and ``select`` lists, in file order, checked in bulk."""
    sizes = (len(left), len(right))
    keys = ("a", "b", "pl", "pr", "phase_re", "phase_im")
    s_cols = json_columns(selects, keys, (*sizes, str, str, float, float))
    p_cols = json_columns(preps, keys[:2] + ("amp",), (*sizes, float))
    if (s_cols is None or p_cols is None or p_cols[:2] != s_cols[:2]
            or len(np.unique(np.array(s_cols[0], dtype=np.int64) * len(right) + s_cols[1])) < len(selects)
            or tuple(map(left.__getitem__, s_cols[0])) != s_cols[2]
            or tuple(map(right.__getitem__, s_cols[1])) != s_cols[3]
            # np.hypot rounds as abs(complex) does
            or not (np.abs(np.hypot(s_cols[4], s_cols[5]) - 1) <= PHASE_TOL).all()):
        _raise_row_error(preps, selects, left, right)
    phase = np.array(s_cols[4], dtype=np.complex128)
    phase.imag = s_cols[5]
    return PrepColumns(*np.array(s_cols[:2], dtype=np.int64).reshape(2, -1), np.array(p_cols[2]), phase)


def _raise_row_error(preps: list, selects: list, left: tuple[str, ...], right: tuple[str, ...]):
    """Raise the error of the first prep/select row pair that breaks the format."""
    seen = set()
    for k, (p_row, s_row) in enumerate(zip(preps, selects)):
        where = f"select[{k}]."
        a, b = _field(s_row, "a", len(left), where), _field(s_row, "b", len(right), where)
        if _field(s_row, "pl", str, where) != left[a] or _field(s_row, "pr", str, where) != right[b]:
            raise _malformed(where + "pl/pr", "select row labels disagree with the dictionaries")
        if (a, b) in seen:
            raise _malformed(f"select[{k}]", f"pair ({a}, {b}) appears twice")
        seen.add((a, b))
        phase = complex(_field(s_row, "phase_re", float, where), _field(s_row, "phase_im", float, where))
        if abs(abs(phase) - 1) > PHASE_TOL:
            raise _malformed(f"select[{k}]", f"phase {phase} has modulus {abs(phase):.6g}, not 1")
        where = f"prep[{k}]."
        pair = (_field(p_row, "a", len(left), where), _field(p_row, "b", len(right), where))
        if pair != (a, b):
            raise _malformed(f"prep[{k}]", f"pair {pair} is not the pair ({a}, {b}) of select[{k}]")
        _field(p_row, "amp", float, where)
    raise AssertionError("every prep and select row is well formed")
