"""Kraus representations of the three single-qubit noises and their action.

The noise always acts on the first qubit only.  `apply_to_factor` applies
the Kraus sum on the first tensor factor of a state to a factor W of the
state (rho = W W^dag), so a 2x2 Kraus set acts on qubit 1 of a pair
directly and the evolved factor is [(K_1 x I) W, (K_2 x I) W, ...]; the
numeric route evolves that way.  Channel parameters are the decayed
coherence factors eta (amplitude), gamma (phase) and the error probability
p (depolarizing); the time parametrization of these lives in the dynamics
module.

The constructors take one parameter value or an array of them.  An array
gives a stacked Kraus set: each operator has shape (..., 2, 2), one Kraus
set per parameter value, and completeness is checked for every one of them.
A Kraus set holds its operators as one array, operator index first.

Every set these constructors build is real: the depolarizing set takes
iY = [[0, 1], [-1, 0]] in place of the imaginary Pauli Y, the same channel,
as (iY) rho (iY)^dag = Y rho Y^dag.  `apply_to_factor` computes in the
common dtype of the set and its input, so a real factor evolves in real
arithmetic; a caller's complex set works as before.

`apply_to_factor` checks the completeness of every Kraus set it is given,
also of the sets these constructors build, which are complete by
construction: the check guards caller input, and skipping it for
constructor-built sets would take a second code path.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import _not_member, _reject_first, _unit_interval

# Gate applied by apply_to_factor on arbitrary Kraus sets.
COMPLETENESS_TOL = 1e-10


class NoiseKind(enum.Enum):
    AMPLITUDE = "amplitude"
    PHASE = "phase"
    DEPOLARIZING = "depolarizing"


# NoiseSpec(kind) is kind: kept only for esdbench/workloads.py, which still
# builds NoiseSpec(NoiseKind(name)); it goes once the workloads pass the kind.
NoiseSpec = NoiseKind


@dataclass(frozen=True)
class KrausSet:
    """Ordered, nonempty Kraus operators, all square of the same dimension.

    Built from k operators (a sequence, or one array operator index first),
    each one matrix or a stack of shape (..., dim, dim) with one Kraus set
    per leading index.  `ops` keeps them as one read-only array of shape
    (k, ..., dim, dim), its own copy, so a caller's array stays writable:
    float64 when every operator is real (integers included), else complex128.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        ops = np.array(self.ops)  # mixed shapes raise ValueError
        ops = ops.astype(complex if ops.dtype.kind == "c" else float, copy=False)
        if not len(ops):
            raise ValueError("a KrausSet needs at least one operator")
        if ops.ndim < 3 or ops.shape[-1] != ops.shape[-2]:
            raise ValueError("Kraus operators must be square matrices")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[-1]


def _kraus_set(shape: tuple[int, ...], *ops: dict) -> KrausSet:
    # k operators, one 2x2 matrix each per point of `shape`, filled into one
    # (k, *shape, 2, 2) array: zero outside each operator's given entries
    m = np.zeros((len(ops),) + shape + (2, 2))
    for k, entries in enumerate(ops):
        for (i, j), value in entries.items():
            m[k, ..., i, j] = value
    return KrausSet(m)


def amplitude_kraus(eta) -> KrausSet:
    """Amplitude-noise pair: E0 = diag(eta, 1), E1 with sqrt(1-eta^2) at (1, 0)."""
    eta = _unit_interval("eta", eta)
    return _kraus_set(eta.shape, {(0, 0): eta, (1, 1): 1.0}, {(1, 0): np.sqrt(1.0 - eta * eta)})


def phase_kraus(gamma) -> KrausSet:
    """Phase-noise pair: K0 = diag(1, gamma), K1 = diag(0, sqrt(1-gamma^2))."""
    gamma = _unit_interval("gamma", gamma)
    return _kraus_set(gamma.shape, {(0, 0): 1.0, (1, 1): gamma}, {(1, 1): np.sqrt(1.0 - gamma * gamma)})


def depolarizing_kraus(p) -> KrausSet:
    """Depolarizing quadruple sqrt(1-p) I and sqrt(p/3) times X, iY and Z.

    All four are real: iY = [[0, 1], [-1, 0]] stands in for the Pauli Y,
    which gives the same channel, as (iY) rho (iY)^dag = Y rho Y^dag.
    """
    p = _unit_interval("p", p)
    s = np.sqrt(1.0 - p)
    w = np.sqrt(p / 3.0)
    return _kraus_set(p.shape, {(0, 0): s, (1, 1): s}, {(0, 1): w, (1, 0): w},
                      {(0, 1): w, (1, 0): -w}, {(0, 0): w, (1, 1): -w})


def kraus_for(kind: NoiseKind, value) -> KrausSet:
    """Constructor dispatch on the noise kind, a `NoiseKind` and nothing else."""
    if kind is NoiseKind.AMPLITUDE:
        return amplitude_kraus(value)
    if kind is NoiseKind.PHASE:
        return phase_kraus(value)
    if kind is NoiseKind.DEPOLARIZING:
        return depolarizing_kraus(value)
    raise _not_member(kind, NoiseKind)


def completeness_residual(kraus: KrausSet) -> float | np.ndarray:
    """Frobenius norm of sum(K^dag K) - I; zero for a trace-preserving set.

    A numpy float64 for one Kraus set, an array with one residual per set
    for a stacked one.  Each entry (K^dag K)[i, j] = sum_r conj(K[r, i])
    K[r, j] is summed in row order, the operators' terms onto -I in operator
    order, and the squared moduli of the entries in row-major order.  For a
    2x2 set those are the bits of `np.linalg.norm` over that explicit loop;
    a 4x4 set can differ from it by an ulp or two, as the norm sums 16
    squares pairwise.
    """
    ops = kraus.ops
    k, d, stack = len(ops), kraus.dim, ops.shape[1:-2]
    # one copy with the matrix axes first, t[i, j] = K[i, j] of shape (k, n)
    # for the n sets of the stack, so that every product and sum below runs
    # over contiguous stacks: 2-4x faster at 256-2048 sets than broadcasting
    # over the 2x2 inner axes of the operators' own layout, and a few us
    # slower at 4 sets or fewer
    t = ops.reshape(k, -1, d, d).transpose(2, 3, 0, 1).copy()
    c = t.conj()
    terms = c[0, :, None] * t[0, None, :]
    for r in range(1, d):
        terms = terms + c[r, :, None] * t[r, None, :]
    acc = -np.eye(d)[..., None]
    # summed onto -I in operator order: .sum(2) - I would round differently
    for op in range(k):
        acc = acc + terms[:, :, op]
    sq = (acc.conj() * acc).real
    return np.sqrt(np.add.reduce(sq.reshape(d * d, -1), axis=0)).reshape(stack)[()]


def _check_complete(kraus: KrausSet, what: str) -> None:
    residual = completeness_residual(kraus)
    _reject_first(
        ~(residual <= COMPLETENESS_TOL),
        lambda i, at: f"{what}{at} is not complete: residual {residual[i]:.3e}",
    )


def apply_to_factor(w: np.ndarray, kraus: KrausSet) -> np.ndarray:
    """A factor of the Kraus sum on the first tensor factor, from a factor.

    For rho = w w^dag with `w` of shape (..., d*m, n), returns
    [(K_1 x I_m) w, ..., (K_k x I_m) w] side by side, shape (..., d*m, k*n):
    its product with its own conjugate transpose is sum(K rho K^dag) on the
    first factor, with each K acting as K x I_m.  The factor stays a factor,
    so the evolved state is positive semidefinite by construction and a
    zero column stays exactly zero.  `w` and the Kraus set may each be
    stacks; their leading axes broadcast.  The action of every operator on
    every member is one broadcast matmul, K @ (w's row blocks).

    Every Kraus set must be complete within COMPLETENESS_TOL; the error
    names the first failing member of a stack.  A complete Kraus map sends
    states to states, so the output is left to its consumer to check.
    """
    _check_complete(kraus, "Kraus set")
    w = np.asarray(w)
    if w.ndim < 2 or w.shape[-2] % kraus.dim:
        raise ValueError(f"factor shape {w.shape} does not match Kraus dim {kraus.dim}")
    d, ops = kraus.dim, kraus.ops
    rows, cols = w.shape[-2:]
    # block b of the rows is the part of w where the first factor is in state b
    blocks = w.reshape(w.shape[:-2] + (d, rows // d * cols))
    # block a of (K x I) w is sum_b K[a, b] block_b: K @ blocks, every
    # operator and every member of the stacks in one broadcast matmul
    out = ops @ blocks
    # (k, ..., rows, cols) -> (..., rows, k, cols): operator k's columns side by side
    out = np.moveaxis(out.reshape(out.shape[:-2] + (rows, cols)), 0, -2)
    return out.reshape(out.shape[:-3] + (rows, len(ops) * cols))
