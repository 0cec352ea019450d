"""Time-dependent Schrodinger propagation for 2x2 and 3x3 complex, possibly
non-Hermitian Hamiltonians.

Two fixed-step methods:

    PIECEWISE_EXPM  per step, H is sampled at the interval midpoint and the
                    exact map exp(-i H dt) is applied.  Exact for constant H;
                    midpoint sampling gives global order 2.  Because each
                    sub-step is an exact exponential, fast static phases
                    (large one-photon detunings) cost nothing: the step count
                    is set by how fast the controls vary.  A 3x3 step whose
                    excited level dominates, as every Lambda step does, has
                    that level split off exactly, so its phase takes no
                    squarings either (see expm_small).  One pairwise
                    product tree gives the final state and, for a stored
                    trajectory, every state on the way; storing one changes
                    no reported number.
    RK4             classical 4th-order on dpsi/dt = -i H(t) psi, kept for
                    cross-validation; it must resolve every phase in H, so it
                    is unsuitable for stiff three-level runs.

Propagation is deterministic: identical requests give bit-identical results.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._csvfloat import render_rows
from .core_model import QuantumState, from_entry_rows, to_entry_rows
from .schedules import PulseSchedule

_CHUNK = 65536
_NORM_ABORT = 1e-6
# matrices per structure-of-arrays block of the Taylor kernel.  A 3x3 block is
# 295 KB (197 KB packed symmetric), so the block, its powers and the partial
# sum stay in cache; on a 2-core Xeon (2 MB L2 per core) 2048 and 4096 timed
# within 10 % of each other, 512 and 16384 about 50 % slower
_BLOCK = 2048
_INV_FACT = [1.0 / math.factorial(j) for j in range(17)]
# rows per rendered CSV block: 1024 rows of 11 values keep the renderer's
# float64 temporaries at 90 KB, in cache.  On a 2-core Xeon a 131 073-row
# Lambda trajectory took 0.20 s to write, against 0.22 s with 4096 rows
_CSV_ROWS = 1024

DEFAULT_STEPS = {2: 100_000, 3: 500_000}
MIN_STEPS = 10


def resolve_steps(steps: int | None, dim: int) -> int:
    """`steps` when given, else the default step count for a `dim`-level system."""
    return DEFAULT_STEPS[dim] if steps is None else int(steps)


class Method(enum.Enum):
    PIECEWISE_EXPM = "piecewise_expm"
    RK4 = "rk4"


class IntegrationError(RuntimeError):
    """Propagation produced non-finite amplitudes or unphysical norm growth."""


@dataclass(frozen=True)
class EvolveRequest:
    """One propagation task.  amplitude_scale multiplies and amplitude_offset
    shifts the schedule's coupling amplitudes; detuning_offset adds a constant
    to delta(t); all three model systematic control errors.  time_reversed
    runs the schedule backwards with H negated (gamma must be 0)."""

    model: object
    schedule: PulseSchedule
    initial: QuantumState
    steps: int | None = None
    method: Method = Method.PIECEWISE_EXPM
    store_trajectory: bool = False
    amplitude_scale: float = 1.0
    amplitude_offset: float = 0.0
    detuning_offset: float = 0.0
    time_reversed: bool = False


@dataclass(frozen=True)
class EvolveResult:
    final: QuantumState
    final_norm_sq: float
    populations: np.ndarray
    trajectory: tuple[np.ndarray, np.ndarray] | None = None


def expm_small(a: np.ndarray) -> np.ndarray:
    """Matrix exponential for small dense matrices (batched over leading axes).

    2x2 matrices use the exact closed form: with A = m*I + N, N traceless and
    s^2 = n00^2 + n01*n10, exp(A) = e^m*(cosh(s)*I + sinh(s)/s*N).  It holds
    for complex s, so for non-Hermitian A too, and needs no scaling.  Both
    coefficients are formed from e^(m+s) and expm1(-2s) with Re(s) >= 0, so
    they neither overflow where exp(A) is finite nor cancel as s -> 0; s = 0
    (a nilpotent or scalar A) takes sinh(s)/s = 1.

    3x3 batches are read as (entries, batch) rows, in place from the batch (a
    view for matrices stored entry-major, as the Lambda model builds them,
    and for ordinary (batch, n, n) arrays alike), and taken in cache-sized
    blocks.  The data picks one of two kernels.

    Block-decoupled (exact, no scaling): every matrix is exactly complex
    symmetric (A^T = A, as -i*H*dt is for every model here: real couplings,
    decay on the diagonal) and has a strictly dominant last diagonal entry,
    (|a02| + |a12|) <= 2^-8 (|a22| - |a00| - |a11| - 2|a01|) with the bracket
    > 0, as every Lambda step has with its 2pi x 10 GHz detuning (and, so
    that no intermediate underflows or overflows, the bracket >= 2^-500 and
    |a22| <= 2^500).  With B the
    leading 2x2 block and c = (a02, a12), the isolated eigenvalue solves
    lambda = a22 + c^T (lambda I - B)^-1 c; three fixed-point steps from a22
    converge to rounding, each shrinking the error by the squared coupling
    ratio.  With x = (lambda I - B)^-1 c, T = [[I, x], [-x^T, 1]] splits A:
    exp(A) = T diag(exp(R), e^lambda) T^-1 with R = B - c x^T, whose
    exponential is the 2x2 closed form above, and T^-1 = diag(I - x x^T/s,
    1/s) T^T, s = 1 + x^T x (the block Schur-Parlett idea).  Each stored
    entry (i <= j) is written to (i, j) and (j, i).

    Scaling and squaring, for every other batch: the batch is scaled by one
    power of two so every Frobenius norm is <= 0.5, the degree-16 Taylor
    polynomial is evaluated by Paterson-Stockmeyer and the result squared
    back, all as elementwise products over (entries, batch) rows.  When every
    matrix of the batch is exactly complex symmetric, so is every power,
    partial sum and square, and a block holds only the n(n+1)/2 entries with
    i <= j: a 3x3 product then takes 18 multiply-adds instead of 27, and a
    square 12 multiplies (z_ii = sum_k x_ik^2 from one square per stored
    entry, z_ij = x_ij (x_ii + x_jj) + x_ik x_kj).  Each stored entry is
    written back to (i, j) and (j, i), so the result is exactly symmetric.
    Any other batch uses all n*n entries.

    Accurate to ~1e-12 relative in Frobenius norm for finite input.  The
    result may be a view onto entry-row storage (core_model.from_entry_rows).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix entries")
    n = a.shape[-1]
    if n == 2:
        out = _expm_2x2(a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1])
        return np.moveaxis(out.reshape((2, 2) + a.shape[:-2]), (0, 1), (-2, -1))
    # (n*n, batch) entry rows; a view for entry-major and (batch, n, n) storage
    rows = np.moveaxis(a, (-2, -1), (0, 1)).reshape(n * n, -1)
    symmetric = all(
        np.array_equal(rows[i * n + j], rows[j * n + i])
        for i in range(n)
        for j in range(i + 1, n)
    )
    if symmetric and n == 3 and _last_entry_dominates(rows):
        out = _expm_decoupled(rows)
    else:
        out = _expm_scaled_taylor(rows, symmetric)
    return from_entry_rows(out.reshape(n, n, -1)).reshape(a.shape)


def _expm_2x2(a00, a01, a10, a11) -> np.ndarray:
    # exp([[a00, a01], [a10, a11]]) elementwise, as one (4, ...) array of
    # the entries 00, 01, 10, 11
    m = 0.5 * (a00 + a11)
    d = 0.5 * (a00 - a11)
    s = np.sqrt(d * d + a01 * a10)
    up = np.exp(m + s)
    g = np.expm1(-2.0 * s)
    cosh_m = up * (1.0 + 0.5 * g)  # e^m cosh(s)
    sinhc_m = np.ones_like(s)  # e^m sinh(s)/s
    np.divide(-0.5 * g, s, out=sinhc_m, where=s != 0)
    sinhc_m *= up
    nd = sinhc_m * d
    out = np.empty((4,) + np.shape(s), dtype=complex)
    np.add(cosh_m, nd, out=out[0, ...])
    np.multiply(sinhc_m, a01, out=out[1, ...])
    np.multiply(sinhc_m, a10, out=out[2, ...])
    np.subtract(cosh_m, nd, out=out[3, ...])
    return out


def _last_entry_dominates(rows: np.ndarray) -> bool:
    # (|a02| + |a12|) <= 2^-8 gap for every 3x3 matrix of the (9, batch)
    # entry rows, with gap = |a22| - |a00| - |a11| - 2|a01| > 0: a zero gap,
    # as for the zero matrix, is no dominance.  gap >= 2^-500 and
    # |a22| <= 2^500 also keep det(lambda I - B), between about gap^2 and
    # 4 |a22|^2, clear of underflow and overflow
    last = np.abs(rows[8])
    gap = last - np.abs(rows[0]) - np.abs(rows[4]) - 2.0 * np.abs(rows[1])
    coupling = np.abs(rows[2]) + np.abs(rows[5])
    return bool(
        np.all(gap >= 2.0**-500)
        and np.all(last <= 2.0**500)
        and np.all(coupling <= 2.0**-8 * gap)
    )


def _expm_decoupled(rows: np.ndarray) -> np.ndarray:
    # exp of complex-symmetric 3x3 matrices with a dominant last diagonal
    # entry, from (9, batch) entry rows to (9, batch) rows (see expm_small)
    out = np.empty(rows.shape, dtype=complex)
    for lo in range(0, rows.shape[-1], _BLOCK):
        b00, b01, c0, b11, c1, a22 = rows[[0, 1, 2, 4, 5, 8], lo : lo + _BLOCK]
        b01_sq = b01 * b01
        # c^T (lambda I - B)^-1 c = (r c0^2 + p c1^2 + 2 b01 c0 c1) / (p r - b01^2)
        # with p = lambda - b00, r = lambda - b11
        c0_sq, c1_sq, cross = c0 * c0, c1 * c1, 2.0 * b01 * c0 * c1
        lam = a22
        for _ in range(3):
            p, r = lam - b00, lam - b11
            lam = a22 + (r * c0_sq + p * c1_sq + cross) / (p * r - b01_sq)
        p, r = lam - b00, lam - b11
        inv_det = 1.0 / (p * r - b01_sq)
        x0 = (r * c0 + b01 * c1) * inv_det
        x1 = (p * c1 + b01 * c0) * inv_det
        e00, e01, e10, e11 = _expm_2x2(b00 - c0 * x0, b01 - c0 * x1, b01 - c1 * x0, b11 - c1 * x1)
        # T diag(E, mu) T^-1 = T diag(E (I - x x^T/s), mu/s) T^T; with
        # z = (mu x - E x)/s its last column is z, its corner mu - x^T z
        # and its leading block E + z x^T
        mu = np.exp(lam)
        inv_s = 1.0 / (1.0 + x0 * x0 + x1 * x1)
        z0 = (mu * x0 - e00 * x0 - e01 * x1) * inv_s
        z1 = (mu * x1 - e10 * x0 - e11 * x1) * inv_s
        block = out[:, lo : lo + _BLOCK]
        block[0] = e00 + x0 * z0
        block[1] = block[3] = e01 + x1 * z0
        block[2] = block[6] = z0
        block[4] = e11 + x1 * z1
        block[5] = block[7] = z1
        block[8] = mu - x0 * z0 - x1 * z1
    return out


class _Layout(NamedTuple):
    """A batch of n x n matrices stored as rows of an (entries, batch) array.

    The full layout stores all n*n entries row-major; the symmetric layout
    stores the upper triangle (i <= j) once, for matrices with M^T = M."""

    source: list  # flat position i*n + j of each stored entry
    expand: list  # stored row of each flat position i*n + j
    diag: list  # stored rows of the diagonal
    terms: tuple  # per stored entry (i, j): the (row of x, row of y) of x_ik y_kj
    # symmetric layout only, per stored entry (i, j) of x @ x for x = x^T:
    # on the diagonal (None, rows of the x_ik^2 in order of k); off it
    # ((rows of x_ii, x_jj), (row, row) of x_ik x_kj for each k != i, j)
    square: tuple | None


@functools.lru_cache(maxsize=None)
def _layout(n: int, symmetric: bool) -> _Layout:
    pairs = [(i, j) for i in range(n) for j in range(n) if i <= j or not symmetric]
    rows = {pair: r for r, pair in enumerate(pairs)}

    def row(i: int, j: int) -> int:
        return rows[min(i, j), max(i, j)] if symmetric else rows[i, j]

    def square(i: int, j: int) -> tuple:
        if i == j:
            return None, tuple(row(i, k) for k in range(n))
        rest = tuple((row(i, k), row(k, j)) for k in range(n) if k not in (i, j))
        return (row(i, i), row(j, j)), rest

    expand = [row(i, j) for i in range(n) for j in range(n)]
    return _Layout(
        source=[i * n + j for i, j in pairs],
        expand=expand,
        diag=[row(i, i) for i in range(n)],
        terms=tuple(tuple((row(i, k), row(k, j)) for k in range(n)) for i, j in pairs),
        square=tuple(square(i, j) for i, j in pairs) if symmetric else None,
    )


def _expm_scaled_taylor(rows: np.ndarray, symmetric: bool) -> np.ndarray:
    # exp of the (n*n, batch) entry rows to (n*n, batch) rows (see expm_small)
    n = math.isqrt(rows.shape[0])
    layout = _layout(n, symmetric)
    # squared Frobenius norms without a batch-sized complex temporary
    sq = np.einsum("ib,ib->b", rows.real, rows.real)
    sq += np.einsum("ib,ib->b", rows.imag, rows.imag)
    max_norm = math.sqrt(float(np.max(sq))) if sq.size else 0.0
    k = 0 if max_norm <= 0.5 else int(math.ceil(math.log2(max_norm / 0.5)))
    scale = 2.0**-k
    out = np.empty(rows.shape, dtype=complex)
    for lo in range(0, rows.shape[-1], _BLOCK):
        # gathering per block keeps the stored rows cache-sized
        b = rows[layout.source, lo : lo + _BLOCK]
        b *= scale
        p = _taylor16(b, layout)
        for _ in range(k):
            p = _square(p, layout)
        for dest, row in zip(out, layout.expand):
            dest[lo : lo + _BLOCK] = p[row]
    return out


def _taylor16(b: np.ndarray, layout: _Layout) -> np.ndarray:
    # sum_{j<=16} b^j/j! as Q0 + b4 (Q1 + b4 (Q2 + b4 (Q3 + b4/16!))), where
    # Qi = sum_{r<4} b^(4i+r)/(4i+r)!: 6 products instead of Horner's 15
    b2 = _square(b, layout)
    b4 = _square(b2, layout)
    powers = (b, b2, _mul(b2, b, layout))
    p = _INV_FACT[16] * b4
    for i in (3, 2, 1, 0):
        for r, power in enumerate(powers, start=1):
            p += _INV_FACT[4 * i + r] * power
        p[layout.diag] += _INV_FACT[4 * i]
        if i:
            p = _mul(b4, p, layout)
    return p


def _mul(x: np.ndarray, y: np.ndarray, layout: _Layout) -> np.ndarray:
    # x @ y for matrices stored as (entries, batch) rows; each entry's terms
    # are added in order of k.  On the symmetric layout this is the product
    # only when x @ y is symmetric, as for any two polynomials in one
    # symmetric matrix
    out = np.empty((len(layout.terms), x.shape[-1]), dtype=complex)
    tmp = np.empty(x.shape[-1], dtype=complex)
    for row, ((l, r), *rest) in zip(out, layout.terms):
        np.multiply(x[l], y[r], out=row)
        for l, r in rest:
            row += np.multiply(x[l], y[r], out=tmp)
    return out


def _square(x: np.ndarray, layout: _Layout) -> np.ndarray:
    # x @ x.  On the symmetric layout (x = x^T) the diagonal adds the squares
    # of the stored entries in order of k, as _mul does, and an off-diagonal
    # entry takes x_ij (x_ii + x_jj) + the other terms: 12 multiplies for 3x3
    # instead of 18, the sum regrouped at rounding level
    if layout.square is None:
        return _mul(x, x, layout)
    sq = x * x
    out = np.empty_like(x)
    tmp = np.empty(x.shape[-1], dtype=complex)
    for own, (row, (ends, terms)) in enumerate(zip(out, layout.square)):
        if ends is None:
            first, second, *rest = terms
            np.add(sq[first], sq[second], out=row)
            for r in rest:
                row += sq[r]
        else:
            np.add(x[ends[0]], x[ends[1]], out=row)
            row *= x[own]
            for l, r in terms:
                row += np.multiply(x[l], x[r], out=tmp)
    return out


def _unitarize(u: np.ndarray) -> np.ndarray:
    # one Newton step toward the polar factor; keeps gamma=0 step maps unitary
    # to machine precision so norm drift stays ~N*eps even at 1e6 steps.
    # Taken in _BLOCK columns, so the adjoint and correction stay in cache
    n = u.shape[-1]
    layout = _layout(n, False)
    rows = to_entry_rows(u).reshape(n * n, -1)
    adjoint = [j * n + i for i in range(n) for j in range(n)]  # row of x_ji
    out = np.empty_like(rows)
    for lo in range(0, rows.shape[-1], _BLOCK):
        x = rows[:, lo : lo + _BLOCK]
        x_h = x[adjoint]
        corr = _mul(np.conj(x_h, out=x_h), x, layout)
        corr *= -0.5
        corr[layout.diag] += 1.5
        out[:, lo : lo + _BLOCK] = _mul(x, corr, layout)
    return from_entry_rows(out.reshape(n, n, -1))


def _chain_apply(u: np.ndarray, psi: np.ndarray, every: bool = False) -> np.ndarray:
    """Rows U[k] @ ... @ U[0] @ psi: the last, or with `every` one per k.

    One pairwise tree, a Blelloch scan.  Up: level l + 1 multiplies pairs of
    level l and carries an odd last map; root @ psi is the last state.  Down:
    member 2j of level l takes column 2j*2**l of `states` to (2j+1)*2**l,
    where column k + 1 is the state after map k; the rest came from above."""
    n = u.shape[-1]
    layout = _layout(n, False)
    levels = [to_entry_rows(u).reshape(n * n, -1)]
    while levels[-1].shape[-1] > 1:
        m = levels[-1] if every else levels.pop()  # only the down-sweep needs them
        count = m.shape[-1]
        even = (count // 2) * 2
        paired = _mul(m[:, 1:even:2], m[:, 0:even:2], layout)
        levels.append(np.concatenate([paired, m[:, -1:]], axis=-1) if count % 2 else paired)
    states = np.empty((n, levels[0].shape[-1] + 1 if every else 2), dtype=complex)
    states[:, 0] = psi
    states[:, -1:] = _apply(levels[-1], states[:, :1])
    for l in reversed(range(len(levels) - 1)):
        w, end = 2**l, levels[l].shape[-1] // 2 * 2
        states[:, w : end * w : 2 * w] = _apply(levels[l][:, :end:2], states[:, : end * w : 2 * w])
    return states[:, 1:].T


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    # m @ v for (n*n, batch) matrices and (n, batch) vectors, added in order of k
    n = v.shape[0]
    return sum((m[k::n] * v[k] for k in range(1, n)), m[::n] * v[0])


def _check_state(psi: np.ndarray) -> float:
    if not np.all(np.isfinite(psi)):
        raise IntegrationError("non-finite amplitudes during propagation")
    nsq = float(np.real(np.vdot(psi, psi)))
    if nsq > 1.0 + _NORM_ABORT:
        raise IntegrationError(f"norm growth: |psi|^2 = {nsq}")
    return nsq


def _controls(req: EvolveRequest, t: np.ndarray):
    """Schedule samples at (possibly time-reversed) instants t."""
    sched = req.schedule
    sample_t = sched.duration - t if req.time_reversed else t
    delta = sched.delta(sample_t) + req.detuning_offset
    omega_p, omega_s = sched.pulses(sample_t)
    scale, shift = req.amplitude_scale, req.amplitude_offset
    return delta, scale * omega_p + shift, scale * omega_s + shift


def _hamiltonian_chunk(req: EvolveRequest, t: np.ndarray) -> np.ndarray:
    delta, omega_p, omega_s = _controls(req, t)
    h = req.model.hamiltonian_batch(delta, omega_p, omega_s)
    return -h if req.time_reversed else h


def evolve(req: EvolveRequest) -> EvolveResult:
    model = req.model
    dim = model.dim
    if req.initial.dim != dim:
        raise ValueError(f"state dimension {req.initial.dim} != model dimension {dim}")
    steps = resolve_steps(req.steps, dim)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    gamma = getattr(model, "gamma", 0.0)
    if req.time_reversed and gamma != 0.0:
        raise ValueError("time reversal requires gamma = 0")

    duration = req.schedule.duration
    dt = duration / steps
    psi = np.array(req.initial.amplitudes, dtype=complex)

    traj_states = None
    if req.store_trajectory:
        traj_states = np.empty((steps + 1, dim), dtype=complex)
        traj_states[0] = psi

    if req.method is Method.PIECEWISE_EXPM:
        for lo in range(0, steps, _CHUNK):
            hi = min(lo + _CHUNK, steps)
            mid = (np.arange(lo, hi) + 0.5) * dt
            u = expm_small(-1j * dt * _hamiltonian_chunk(req, mid))
            if gamma == 0.0:
                u = _unitarize(u)
            states = _chain_apply(u, psi, req.store_trajectory)
            if req.store_trajectory:
                traj_states[lo + 1 : hi + 1] = states
            psi = states[-1].copy()
            del u, states  # freed before the next chunk's maps are built
            _check_state(psi)
    elif req.method is Method.RK4:
        half_grid = np.linspace(0.0, duration, 2 * steps + 1)
        # divergence is caught by the norm check, so silence the float
        # warnings an unstable run emits on its way there
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, steps, _CHUNK):
                hi = min(lo + _CHUNK, steps)
                a = -1j * _hamiltonian_chunk(req, half_grid[2 * lo : 2 * hi + 1])
                for j in range(hi - lo):
                    a0, am, a1 = a[2 * j], a[2 * j + 1], a[2 * j + 2]
                    k1 = a0 @ psi
                    k2 = am @ (psi + (0.5 * dt) * k1)
                    k3 = am @ (psi + (0.5 * dt) * k2)
                    k4 = a1 @ (psi + dt * k3)
                    psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if req.store_trajectory:
                        traj_states[lo + j + 1] = psi
                _check_state(psi)
    else:
        raise ValueError(f"unknown method {req.method!r}")

    final_norm_sq = _check_state(psi)
    if final_norm_sq > 1.0 + 1e-9:
        raise IntegrationError(
            f"final |psi|^2 = {final_norm_sq} exceeds 1 + 1e-9; increase steps"
        )
    trajectory = None
    if req.store_trajectory:
        times = np.linspace(0.0, duration, steps + 1)
        if not np.all(np.isfinite(traj_states)):
            raise IntegrationError("non-finite amplitudes in stored trajectory")
        trajectory = (times, traj_states)
    return EvolveResult(
        final=QuantumState(psi),
        final_norm_sq=final_norm_sq,
        populations=np.abs(psi) ** 2,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors against the richest refinement and the observed order."""

    rows: list[tuple[int, float]]
    orders: list[float]
    order: float


def convergence_probe(req: EvolveRequest, refinements: int = 4) -> ConvergenceReport:
    """Run evolve at steps, 2*steps, ... and report the observed convergence
    order.

    The error metric is the 2-norm difference of the final state vector
    against the richest run (one further doubling).  The raw vector, global
    phase included, is the solver's actual ODE error; population errors can
    superconverge on near-adiabatic schedules and would overstate the order.
    """
    if refinements < 3:
        raise ValueError("refinements must be >= 3")
    base = resolve_steps(req.steps, req.model.dim)
    levels = [base * 2**j for j in range(refinements + 1)]
    finals = [
        evolve(replace(req, steps=n, store_trajectory=False)).final.amplitudes
        for n in levels
    ]
    richest = finals[-1]
    rows = [
        (levels[j], float(np.linalg.norm(finals[j] - richest)))
        for j in range(refinements)
    ]
    orders = [
        math.log2(rows[j][1] / rows[j + 1][1]) if rows[j + 1][1] > 0 else math.inf
        for j in range(refinements - 1)
    ]
    finite = [p for p in orders if math.isfinite(p)]
    order = float(np.mean(finite)) if finite else math.inf
    return ConvergenceReport(rows=rows, orders=orders, order=order)


def write_trajectory_csv(result: EvolveResult, path) -> None:
    """Dump a stored trajectory: t_s, re/im of each amplitude, norm_sq, populations.

    The bytes are exactly those of writing each value as format(x, ".15e"),
    joined by ',' with '\\n' after each row.  Blocks of _CSV_ROWS rows are
    rendered in numpy by `_csvfloat.render_rows`: a fast path that proves each
    value's rounding, and format() itself for every value it cannot prove
    (zeros, subnormals, inf, nan, near-ties).  The blocks bound the extra
    memory."""
    if result.trajectory is None:
        raise ValueError("result has no stored trajectory")
    times, states = result.trajectory
    dim = states.shape[1]
    cols = ["t_s"]
    for i in range(dim):
        cols += [f"re_{i + 1}", f"im_{i + 1}"]
    cols.append("norm_sq")
    cols += [f"pop_{i + 1}" for i in range(dim)]
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for lo in range(0, len(times), _CSV_ROWS):
            block = states[lo : lo + _CSV_ROWS]
            pops = np.abs(block) ** 2
            table = np.empty((len(block), len(cols)))
            table[:, 0] = times[lo : lo + _CSV_ROWS]
            table[:, 1 : 2 * dim : 2] = block.real
            table[:, 2 : 2 * dim + 1 : 2] = block.imag
            table[:, 2 * dim + 1] = np.sum(pops, axis=1)
            table[:, 2 * dim + 2 :] = pops
            fh.write(render_rows(table))
