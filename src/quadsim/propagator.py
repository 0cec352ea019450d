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
                    squarings either (see expm_small).  Steps run in
                    chunks of _CHUNK: the controls are sampled once per
                    chunk, and H, -i H dt and the exponential are formed in
                    cache-sized blocks straight into the chunk's maps
                    (_step_maps), so a run without a stored trajectory
                    peaks at about 1.8 chunks of maps (tracemalloc).  One
                    pairwise product tree per chunk gives the final state
                    and, for a stored trajectory, every state on the way,
                    written straight into the trajectory's storage; storing
                    one changes no reported number.
    RK4             classical 4th-order on dpsi/dt = -i H(t) psi, kept for
                    cross-validation: one matrix per step, formed in the same
                    blocks and applied by the same product tree.  It must
                    resolve every phase in H, so it diverges (and aborts) on
                    stiff three-level runs.

Propagation is deterministic: identical requests give bit-identical results.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvfloat import render_rows
from .core_model import QuantumState, from_entry_rows, to_entry_rows
from .schedules import PulseSchedule

_CHUNK = 65536
_NORM_ABORT = 1e-6
# steps per cache-sized block: _step_maps builds a chunk's maps _BLOCK steps
# at a time, and the 3x3 kernels and the polish take any longer batch _BLOCK
# columns at a time.  A 3x3 block of entry rows is 295 KB, so the block, its
# powers and the partial sum stay in cache; on a 2-core Xeon (2 MB L2 per
# core) 2048 and 4096 timed within 10 % of each other for the Taylor kernel,
# 512 and 16384 about 50 % slower
_BLOCK = 2048
# largest Frobenius norm the Taylor kernel takes.  Its relative error grows as
# ~1e-16 ||A||: measured 7.8e-13 at 2^13, 5e-11 at 2^19, 0.1 at 2^50; from
# about 2^60 the squarings return garbage, zeros or NaN
_TAYLOR_MAX_NORM = 2.0**20
# to 1/24!: _series_degree reads 1/(2k+2)! up to k = 11, its degree at |q| = 4
_INV_FACT = [1.0 / math.factorial(j) for j in range(25)]
# largest |q| of a 2x2 batch that takes the power series (see expm_small).
# Horner's rounding grows with the sum of the terms' moduli, cosh(sqrt |q|):
# at |q| = 4 (degree 11) that is 3.8 and the maps are within 1.7 eps of
# mpmath (the closed form 2.5 eps), while on a 2-core Xeon the series still
# costs about 60 ns per matrix against the closed form's 110-140.  Each
# series is truncated where its remainder bound is _SERIES_TOL = u/4
_SERIES_MAX_Q = 4.0
_SERIES_TOL = 2.0**-55
# the series forms e^m apart from cosh(s), and e^m overflows past Re(m) =
# 709.78.  Some entry of exp(A) is at least |e^m| / sqrt 2 (det exp(N) = 1),
# so up to Re(m) = 710.13 exp(A) may still be finite: past 709 a batch keeps
# the closed form as it was, whose e^(m+s) may stay finite where e^m does not
_SERIES_MAX_RE_M = 709.0
# past Re(m+s) = 700 the closed form's coefficients are scaled by 2^-32, as
# they may overflow where exp(A) is finite (e^m sinh(s)/s = 0.9 e^710 for
# A = 710 I + pi/4 [[0, 1], [-1, 0]]).  exp(A) is finite only up to Re(m+s) =
# 710.48 (its spectral radius is at most twice its largest entry)
_CLOSED_SCALE_RE = 700.0
_CLOSED_SHIFT = 32
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

    2x2 matrices use the exact form: with A = m*I + N, N traceless and
    q = s^2 = n00^2 + n01*n10, exp(A) = e^m*(cosh(s)*I + sinh(s)/s*N).  It
    holds for complex s, so for non-Hermitian A too, and needs no scaling.
    cosh(s) and sinh(s)/s are entire in q: a batch whose largest |q| is at
    most _SERIES_MAX_Q = 4 takes both as power series in q, by Horner, of the
    least degree k whose remainder bound |q|^(k+1)/(2k+2)! / (1 - |q|/((2k+3)
    (2k+4))) at the batch's largest |q| is <= u/4 (2 at |q| = 4e-8, 3 at
    1.5e-4, 9 at 1, 11 at 4): no sqrt, no expm1 and no division by s, and
    only e^m is a complex exp.  So a map may change in its last bit with the
    batch it sits in, as scaling and squaring's can.  A batch past that |q|,
    or with Re(m) > 709, where e^m alone could overflow, takes the closed
    form: both coefficients from e^(m+s) and expm1(-2s) with Re(s) >= 0, so
    they do not cancel as s -> 0; s = 0 (a nilpotent or scalar A) takes
    sinh(s)/s = 1.  Either way the maps are within a few eps of mpmath.

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
    exponential is the 2x2 form above, and T^-1 = diag(I - x x^T/s,
    1/s) T^T, s = 1 + x^T x (the block Schur-Parlett idea).  Each stored
    entry (i <= j) is written to (i, j) and (j, i), so the result is exactly
    symmetric.

    Scaling and squaring, for every other batch: the batch is scaled by one
    power of two so every Frobenius norm is <= 0.5, the degree-16 Taylor
    polynomial is evaluated by Paterson-Stockmeyer and the result squared
    back, all as elementwise products over the (n*n, batch) entry rows.  It
    keeps complex symmetric input symmetric to rounding, not bitwise.  The
    squarings leave a unitarity defect of ~1e-12 per map, so an exactly
    skew-Hermitian batch (A^H = -A: -i*H*dt for real symmetric H, gamma = 0)
    then takes one Newton step toward the polar factor (_unitarize).  The
    exact kernels above need none.

    The exact kernels are accurate to rounding; scaling and squaring to
    about 1e-16 ||A|| relative in Frobenius norm, ~1e-12 up to ||A|| = 2^13.
    It refuses a batch whose largest Frobenius norm exceeds _TAYLOR_MAX_NORM
    = 2^20 (ValueError), where its squarings would magnify that error.  The
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
        return from_entry_rows(_expm_decoupled(rows).reshape(n, n, -1)).reshape(a.shape)
    u = from_entry_rows(_expm_scaled_taylor(rows).reshape(n, n, -1))
    skew = all(
        np.array_equal(rows[i * n + j], -np.conj(rows[j * n + i]))
        for i in range(n)
        for j in range(i, n)
    )
    return (_unitarize(u) if skew else u).reshape(a.shape)


def _expm_2x2(a00, a01, a10, a11) -> np.ndarray:
    # exp([[a00, a01], [a10, a11]]) elementwise, as one (4, ...) array of
    # the entries 00, 01, 10, 11
    m = 0.5 * (a00 + a11)
    d = 0.5 * (a00 - a11)
    q = d * d + a01 * a10
    q_max = float(np.max(np.abs(q))) if q.size else 0.0
    # written so that a NaN q_max (inf - inf in q) takes the closed form
    near = None
    if q_max <= _SERIES_MAX_Q and not np.any(m.real > _SERIES_MAX_RE_M):
        cosh_m, sinhc_m = _cosh_sinhc_series(m, q, _series_degree(q_max))
    else:
        cosh_m, sinhc_m, near = _cosh_sinhc_closed(m, q)
    nd = sinhc_m * d
    out = np.empty((4,) + np.shape(q), dtype=complex)
    np.add(cosh_m, nd, out=out[0, ...])
    np.multiply(sinhc_m, a01, out=out[1, ...])
    np.multiply(sinhc_m, a10, out=out[2, ...])
    np.subtract(cosh_m, nd, out=out[3, ...])
    if near is not None:
        out[:, near] = _ldexp(out[:, near], _CLOSED_SHIFT)
    return out


def _series_degree(q_max: float) -> int:
    # the least k whose remainder bound q^(k+1)/(2k+2)! / (1 - q/((2k+3)(2k+4)))
    # is <= _SERIES_TOL: it bounds the tail of the cosh series past q^k, and
    # the smaller tail of the sinh(s)/s series
    k = 0
    while q_max ** (k + 1) * _INV_FACT[2 * k + 2] > _SERIES_TOL * (
        1.0 - q_max / ((2 * k + 3) * (2 * k + 4))
    ):
        k += 1
    return k


def _cosh_sinhc_series(m, q, degree: int):
    # e^m cosh(s) and e^m sinh(s)/s with s^2 = q, as polynomials of the given
    # degree in q by Horner: sum q^k/(2k)! and sum q^k/(2k+1)!
    cosh = np.full_like(q, _INV_FACT[2 * degree])
    sinhc = np.full_like(q, _INV_FACT[2 * degree + 1])
    for k in reversed(range(degree)):
        cosh *= q
        cosh += _INV_FACT[2 * k]
        sinhc *= q
        sinhc += _INV_FACT[2 * k + 1]
    em = np.exp(m)
    cosh *= em
    sinhc *= em
    return cosh, sinhc


def _cosh_sinhc_closed(m, q):
    # e^m cosh(s) and e^m sinh(s)/s from e^(m+s) and expm1(-2s), Re(s) >= 0,
    # and the mask of those scaled by 2^-_CLOSED_SHIFT (None if none is):
    # exactly where e^(m+s) is finite, else as e^h (e^h 2^-shift), h = (m+s)/2
    s = np.sqrt(q)
    ms = m + s
    near = ms.real > _CLOSED_SCALE_RE
    if np.any(near):
        with np.errstate(over="ignore", invalid="ignore"):
            up, half = np.exp(ms), np.exp(0.5 * ms)
            scaled = np.where(
                np.isfinite(up), _ldexp(up, -_CLOSED_SHIFT), half * _ldexp(half, -_CLOSED_SHIFT)
            )
        up = np.where(near, scaled, up)
    else:
        up, near = np.exp(ms), None
    g = np.expm1(-2.0 * s)
    cosh = up * (1.0 + 0.5 * g)
    sinhc = np.ones_like(s)
    np.divide(-0.5 * g, s, out=sinhc, where=s != 0)
    sinhc *= up
    return cosh, sinhc, near


def _ldexp(z, k: int) -> np.ndarray:
    # z 2^k, exactly, part by part: a complex product would turn a zero's
    # sign, and form inf * 0 = nan from an infinite part
    out = np.empty(np.shape(z), dtype=complex)
    out.real, out.imag = np.ldexp(np.real(z), k), np.ldexp(np.imag(z), k)
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


@functools.lru_cache(maxsize=None)
def _terms(n: int) -> tuple:
    # per entry (i, j) of an n x n product, the (row of x, row of y) of x_ik y_kj
    return tuple(
        tuple((i * n + k, k * n + j) for k in range(n)) for i in range(n) for j in range(n)
    )


def _expm_scaled_taylor(rows: np.ndarray) -> np.ndarray:
    # exp of the (n*n, batch) entry rows to (n*n, batch) rows (see expm_small)
    # squared Frobenius norms without a batch-sized complex temporary
    sq = np.einsum("ib,ib->b", rows.real, rows.real)
    sq += np.einsum("ib,ib->b", rows.imag, rows.imag)
    max_norm = math.sqrt(float(np.max(sq))) if sq.size else 0.0
    if max_norm > _TAYLOR_MAX_NORM:
        # hypot rescales, so a norm whose square overflows is still named
        worst = max(math.hypot(*np.abs(rows[:, j])) for j in np.flatnonzero(sq == np.max(sq)))
        raise ValueError(
            f"largest Frobenius norm {worst:.6g} exceeds {_TAYLOR_MAX_NORM:.0f}, "
            "the bound of the scaling-and-squaring exponential"
        )
    k = 0 if max_norm <= 0.5 else int(math.ceil(math.log2(max_norm / 0.5)))
    scale = 2.0**-k
    out = np.empty(rows.shape, dtype=complex)
    for lo in range(0, rows.shape[-1], _BLOCK):
        p = _taylor16(scale * rows[:, lo : lo + _BLOCK])
        for _ in range(k):
            p = _mul(p, p)
        out[:, lo : lo + _BLOCK] = p
    return out


def _taylor16(b: np.ndarray) -> np.ndarray:
    # sum_{j<=16} b^j/j! as Q0 + b4 (Q1 + b4 (Q2 + b4 (Q3 + b4/16!))), where
    # Qi = sum_{r<4} b^(4i+r)/(4i+r)!: 6 products instead of Horner's 15
    b2 = _mul(b, b)
    b4 = _mul(b2, b2)
    powers = (b, b2, _mul(b2, b))
    n = math.isqrt(len(b))
    p = _INV_FACT[16] * b4
    for i in (3, 2, 1, 0):
        for r, power in enumerate(powers, start=1):
            p += _INV_FACT[4 * i + r] * power
        p[:: n + 1] += _INV_FACT[4 * i]
        if i:
            p = _mul(b4, p)
    return p


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x @ y for n x n matrices stored as (n*n, batch) entry rows; each
    # entry's terms are added in order of k
    out = np.empty(x.shape, dtype=complex)
    tmp = np.empty(x.shape[-1], dtype=complex)
    for row, ((l, r), *rest) in zip(out, _terms(math.isqrt(len(x)))):
        np.multiply(x[l], y[r], out=row)
        for l, r in rest:
            row += np.multiply(x[l], y[r], out=tmp)
    return out


def _unitarize(u: np.ndarray) -> np.ndarray:
    # one Newton step toward the polar factor, U (3 I - U^H U) / 2 (Higham):
    # takes the Taylor kernel's maps of skew-Hermitian input to unitary at
    # rounding level, so norm drift stays ~N*eps even at 1e6 steps.
    # Taken in _BLOCK columns, so the adjoint and correction stay in cache
    n = u.shape[-1]
    rows = to_entry_rows(u).reshape(n * n, -1)
    adjoint = [j * n + i for i in range(n) for j in range(n)]  # row of x_ji
    out = np.empty_like(rows)
    for lo in range(0, rows.shape[-1], _BLOCK):
        x = rows[:, lo : lo + _BLOCK]
        x_h = x[adjoint]
        corr = _mul(np.conj(x_h, out=x_h), x)
        corr *= -0.5
        corr[:: n + 1] += 1.5
        out[:, lo : lo + _BLOCK] = _mul(x, corr)
    return from_entry_rows(out.reshape(n, n, -1))


def _chain_apply(u: np.ndarray, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows U[k] @ ... @ U[0] @ psi: the last, or with `out`, a (k + 2, n)
    array, every one, written in place to out[1:] (and psi to out[0]) and
    returned as that view.

    One pairwise tree, a Blelloch scan.  Up: level l + 1 multiplies pairs of
    level l and carries an odd last map; root @ psi is the last state.  Down:
    member 2j of level l takes column 2j*2**l of `states` to (2j+1)*2**l,
    where column k + 1 is the state after map k; the rest came from above."""
    n = u.shape[-1]
    every = out is not None
    levels = [to_entry_rows(u).reshape(n * n, -1)]
    while levels[-1].shape[-1] > 1:
        m = levels[-1] if every else levels.pop()  # only the down-sweep needs them
        count = m.shape[-1]
        even = (count // 2) * 2
        paired = _mul(m[:, 1:even:2], m[:, 0:even:2])
        levels.append(np.concatenate([paired, m[:, -1:]], axis=-1) if count % 2 else paired)
    states = out.T if every else np.empty((n, 2), dtype=complex)
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


def _rk4_step(a: np.ndarray) -> np.ndarray:
    # k RK4 steps as matrices from the 2k + 1 half-step samples A = -i H dt
    # (step j reads a[2j], a[2j + 1], a[2j + 2]): for a linear ODE the step
    # is I + (K1 + 2 K2 + 2 K3 + K4)/6 with K1 = A0, K2 = Am (I + K1/2),
    # K3 = Am (I + K2/2) and K4 = A1 (I + K3)
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    k2 = am + am @ (0.5 * a0)
    k3 = am + am @ (0.5 * k2)
    k4 = a1 + a1 @ k3
    return np.eye(a.shape[-1]) + (a0 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _step_maps(req: EvolveRequest, lo: int, hi: int) -> np.ndarray:
    """The maps of steps lo to hi - 1, exp(-i H dt) or RK4 step matrices, as
    (hi - lo, n, n) matrices held in entry rows (core_model.from_entry_rows).

    The controls are sampled once, at every midpoint of the range (for RK4
    at every half step 2 lo ... 2 hi); the Hamiltonian, -i H dt and the maps
    are then formed _BLOCK steps at a time, so their temporaries stay in
    cache, and each block's maps are written into the one output array."""
    n = req.model.dim
    dt = req.schedule.duration / resolve_steps(req.steps, n)
    # allocated before the samples: with glibc's allocator a 131 072-step
    # Lambda trajectory evolve then took 332 minor page faults, against
    # about 7 500 with the samples first, and ran about a quarter faster
    maps = np.empty((n, n, hi - lo), dtype=complex)
    if req.method is Method.RK4:
        per_step, form = 2, _rk4_step
        t = np.arange(2 * lo, 2 * hi + 1) * (0.5 * dt)
    else:
        per_step, form = 1, expm_small
        t = (np.arange(lo, hi) + 0.5) * dt
    delta, omega_p, omega_s = _controls(req, t)
    # -i (-H) dt runs the schedule backwards
    factor = 1j * dt if req.time_reversed else -1j * dt
    for b in range(0, hi - lo, _BLOCK):
        end = min(b + _BLOCK, hi - lo)
        # an RK4 block also reads its last step's end, the next block's start
        part = slice(per_step * b, per_step * end + per_step - 1)
        h = req.model.hamiltonian_batch(delta[part], omega_p[part], omega_s[part])
        maps[..., b:end] = np.moveaxis(form(factor * h), 0, -1)
    return from_entry_rows(maps)


def evolve(req: EvolveRequest) -> EvolveResult:
    """Propagate req.initial by either method in one loop over chunks of
    _CHUNK steps: _step_maps forms a chunk's maps, one product tree
    (_chain_apply) applies them and writes every state of a stored
    trajectory, then the state is checked.  Raises ValueError for a bad
    request (dimension, steps < MIN_STEPS, time reversal with gamma, unknown
    method) and IntegrationError for non-finite amplitudes or norm growth."""
    model = req.model
    dim = model.dim
    if req.initial.dim != dim:
        raise ValueError(f"state dimension {req.initial.dim} != model dimension {dim}")
    steps = resolve_steps(req.steps, dim)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    if req.time_reversed and getattr(model, "gamma", 0.0) != 0.0:
        raise ValueError("time reversal requires gamma = 0")
    if req.method not in (Method.PIECEWISE_EXPM, Method.RK4):
        raise ValueError(f"unknown method {req.method!r}")

    psi = np.array(req.initial.amplitudes, dtype=complex)
    traj_states = np.empty((steps + 1, dim), dtype=complex) if req.store_trajectory else None

    # divergence, as of RK4 on a stiff run, is caught by the norm check, so
    # silence the float warnings an unstable run emits on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, _CHUNK):
            hi = min(lo + _CHUNK, steps)
            u = _step_maps(req, lo, hi)
            # the trajectory's states, the chunk's first included, are
            # written straight into its storage
            out = None if traj_states is None else traj_states[lo : hi + 1]
            psi = _chain_apply(u, psi, out)[-1].copy()
            del u  # freed before the next chunk's maps are built
            final_norm_sq = _check_state(psi)
    if final_norm_sq > 1.0 + 1e-9:
        raise IntegrationError(
            f"final |psi|^2 = {final_norm_sq} exceeds 1 + 1e-9; increase steps"
        )
    trajectory = None
    if req.store_trajectory:
        times = np.linspace(0.0, req.schedule.duration, steps + 1)
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
