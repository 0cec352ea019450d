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
                    squarings either (see expm_small).  Steps run in chunks
                    whose maps fit in 2 MiB of cache (_chunk: 32 768 two-level
                    steps, 8192 Lambda steps): H, -i H dt and the exponential
                    are formed in blocks of a quarter chunk (_block: 8192
                    two-level steps, 2048 Lambda steps; _step_maps), and the
                    root of one pairwise product tree per chunk is applied to
                    the state.  The 2x2 maps are phase-free, V_j = e^(-m_j)
                    exp(-i H_j dt) with m_j the half-trace (expm_small's
                    `phase`; other maps take m_j = 0): scalars commute, so
                    the chunk's product is e^(sum m_j) times the V_j's, and
                    the state takes psi <- e^(sum m) (R psi), one complex exp
                    per chunk where each map took one.  The tree's small
                    levels, where a level costs its numpy calls rather than
                    its arithmetic, take one gathered product each (_mul),
                    with the same bits.  With a stored trajectory the same
                    tree writes every state on the way straight into the
                    trajectory's storage, each scaled by e^(cumsum m) and the
                    chunk's last by the plain run's e^(sum m); storing one
                    changes no reported number.
    RK4             classical 4th-order on dpsi/dt = -i H(t) psi, kept for
                    cross-validation: one matrix per step, formed in the same
                    blocks and applied by the same product tree.  It must
                    resolve every phase in H, so it diverges (and aborts) on
                    stiff three-level runs.

Every run samples its controls a block at a time, as that block's maps are
formed (_samples, _Sampler): each step's midpoint, or each of RK4's 2N + 1
half steps, once, but where a mirror run samples some again (below).  A
PIECEWISE_EXPM run takes an exact identity of the midpoint rule where its
samples prove one; no option selects it:

    constant  every step's controls, and so its H, are equal (FLAT_PI): the
              one step map is raised to each chunk's length by the product
              tree's own pairing, about 2 log2(chunk) products, and its
              phase summed block by block as the stepped run sums it, which
              gives the stepped run's bits.  A run that stores a trajectory
              steps every map anyway, so it is judged on its first block
              alone: a constant first block takes the full path, any other
              the mirror.
    mirror    with Pi the two-level swap or the Lambda ground-state swap and
              scalars c_j, H_{N-1-j} = Pi H_j Pi + c_j I + E_j, every H_j
              complex symmetric and sum_{j<N/2} dt ||E_j|| (Frobenius) at most
              _MIRROR_TOL = 1e-11 (sweeps with delta(T - t) = -delta(t),
              STIRAP with equal peaks).  Then U_{N-1-j} = e^(-i c_j dt) Pi U_j
              Pi up to E_j and U_j^T = U_j, so only steps 0 .. ceil(N/2) - 1
              are formed and the final state is e^(-i dt sum c_j) Pi P^T Pi
              [M] P psi, P the first half's product (of phase-free maps, so
              e^(2 sum m_j + m_mid) joins e^(-i dt sum c_j)).  The bound is
              how far the answer may move from the full path's, for products
              of contractions, so for gamma > 0 too.  The model gives c_j and
              ||E_j|| from the controls at j and N-1-j (mirror_residual); a
              model without that formula takes the full path.
    full      RK4, which looks for no structure, and every run the samples
              refute: each step's map is formed and applied.

A run is one forward pass over chunks, each yielding one root: the constant
power, or the product tree of its maps, formed under the mirror's gate in
the first half.  The state steps through each chunk, the mirror's too, while
the mirror multiplies their roots into P, so a refuted mirror steps on from
the chunk that refuted it: only that chunk's blocks before the refuting one
are formed twice, and sampled twice with the mirror images its gate took (the
gate builds no H of its own).  A proved mirror's final state comes from P; a
stored trajectory steps on from the start of the first-half chunk cut at
N/2, forming its maps again whole, so every state but the last, the
mirror's, is the full path's.  Every chunk's maps are formed into one
chunk-sized array per run, and no other array of a run grows with its step
count, so a 10^6-step run peaks as high as a 131 072-step one.  The phases
m_j take one block's array, a chunk's when a trajectory is stored, and each
chunk's sum is taken block by block.

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

_NORM_ABORT = 1e-6
# a mirror run may move its answer by at most this from the full path's (see
# _Mirror): sum over the first half of dt ||E_j||, which bounds the
# change for products of contractions, so for gamma > 0 too.  The Lambda
# STIRAP runs at 2.85 ms read 3.5e-12 to 9.6e-12, from the rounding of the
# mirrored sample times; at 21.12 ms they read 1.2e-11 to 2.6e-11
_MIRROR_TOL = 1e-11
# largest Frobenius norm the Taylor kernel takes.  Its relative error grows as
# ~1e-16 ||A||: measured 7.8e-13 at 2^13, 5e-11 at 2^19, 0.1 at 2^50; from
# about 2^60 the squarings return garbage, zeros or NaN
_TAYLOR_MAX_NORM = 2.0**20
# widest batch _mul forms in one gathered product.  On a 2-core Xeon the
# product tree of an 8192-step Lambda chunk took 1.49 ms with the row form
# alone, 0.95 / 0.91 / 1.03 ms gathering up to 512 / 1024 / 2048 columns; a
# 32 768-step two-level chunk 1.20 ms, 1.06 ms from 512 to 2048 and 2.4 ms at
# 4096, where the (n, n*n, batch) temporary leaves the cache
_GATHER_COLS = 1024
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
# the closed form as it was, whose e^(m+s) may stay finite where e^m does not.
# Phase-free maps (expm_small's `phase`) form no e^m, so take no such limit
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
    to delta(t); all three model systematic control errors."""

    model: object
    schedule: PulseSchedule
    initial: QuantumState
    steps: int | None = None
    method: Method = Method.PIECEWISE_EXPM
    store_trajectory: bool = False
    amplitude_scale: float = 1.0
    amplitude_offset: float = 0.0
    detuning_offset: float = 0.0


@dataclass(frozen=True)
class EvolveResult:
    """A run's final state and, with store_trajectory, every state on the
    way.  `path` names what gave the final state: "constant", "mirror" or
    "full", the stepped run, a refuted mirror's included (see the module
    docstring); `mirror_bound` is the gate's sum dt ||E_j|| where it was
    evaluated (up to the block that refuted it, inf for an H that is not
    symmetric), else None.  Neither is written to any output file."""

    final: QuantumState
    final_norm_sq: float
    populations: np.ndarray
    trajectory: tuple[np.ndarray, np.ndarray] | None = None
    path: str = "full"
    mirror_bound: float | None = None


def expm_small(
    a: np.ndarray, out: np.ndarray | None = None, phase: np.ndarray | None = None
) -> np.ndarray:
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

    Every batch is read as (entries, batch) rows, in place from the batch (a
    view for matrices stored entry-major, as the Lambda model builds them,
    and for ordinary (batch, n, n) arrays alike); 3x3 batches are taken in
    cache-sized blocks.  The data picks one of two 3x3 kernels.

    Block-decoupled (exact, no scaling): every matrix is exactly complex
    symmetric (A^T = A, as -i*H*dt is for every model here: real couplings,
    decay on the diagonal) and has a strictly dominant last diagonal entry,
    (|a02| + |a12|) <= 2^-8 (|a22| - |a00| - |a11| - 2|a01|) with the bracket
    > 0, as every Lambda step has with its 2pi x 10 GHz detuning (and, so
    that no intermediate underflows or overflows, the bracket >= 2^-500 and
    |a22| <= 2^500).  A batch that passes this gate is finite, so only the
    batches it refuses are scanned for inf and NaN.  With B the leading 2x2
    block and c = (a02, a12), the isolated eigenvalue solves lambda = a22 +
    c^T (lambda I - B)^-1 c.  Each fixed-point step from a22 shrinks the
    error by about rho^2, rho the batch's largest coupling ratio (|a02| +
    |a12|) / bracket, and the kernel takes the least count k >= 1 whose bound
    rho^(2k+2) |a22| (with its margin, _fixed_point_steps) is 2^-56 |a22|, a
    quarter of the rounding of lambda itself: 3 at the gate's edge rho =
    2^-8, 2 at every Lambda preset (rho ~ 6e-4).  So, like the 2x2 series,
    a map may change in its last bit with the batch it sits in.  With
    x = (lambda I - B)^-1 c, T = [[I, x], [-x^T, 1]] splits A:
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
    With `out`, a complex (n*n, batch) array such as a column slice of a
    chunk's maps, the maps are written there as entry rows, and the result
    is a view onto it; the bits are those returned without it.

    With `phase`, a complex (batch,) array, each map is returned as V =
    e^(-m) exp(A) and its scalar m written to phase, so that exp(A) = e^m V
    in exact arithmetic (the scalar shift, Moler and Van Loan, SIAM Rev. 45,
    2003).  For 2x2 matrices m is the half-trace: the series then forms no
    exp at all, and the closed form takes e^s (a batch past Re(m) = 709 may
    then take the series).  Every other kernel writes m = 0 and returns
    exp(A): a decoupled 3x3 map would take the half-trace of R, but its
    phase-free maps stay nearly constant over the near-constant steps of a
    Lambda run, and their rounding then adds up in the norm (about 3x the
    drift on the Lambda mirror runs) instead of averaging out.  A product
    of such maps is e^(sum m) times the product of the V, exactly: evolve
    takes the step maps this way.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    # (n*n, batch) entry rows; a view for entry-major and (batch, n, n) storage
    rows = np.moveaxis(a, (-2, -1), (0, 1)).reshape(n * n, -1)
    # a batch the decoupled gate takes is finite, so only the others are
    # scanned for inf and NaN
    ratio = _last_entry_dominates(rows) if n == 3 and _symmetric(rows) else None
    if ratio is None and not np.all(np.isfinite(rows)):
        raise ValueError("non-finite matrix entries")
    if out is None:
        out = np.empty(rows.shape, dtype=complex)
    if phase is not None and n != 2:
        phase[...] = 0.0
    if n == 2:
        _expm_2x2(*rows, out=out, phase=phase)
    elif ratio is not None:
        _expm_decoupled(rows, _fixed_point_steps(ratio), out)
    else:
        _expm_scaled_taylor(rows, out)
        skew = all(
            np.array_equal(rows[i * n + j], -np.conj(rows[j * n + i]))
            for i in range(n)
            for j in range(i, n)
        )
        if skew:
            u = _unitarize(from_entry_rows(out.reshape(n, n, -1)))
            out[...] = to_entry_rows(u).reshape(n * n, -1)
    return from_entry_rows(out.reshape(n, n, -1)).reshape(a.shape)


def _symmetric(rows: np.ndarray) -> bool:
    # every n x n matrix of the (n*n, batch) entry rows equals its transpose,
    # exactly
    n = math.isqrt(len(rows))
    return all(
        np.array_equal(rows[i * n + j], rows[j * n + i]) for i in range(n) for j in range(i + 1, n)
    )


def _expm_2x2(a00, a01, a10, a11, out: np.ndarray | None = None, phase=None) -> np.ndarray:
    # exp([[a00, a01], [a10, a11]]) elementwise, as one (4, ...) array of
    # the entries 00, 01, 10, 11, written to `out` when given; with `phase`,
    # e^-m times it, the half-trace m written to phase
    m = np.multiply(0.5, a00 + a11, out=phase)
    d = 0.5 * (a00 - a11)
    q = d * d + a01 * a10
    q_max = float(np.max(np.abs(q))) if q.size else 0.0
    # written so that a NaN q_max (inf - inf in q) takes the closed form
    near = None
    if q_max <= _SERIES_MAX_Q and (phase is not None or not np.any(m.real > _SERIES_MAX_RE_M)):
        cosh_m, sinhc_m = _cosh_sinhc_series(q, _series_degree(q_max))
        if phase is None:
            em = np.exp(m)
            cosh_m *= em
            sinhc_m *= em
    else:
        cosh_m, sinhc_m, near = _cosh_sinhc_closed(0.0 if phase is not None else m, q)
    nd = sinhc_m * d
    if out is None:
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


def _cosh_sinhc_series(q, degree: int):
    # cosh(s) and sinh(s)/s with s^2 = q, as polynomials of the given degree
    # in q by Horner: sum q^k/(2k)! and sum q^k/(2k+1)!
    cosh = np.full_like(q, _INV_FACT[2 * degree])
    sinhc = np.full_like(q, _INV_FACT[2 * degree + 1])
    for k in reversed(range(degree)):
        cosh *= q
        cosh += _INV_FACT[2 * k]
        sinhc *= q
        sinhc += _INV_FACT[2 * k + 1]
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


def _last_entry_dominates(rows: np.ndarray) -> float | None:
    # the coupling ratio max (|a02| + |a12|) / gap over the 3x3 matrices of
    # the (9, batch) entry rows if (|a02| + |a12|) <= 2^-8 gap for every one,
    # with gap = |a22| - |a00| - |a11| - 2|a01| > 0, else None: a zero gap,
    # as for the zero matrix, is no dominance.  gap >= 2^-500 and
    # |a22| <= 2^500 also keep det(lambda I - B), between about gap^2 and
    # 4 |a22|^2, clear of underflow and overflow.  A batch that passes is
    # finite: NaN fails every comparison, an infinite a00, a11 or a01
    # exceeds |a22| <= 2^500 and an infinite a02 or a12 makes the coupling
    # inf.  |a00|, |a11| and |a01| are bounded by |a22| (else gap < 0)
    # before gap is formed, so forming it neither overflows nor takes inf - inf
    last, diag0, diag1, off = (np.abs(rows[i]) for i in (8, 0, 4, 1))
    if not (np.all(last <= 2.0**500) and all(np.all(x <= last) for x in (diag0, diag1, off))):
        return None
    gap = last - diag0 - diag1 - 2.0 * off
    if not np.all(gap >= 2.0**-500):
        return None
    coupling = np.abs(rows[2]) + np.abs(rows[5])
    if not np.all(coupling <= 2.0**-8 * gap):
        return None
    return float(np.max(coupling / gap)) if coupling.size else 0.0


def _fixed_point_steps(ratio: float) -> int:
    # the least k >= 1 after which k steps of lambda <- f(lambda) = a22 +
    # c^T (lambda I - B)^-1 c from a22 leave lambda within 2^-56 |a22| of the
    # isolated eigenvalue, for a batch of coupling ratio rho = `ratio` <= 2^-8
    # (_last_entry_dominates): 3 from rho = 2^-9.33 to the gate's 2^-8, 2
    # from 2^-14 (every Lambda preset has rho ~ 6e-4), 1 below.
    # Where |lambda - a22| <= d, sigma_min(lambda I - B) >= |lambda| -
    # ||B||_2 >= gap - d, as ||B||_2 <= |a00| + |a11| + |a01| for symmetric
    # B, and ||c|| <= rho gap.  So f maps the disc d = 2 rho^2 gap into
    # itself, contracts there by L = rho^2 / (1 - 2 rho^2)^2, and a22 is
    # within rho^2 gap / (1 - 2 rho^2) of its fixed point: k steps leave at
    # most L^k rho^2 / (1 - 2 rho^2) |a22| (gap <= |a22|).  Each iterate's
    # own rounding, about u/2 |lambda| = 2^-54 |a22| from adding a22, is
    # damped by L on every later step, so the truncation stays 4 times
    # below it
    sq = ratio * ratio
    lipschitz = sq / (1.0 - 2.0 * sq) ** 2
    error = sq / (1.0 - 2.0 * sq) * lipschitz
    k = 1
    while error > 2.0**-56:
        error *= lipschitz
        k += 1
    return k


def _expm_decoupled(rows: np.ndarray, steps: int, out: np.ndarray) -> np.ndarray:
    # exp of complex-symmetric 3x3 matrices with a dominant last diagonal
    # entry, from (9, batch) entry rows into the (9, batch) rows `out`, with
    # `steps` fixed-point steps (see expm_small), a block of columns at a time
    width = _block(3)
    for lo in range(0, rows.shape[-1], width):
        b00, b01, c0, b11, c1, a22 = rows[[0, 1, 2, 4, 5, 8], lo : lo + width]
        b01_sq = b01 * b01
        # c^T (lambda I - B)^-1 c = (r c0^2 + p c1^2 + 2 b01 c0 c1) / (p r - b01^2)
        # with p = lambda - b00, r = lambda - b11
        c0_sq, c1_sq, cross = c0 * c0, c1 * c1, 2.0 * b01 * c0 * c1
        lam = a22
        for _ in range(steps):
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
        block = out[:, lo : lo + width]
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


def _expm_scaled_taylor(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp of the (n*n, batch) entry rows to (n*n, batch) rows, `out` when
    # given (see expm_small)
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
    if out is None:
        out = np.empty(rows.shape, dtype=complex)
    width = _block(math.isqrt(len(rows)))
    for lo in range(0, rows.shape[-1], width):
        p = _taylor16(scale * rows[:, lo : lo + width])
        for _ in range(k):
            p = _mul(p, p)
        out[:, lo : lo + width] = p
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


@functools.lru_cache(maxsize=None)
def _term_tables(n: int) -> np.ndarray:
    # _terms(n) as a read-only (2, n, n*n) index table: [0, k, entry] the
    # row of x and [1, k, entry] the row of y of term k, as _mul gathers them
    tables = np.ascontiguousarray(np.array(_terms(n)).transpose(2, 1, 0))
    tables.flags.writeable = False
    return tables


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x @ y for n x n matrices stored as (n*n, batch) entry rows; each
    # entry's terms are added in order of k.  Two forms with the same bits,
    # chosen by batch width.  Up to _GATHER_COLS columns every term's operand
    # rows are gathered at once, x[xs] * y[ys] as (n, n*n, batch), and the n
    # term products summed: 3 numpy calls per term instead of 3 per entry and
    # term, the fixed cost that sets the time of a product tree's small levels.
    # Wider batches take one multiply and add per entry and term, whose
    # temporaries stay one row wide
    n = math.isqrt(len(x))
    if x.shape[-1] <= _GATHER_COLS:
        xs, ys = _term_tables(n)
        prod = x[xs]
        prod *= y[ys]
        out = prod[0]
        for term in prod[1:]:
            out = out + term
        return out
    out = np.empty(x.shape, dtype=complex)
    tmp = np.empty(x.shape[-1], dtype=complex)
    for row, ((l, r), *rest) in zip(out, _terms(n)):
        np.multiply(x[l], y[r], out=row)
        for l, r in rest:
            row += np.multiply(x[l], y[r], out=tmp)
    return out


def _unitarize(u: np.ndarray) -> np.ndarray:
    # one Newton step toward the polar factor, U (3 I - U^H U) / 2 (Higham):
    # takes the Taylor kernel's maps of skew-Hermitian input to unitary at
    # rounding level, so norm drift stays ~N*eps even at 1e6 steps.
    # Taken a block of columns at a time (_block), so the adjoint and
    # correction stay in cache
    n = u.shape[-1]
    rows = to_entry_rows(u).reshape(n * n, -1)
    adjoint = [j * n + i for i in range(n) for j in range(n)]  # row of x_ji
    out = np.empty_like(rows)
    width = _block(n)
    for lo in range(0, rows.shape[-1], width):
        x = rows[:, lo : lo + width]
        x_h = x[adjoint]
        corr = _mul(np.conj(x_h, out=x_h), x)
        corr *= -0.5
        corr[:: n + 1] += 1.5
        out[:, lo : lo + width] = _mul(x, corr)
    return from_entry_rows(out.reshape(n, n, -1))


def _chain_apply(levels: list, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows U[k] @ ... @ U[0] @ psi, every one, for the maps U held in the
    (n*n, k + 1) entry rows levels[0]: written in place to out[1:], a
    (k + 2, n) array (and psi to out[0]), and returned as that view.

    One pairwise tree, a Blelloch scan, whose levels the caller's _up_sweep
    appended to `levels`: level l + 1 multiplies pairs of level l and
    carries an odd last map, and root @ psi is the last state.  This walks
    down: member 2j of level l takes column 2j*2**l of `states` to
    (2j+1)*2**l, where column k + 1 is the state after map k; the rest came
    from above.  Each level is popped from `levels` as it is walked, so none
    outlives the walk."""
    states = out.T
    states[:, 0] = psi
    states[:, -1:] = _apply(levels.pop(), states[:, :1])
    for l in reversed(range(len(levels))):
        m = levels.pop()
        w, end = 2**l, m.shape[-1] // 2 * 2
        states[:, w : end * w : 2 * w] = _apply(m[:, :end:2], states[:, : end * w : 2 * w])
    return states[:, 1:].T


def _up_sweep(m: np.ndarray, levels: list | None = None) -> np.ndarray:
    # the product tree over the (n*n, k) maps m, up to its root, as (n*n, 1)
    # rows; every level above m is appended to `levels` when given
    while m.shape[-1] > 1:
        count = m.shape[-1]
        even = (count // 2) * 2
        paired = _mul(m[:, 1:even:2], m[:, 0:even:2])
        m = np.concatenate([paired, m[:, -1:]], axis=-1) if count % 2 else paired
        if levels is not None:
            levels.append(m)
    return m


def _tree_power(u: np.ndarray, count: int) -> np.ndarray:
    # the root _up_sweep forms from `count` copies of the (n*n, 1) map u, in
    # about 2 log2(count) products: on every level all members but the last
    # are equal, and the last is their product with an odd map carried up
    bulk = last = u
    while count > 1:
        if count % 2 == 0:
            last = _mul(last, bulk)
        bulk = _mul(bulk, bulk)
        count = (count + 1) // 2
    return last


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
    """Schedule samples at instants t."""
    sched = req.schedule
    delta = sched.delta(t) + req.detuning_offset
    omega_p, omega_s = sched.pulses(t)
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


def _chunk(n: int) -> int:
    # steps per chunk of n x n maps: the largest power of two whose complex
    # maps fit in 2 MiB, one core's L2 on a 2-core Xeon, so the product tree
    # reads them from cache: 32 768 steps for 2x2, 8192 for 3x3
    return 1 << ((2**21 // (16 * n * n)).bit_length() - 1)


def _block(n: int) -> int:
    # steps per cache-sized block of n x n maps, a quarter of the chunk: 8192
    # for 2x2, 2048 for 3x3.  _step_maps samples a chunk's steps and forms
    # their H, -i H dt and maps a block at a time, and the 3x3 kernels and the
    # polish take any longer batch a block of columns at a time, so the
    # temporaries stay in cache.  A 2x2 block is a short power series whose
    # time is mostly the fixed cost of a few dozen numpy calls, so it takes
    # four times the 3x3 block.  On a 2-core Xeon with numpy 2.4.6, one
    # two-level sweep CLI call (9 evolves of 50 000 steps) took, relative to
    # 2048-step blocks: 0.84 at 4096, 0.73-0.79 at 8192, 1.19-1.41 at 16 384
    # and 1.67 at 32 768.  A Lambda compare took 1.21 times as long with 1024-
    # or 4096-step blocks as with 2048 (a 3x3 block of entry rows is 295 KB)
    return _chunk(n) // 4


def _samples(req: EvolveRequest, steps: int, lo: int, hi: int):
    """The controls (delta, omega_p, omega_s) that steps lo to hi - 1 of a
    `steps`-step run add, from one _controls call: their midpoints, or for
    RK4 their half steps 2 lo + 1 to 2 hi, and half step 0 when lo = 0
    (half step 2 lo ends the step before).  A sample does not depend on the
    range it is taken in, so the ranges of any partition of the run take
    each instant once, with the bits of one call on the whole run."""
    dt = req.schedule.duration / steps
    if req.method is Method.RK4:
        return _controls(req, np.arange(2 * lo + (lo > 0), 2 * hi + 1) * (0.5 * dt))
    return _controls(req, (np.arange(lo, hi) + 0.5) * dt)


class _Sampler:
    """A run's controls, a block of steps lo to hi - 1 at a time (_block),
    for _step_maps: at their midpoints, or at their 2 (hi - lo) + 1 RK4 half
    steps.  Blocks taken in step order sample each instant once (_samples):
    an RK4 block starts from the half step the block before it ended on, and
    `first`, the controls _structure took from step 0, serve the first block
    asked for if it starts at step 0: a mirror's first block, or the start
    of a stepped run's, whose steps past `first` are sampled on."""

    def __init__(self, req: EvolveRequest, steps: int, first=None):
        self.req, self.steps, self.first = req, steps, first
        self.edge = None  # RK4: (step, the controls at its first half step)

    def __call__(self, lo: int, hi: int):
        first, self.first = self.first, None
        if first is not None and lo == 0:
            taken = len(first[0])
            if hi <= taken:
                return tuple(x[:hi] for x in first)
            rest = _samples(self.req, self.steps, taken, hi)
            return tuple(np.concatenate(pair) for pair in zip(first, rest))
        new = _samples(self.req, self.steps, lo, hi)
        if self.req.method is Method.RK4:
            if lo > 0:
                if self.edge is None or self.edge[0] != lo:
                    self.edge = lo, [x[-1:] for x in _samples(self.req, self.steps, lo - 1, lo)]
                new = tuple(np.concatenate(pair) for pair in zip(self.edge[1], new))
            self.edge = hi, [x[-1:] for x in new]
        return new


def _step_maps(
    req: EvolveRequest, lo: int, hi: int, check=None, out=None, sample=None, phase=None
) -> tuple[np.ndarray, complex] | None:
    """The phase-free maps of steps lo to hi - 1, V_j = e^(-m_j) exp(-i H_j
    dt) (expm_small's `phase`), and sum m_j, summed block by block.  The maps
    are (n*n, hi - lo) entry rows, the layout the product tree reads: the
    first hi - lo columns of `out`, a run's (n*n, chunk) maps, when given,
    else a new array.  Only a 2x2 exponential has a phase: its m_j are
    written to `phase`, a complex array, at j - lo if it holds hi - lo
    entries, else from its start (a new block-sized array if not given).
    Every other map, RK4's too, has m_j = 0 and leaves `phase` as it is.

    Each block of steps (_block: 8192 two-level, 2048 Lambda) is sampled
    (`sample`, the run's _Sampler, else a new one) as its Hamiltonian,
    -i H dt and maps are formed, so no temporary outgrows a block and all
    stay in cache; expm_small writes each block's maps straight into their
    columns (out=), with no copy.  Called on at most one chunk (_chunk) at a
    time.  `check(h, controls, j0, j1)`, when given, sees the H of steps j0
    to j1 - 1, and the controls it was built from, before their maps are
    formed; once it returns False no more maps are formed and None is
    returned."""
    n = req.model.dim
    steps = resolve_steps(req.steps, n)
    dt = req.schedule.duration / steps
    if sample is None:
        sample = _Sampler(req, steps)
    maps = np.empty((n * n, hi - lo), dtype=complex) if out is None else out[:, : hi - lo]
    width = _block(n)
    if phase is None:
        phase = np.empty(min(width, hi - lo), dtype=complex)
    shift = 0j
    for b in range(lo, hi, width):
        end = min(b + width, hi)
        controls = sample(b, end)
        h = req.model.hamiltonian_batch(*controls)
        if check is not None and not check(h, controls, b, end):
            return None
        del controls  # not held through the exponential's temporaries
        block = maps[:, b - lo : end - lo]
        if req.method is Method.RK4:
            block.reshape(n, n, -1)[...] = np.moveaxis(_rk4_step(-1j * dt * h), 0, -1)
        elif n == 2:
            at = b - lo if len(phase) >= hi - lo else 0
            m = phase[at : at + end - b]
            expm_small(-1j * dt * h, out=block, phase=m)
            shift += m.sum()
        else:
            expm_small(-1j * dt * h, out=block)
    return maps, shift


def _structure(req: EvolveRequest, steps: int):
    """The identity of the midpoint rule that evolve tries on a
    PIECEWISE_EXPM run, and the controls of its first block, which the run
    takes again (_Sampler): "constant" when every step's controls, and so its
    H, are equal; else "mirror", which _Mirror.check proves or refutes, or
    "full" for a model that gives no mirror_residual.  The controls are
    sampled a block (_block) at a time, the first cut at N/2 as a mirror's
    is, up to the first block that differs from step 0's.  A run
    that stores a trajectory steps every map, which gives the constant
    path's bits, so it is decided from its first block alone: "full" if
    that block is constant, else "mirror"."""
    width = _block(req.model.dim)
    first = block = _samples(req, steps, 0, min(width, steps // 2))
    lo = len(first[0])
    while all(np.all(x == x0[0]) for x, x0 in zip(block, first)):
        if lo >= steps or req.store_trajectory:
            return ("full" if req.store_trajectory else "constant"), first
        block = _samples(req, steps, lo, min(lo + width, steps))
        lo += width
    return ("mirror" if hasattr(req.model, "mirror_residual") else "full"), first


class _Mirror:
    """A run's mirror identity (see the module docstring), Pi the swap of
    the first two basis states and c_j the mean of the diagonal of
    H_{N-1-j} - Pi H_j Pi.  check(h, controls, lo, hi), the gate _step_maps
    calls on each first-half block before its maps are formed, with the
    block's H and the controls it was built from, samples the block's
    mirror image, steps N - hi to N - lo - 1, and has the model's
    mirror_residual give c_j and ||E_j||^2 (Frobenius) from the two
    samples, with no mirrored H built.  It adds the block's dt ||E_j|| to
    `bound` and its c_j to `c_sum`, and is false once the bound passes
    _MIRROR_TOL (inf for an H_j that is not exactly complex symmetric).
    keep(root, shift), called with each first-half chunk's root of
    phase-free maps and its phase sum in order, multiplies the root into P,
    the first half's product, and adds the sum to `shift`.  final(psi) is
    e^(2 shift + m_mid - i dt sum c_j) Pi P^T Pi [M] P psi, M the phase-free
    middle map of an odd N and m_mid its phase."""

    def __init__(self, req: EvolveRequest, steps: int):
        n = req.model.dim
        self.req, self.steps = req, steps
        self.dt = req.schedule.duration / steps
        swap = [1, 0, *range(2, n)]
        # the rows of (Pi X^T Pi)_ij = X_{swap j, swap i}
        self.transposed = [swap[j] * n + swap[i] for i in range(n) for j in range(n)]
        self.bound, self.c_sum, self.shift, self.p = 0.0, 0j, 0j, None

    def check(self, h: np.ndarray, controls, lo: int, hi: int) -> bool:
        n, steps = self.req.model.dim, self.steps
        if not _symmetric(to_entry_rows(h).reshape(n * n, -1)):
            self.bound = math.inf
            return False
        mirror = [x[::-1] for x in _samples(self.req, steps, steps - hi, steps - lo)]
        c, sq = self.req.model.mirror_residual(controls, mirror)
        self.bound += self.dt * float(np.sum(np.sqrt(sq)))
        self.c_sum += c.sum()
        return self.bound <= _MIRROR_TOL

    def keep(self, root: np.ndarray, shift: complex) -> None:
        # the first root owns its memory: only a one-step chunk's root is a
        # view of the run's maps, and the first chunk has min(chunk, N/2) >= 5 steps
        self.p = root if self.p is None else _mul(root, self.p)
        self.shift += shift

    def final(self, psi: np.ndarray) -> np.ndarray:
        v = _apply(self.p, psi[:, None])
        shift = 2.0 * self.shift
        half = self.steps // 2
        if self.steps % 2:
            middle, m = _step_maps(self.req, half, half + 1)
            v = _apply(middle, v)
            shift += m
        return np.exp(shift - 1j * self.dt * self.c_sum) * _apply(self.p[self.transposed], v)[:, 0]


def evolve(req: EvolveRequest) -> EvolveResult:
    """Propagate req.initial by either method, in one forward pass over
    cache-sized chunks (_chunk).  Each chunk yields one root by the rule
    _structure names (see the module docstring; RK4 looks for none): the
    one step map's power (_tree_power) for a constant drive, else the
    _up_sweep of its maps, formed under the mirror's gate in the first
    half.  The state takes each chunk's root, or _chain_apply walks its
    tree down into a stored trajectory, and the mirror multiplies the first
    half's roots into its product (_Mirror.keep).  A refuted mirror steps
    on from the refuting chunk; a proved one with a stored trajectory, from
    the start of the chunk cut at N/2.  The controls are sampled block by
    block as the maps are formed (_Sampler) into one (n*n, chunk) array per
    run, so no array of the run but a stored trajectory grows with its step
    count.  The state is checked after each chunk.  Raises ValueError for a
    bad request (dimension, steps < MIN_STEPS, unknown method) and
    IntegrationError for non-finite amplitudes or norm growth."""
    dim = req.model.dim
    if req.initial.dim != dim:
        raise ValueError(f"state dimension {req.initial.dim} != model dimension {dim}")
    steps = resolve_steps(req.steps, dim)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    if req.method not in (Method.PIECEWISE_EXPM, Method.RK4):
        raise ValueError(f"unknown method {req.method!r}")

    psi = initial = np.array(req.initial.amplitudes, dtype=complex)
    traj_states = np.empty((steps + 1, dim), dtype=complex) if req.store_trajectory else None
    path, first = _structure(req, steps) if req.method is Method.PIECEWISE_EXPM else ("full", None)
    sample = _Sampler(req, steps, first)
    chunk, width, lo, end, mirror, check = _chunk(dim), _block(dim), 0, steps, None, None
    # every chunk's maps are formed into this one array, and their phases
    # into one block's, or a chunk's when every state is stored: zeros, as
    # only 2x2 exponential maps write theirs (_step_maps)
    maps = np.empty((dim * dim, min(chunk, steps)), dtype=complex)
    phases = np.zeros(
        maps.shape[-1] if traj_states is not None else min(width, steps), dtype=complex
    )
    if path == "constant":
        one, m_one = _step_maps(req, 0, 1, sample=sample, phase=phases)
    elif path == "mirror":
        mirror = _Mirror(req, steps)
        check, end = mirror.check, steps // 2

    # divergence, as of RK4 on a stiff run, is caught by the norm check, so
    # silence the float warnings an unstable run emits on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < end:
            hi = min(lo + chunk, end)
            if path == "constant":
                root, levels = _tree_power(one, hi - lo), None
                # the stepped run's phase sum, block by block, bit for bit
                shift = sum(np.full(min(width, hi - b), m_one).sum() for b in range(lo, hi, width))
            else:
                formed = _step_maps(req, lo, hi, check, maps, sample, phases)
                if formed is None:  # refuted: step on from this chunk
                    path, check, end = "full", None, steps
                    continue
                u, shift = formed
                levels = [u] if traj_states is not None else None
                root = _up_sweep(u, levels)
            if check is not None:
                mirror.keep(root, shift)
                if hi == end:  # proved: a stored trajectory steps on, a plain run ends
                    check, end = None, steps if traj_states is not None else lo
                    if hi - lo < chunk:  # cut at N/2: only its root counts
                        continue
            if levels is not None:
                # the trajectory's states, the chunk's first included, are
                # written straight into its storage and take e^(cumsum m)
                states = _chain_apply(levels, psi, traj_states[lo : hi + 1])
                m = phases[: hi - lo - 1]
                if np.any(m):
                    states[:-1] *= np.exp(np.cumsum(m))[:, None]
                psi = states[-1]
            else:
                psi = _apply(root, psi[:, None])[:, 0]
            if shift:
                # the chunk's last state takes e^(sum m) on either branch
                psi *= np.exp(shift)
            final_norm_sq = _check_state(psi)
            lo = hi
        if path == "mirror":
            psi = mirror.final(initial)
            final_norm_sq = _check_state(psi)
    if final_norm_sq > 1.0 + 1e-9:
        raise IntegrationError(
            f"final |psi|^2 = {final_norm_sq} exceeds 1 + 1e-9; increase steps"
        )
    trajectory = None
    if req.store_trajectory:
        traj_states[-1] = psi  # the mirror's final state on a mirror run
        times = np.linspace(0.0, req.schedule.duration, steps + 1)
        if not np.all(np.isfinite(traj_states)):
            raise IntegrationError("non-finite amplitudes in stored trajectory")
        trajectory = (times, traj_states)
    return EvolveResult(
        final=QuantumState(psi),
        final_norm_sq=final_norm_sq,
        populations=np.abs(psi) ** 2,
        trajectory=trajectory,
        path=path,
        mirror_bound=None if mirror is None else mirror.bound,
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
