"""Reference implementations that the package's fast paths are checked against.

The package integrates by a prefix scan over the samples, composing its
spans from one doubling ladder, reads two-mode
symplectic spectra from a closed form and compiles generators as one array
program over every term. These are the direct versions: the sequential loop
that applies one affine span per sample, each span composed by its own
binary doubling, the spectrum of any mode count as
the moduli of the eigenvalues of i U V, the compiler that adds up the
drift and diffusion of one dissipator term at a time, and the three scalar
model builds that one build with a member axis replaces. The two-mode
frame variances and phonon numbers are pinned to the forms on whole 2x2
blocks that they replace, and the spectrum is checked against exact
rational arithmetic on the float entries. The partial transpose as a
matrix, and the thermal and two-mode squeezed states the gaussian tests
draw, are here too: the package reads the partial transpose's spectrum
from V's own entries and builds no such states.
"""

from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from sqzmirror import reduced
from sqzmirror.dynamics import (
    DIVERGENCE_LIMIT,
    STEP_SAFETY,
    _rk4_step_span,
    minimize_scalar,
    normalize_phase,
)
from sqzmirror.errors import (
    DimensionError,
    DivergenceError,
    GeneratorError,
    PhysicalityError,
    SimulationError,
    StepSizeError,
    per_entry,
)
from sqzmirror.full import AdiabaticComparison, mirror_block, steady_full
from sqzmirror.gaussian import (
    PHYSICALITY_TOL,
    _check_covariance,
    frame_variances,
    rotation_angle,
    symplectic_form,
)
from sqzmirror.generator import DRIFT_RTOL, RESERVOIR_INJECTIONS, MomentEquations
from sqzmirror.reduced import (
    OptimalSqueezing,
    build_system,
    build_systems,
    squeezing_formula,
    steady_covariance,
)

PAIRING_RTOL = 1e-9


def partial_transpose(V):
    """Momentum reversal of mode 2 of a two-mode covariance or a stack:
    Lambda V Lambda with Lambda = diag(1, 1, 1, -1)."""
    sign = np.array([1.0, 1.0, 1.0, -1.0])
    return V * np.outer(sign, sign)


def thermal_modes(nbars):
    """Product thermal covariance diag(nbar_k + 1/2) of one mode per nbar_k."""
    return np.diag(np.repeat(np.asarray(nbars, dtype=float) + 0.5, 2))


def two_mode_squeezed(s):
    """Two-mode squeezed vacuum covariance with squeezing parameter s."""
    ch, sh = 0.5 * np.cosh(2.0 * s), 0.5 * np.sinh(2.0 * s)
    V = ch * np.eye(4)
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V


def symplectic_spectrum(V):
    """Symplectic eigenvalues of an n-mode covariance or a stack, ascending.

    The n moduli of the eigenvalues of i U V, each +/- pair collapsed to one
    value; refuses (DimensionError) moduli that do not pair up.
    """
    V = _check_covariance(V)
    n = V.shape[-1] // 2
    mods = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ V)), axis=-1)
    # eigenvalues come in +/- pairs; after sorting, adjacent entries pair up
    a, b = mods[..., 0::2], mods[..., 1::2]
    unpaired = b - a > PAIRING_RTOL * np.maximum(b, 1.0)
    if unpaired.any():
        raise DimensionError(f"symplectic eigenvalues do not pair up: "
                             f"{a[unpaired][0]!r} vs {b[unpaired][0]!r}")
    return 0.5 * (a + b)


def exact_det(V):
    """det V of one matrix as a Fraction: Gaussian elimination in exact
    rational arithmetic on its float entries, rows exchanged at a zero pivot."""
    A = [[Fraction(x) for x in row] for row in np.asarray(V, dtype=float).tolist()]
    det = Fraction(1)
    for k in range(len(A)):
        p = next((i for i in range(k, len(A)) if A[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            A[k], A[p], det = A[p], A[k], -det
        det *= A[k][k]
        for row in A[k + 1:]:
            f = row[k] / A[k][k]
            for j in range(k, len(A)):
                row[j] -= f * A[k][j]
    return det


def exact_spectrum(V):
    """(nu_-, nu_+, delta, disc) of one two-mode matrix, read on its upper
    triangle: delta = det A + det B + 2 det C and disc = delta^2 - 4 det V
    exact Fractions of its float entries, nu_+-^2 = (delta +- sqrt(disc))/2
    to 40 digits, rounded to floats."""
    V = np.triu(V) + np.triu(V, 1).T
    F = [[Fraction(x) for x in row] for row in V.tolist()]

    def minor(i, j, k, l):
        return F[i][k] * F[j][l] - F[i][l] * F[j][k]

    delta = minor(0, 1, 0, 1) + minor(2, 3, 2, 3) + 2 * minor(0, 1, 2, 3)
    det = exact_det(V)
    disc = delta * delta - 4 * det
    with localcontext() as ctx:
        ctx.prec = 40

        def dec(x):
            return Decimal(x.numerator) / Decimal(x.denominator)

        nu2_plus = (dec(delta) + dec(disc).sqrt()) / 2
        return (float((dec(det) / nu2_plus).sqrt()), float(nu2_plus.sqrt()),
                float(delta), float(disc))


def rotated_variances_blocks(V, theta):
    """(dQ2_minus, dP2_minus, dQ2_plus, dP2_plus) of rotate_local(V, theta)
    for a checked two-mode stack, from all four entries of each 2x2 block:
    a - u and b + u for a = V[::2, ::2], b = V[1::2, 1::2] and
    u = s^2 (a - b) - cs (V[::2, 1::2] + V[1::2, ::2]), c, s = cos, sin(theta/2),
    then (Vbar00 + Vbar22)/2 -+ Vbar02 and (Vbar11 + Vbar33)/2 -+ Vbar13."""
    minus_plus = np.array([-1.0, 1.0])
    half = 0.5 * theta
    c, s = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    V4 = V.reshape(V.shape[:-2] + (2, 2, 2, 2))  # V[2i + k, 2j + l] at [..., i, k, j, l]
    ab = V4.diagonal(axis1=-3, axis2=-1)  # [..., i, j, k]: a (k = 0) or b
    u = (s * s) * (ab[..., 0] - ab[..., 1]) - (c * s) * (V4[..., 0, :, 1] + V4[..., 1, :, 0])
    xy = ab + u[..., None] * minus_plus
    d = ((0.5 * (xy[..., 0, 0, :] + xy[..., 1, 1, :]))[..., None]
         + minus_plus * xy[..., 0, 1, :, None])
    if (d < -PHYSICALITY_TOL).any():
        raise PhysicalityError("negative quadrature variance")
    return d[..., 0, 0], d[..., 1, 0], d[..., 0, 1], d[..., 1, 1]


def mean_phonons_pairs(V):
    """The mean phonon numbers of both modes of a two-mode stack, along a
    last axis: the diagonal summed in pairs, minus 1, halved, negatives
    within PHYSICALITY_TOL set to 0."""
    val = 0.5 * (V.reshape(V.shape[:-2] + (16,))[..., ::5].reshape(V.shape[:-2] + (2, 2))
                 .sum(axis=-1) - 1.0)
    return np.where(val < 0.0, 0.0, val)


def span_power(step, m):
    """m identical RK4 steps as one affine span, by binary doubling: the
    rungs step^(2^j) of the set bits of m composed lowest first, each rung
    the square of the one before."""
    power, rung = None, step
    while m:
        if m & 1:
            power = rung if power is None else power.then(rung)
        m >>= 1
        if m:
            rung = rung.then(rung)
    return power


def scan_loop(P, x, f):
    """dynamics._affine_scan as a loop: x_k = P x_{k-1} + f_k, one row of
    f (..., n, m) after another, into a new array."""
    out = np.empty_like(f)
    for k in range(f.shape[-2]):
        x = out[..., k, :] = x @ P.T + f[..., k, :]
    return out


def integrate_loop(ode, x0, grid):
    """dynamics.integrate_linear as one affine span per sample, in order.

    Same RK4 spans, step check and DivergenceError (text and
    last_valid_time) as the scan; sample 0 is not checked.
    """
    h = grid.h
    rate = ode.fastest_rate()
    if h * rate > STEP_SAFETY:
        raise StepSizeError(
            f"step {h:.3e} too coarse for fastest rate {rate:.3e} "
            f"(h*rate = {h * rate:.3f} > {STEP_SAFETY})"
        )
    step = _rk4_step_span(ode, h)
    idx = grid.sample_indices()
    xs = np.empty((len(idx), len(x0)))
    xs[0] = np.asarray(x0, dtype=float)
    x = xs[0].copy()
    spans = {}
    last_t = grid.t0
    for k in range(1, len(idx)):
        m = int(idx[k] - idx[k - 1])
        if m not in spans:
            spans[m] = span_power(step, m)
        blk = spans[m]
        t_start = grid.t0 + idx[k - 1] * h
        phi = np.exp(1j * ode.omega * t_start)
        with np.errstate(over="ignore", invalid="ignore"):
            x = blk.P @ x + (blk.u0 + 2.0 * np.real(blk.u2 * phi))[:, 0]
            bad = not np.all(np.isfinite(x)) or np.abs(x).max() > DIVERGENCE_LIMIT
        if bad:
            raise DivergenceError(
                f"integration diverged at t = {grid.t0 + idx[k] * h:.6e}",
                last_valid_time=last_t,
            )
        last_t = grid.t0 + idx[k] * h
        xs[k] = x
    times = grid.t0 + idx * h
    return times, xs


def compile_loop(spec):
    """generator.compile_generator as a loop over the dissipator terms.

    Each term adds i*rate U (l m^T - m l^T) to the drift and
    rate [(U m)(U l)^T + (U l)(U m)^T] to the diffusion of its harmonic tag;
    the same GeneratorError checks, in the same order, against the same scale.
    """
    dim = 2 * spec.n_modes
    G = np.asarray(spec.hamiltonian, dtype=float)
    if G.shape != (dim, dim) or np.abs(G - G.T).max() > 1e-12 * max(np.abs(G).max(), 1.0):
        raise GeneratorError("hamiltonian must be a symmetric 2n x 2n matrix")
    U = symplectic_form(spec.n_modes)

    A = {h: np.zeros((dim, dim), dtype=complex) for h in (-1, 0, 1)}
    D = {h: np.zeros((dim, dim), dtype=complex) for h in (-1, 0, 1)}
    A[0] += U @ G
    for term in spec.dissipators:
        if term.harmonic not in (-1, 0, 1):
            raise GeneratorError(f"unsupported harmonic tag {term.harmonic}")
        l, m = term.left, term.right
        A[term.harmonic] += 1j * term.rate * (U @ (np.outer(l, m) - np.outer(m, l)))
        ul, um = U @ l, U @ m
        D[term.harmonic] += term.rate * (np.outer(um, ul) + np.outer(ul, um))

    scale = max(np.abs(A[0]).max(), np.abs(D[0]).max(), 1.0)
    if max(np.abs(A[0].imag).max(), np.abs(D[0].imag).max()) > DRIFT_RTOL * scale:
        raise GeneratorError("term list is not self-adjoint (complex static moments)")
    if max(np.abs(A[1]).max(), np.abs(A[-1]).max()) > DRIFT_RTOL * scale:
        raise GeneratorError("harmonic terms produce a time-dependent drift")
    if np.abs(D[-1] - np.conj(D[1])).max() > DRIFT_RTOL * scale:
        raise GeneratorError("term list is not self-adjoint (sidebands not conjugate)")

    D0 = 0.5 * (D[0].real + D[0].real.T)
    D2 = 0.5 * (D[1] + D[1].T)
    return MomentEquations(
        drift=A[0].real,
        diffusion_static=D0,
        diffusion_harmonic=D2,
        omega=2.0 * spec.delta if np.abs(D2).max() > 0 else 0.0,
    )


def compile_injections_loop(model, coeffs):
    """generator.compile_injections as three scalar builds.

    model(coeffs) at each (N, M) of RESERVOIR_INJECTIONS, each spec compiled
    alone by compile_loop, with the same SimulationError for a drift that
    differs between them.
    """
    eqs = [compile_loop(model(replace(coeffs, N=n, M=m)))
           for n, m in RESERVOIR_INJECTIONS]
    drift = eqs[0].drift
    if max(np.abs(e.drift - drift).max() for e in eqs[1:]) > 1e-9 * np.abs(drift).max():
        raise SimulationError("drift acquired reservoir dependence")
    return eqs


def compare_adiabatic_loop(params, phase):
    """full.compare_adiabatic as one chain per point: steady_full, then
    build_system, its steady_parts and steady_covariance, then one
    frame_variances of the two mirror covariances. The first step to fail
    raises its SimulationError."""
    V_f = mirror_block(steady_full(params, phase))
    system = build_system(params)
    V_r = steady_covariance(system.steady_parts(), system.nbar0, params.r, phase)
    dp2_f, dp2_r = frame_variances(np.array([V_f, V_r]))[1].tolist()
    return AdiabaticComparison(dp2_f, dp2_r, abs(dp2_f - dp2_r) / abs(dp2_f))


def optimal_squeezings_loop(points, phase):
    """reduced.optimal_squeezings with reduced.criterion at every step.

    The same lockstep Brent search and fixed-point iteration, but every
    evaluation (each Brent step, the optima, each fixed-point step) is one
    steady_covariance and one criterion call over the live lanes, whose
    report gives dP2_minus; a lane leaves at its first evaluation to fail,
    with the error of that covariance alone.
    """
    def built(k):
        system = build_systems([points[j] for j in np.atleast_1d(k)])
        return (*system.steady_parts(), system.nbar0)

    n = len(points)
    parts, kept, failures = per_entry(built, np.arange(n))
    x0, x1, x2, nbar0 = (np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3), dtype=complex),
                         np.zeros(n))
    if len(kept):
        for lane, part in zip((x0, x1, x2, nbar0), parts):
            lane[kept] = part
    z = normalize_phase(phase)
    alive = np.array([k not in failures for k in range(n)])

    def steady(k, r):
        V = steady_covariance((x0[k], x1[k], x2[k]), nbar0[k], r, z)
        return V, reduced.criterion(V, nbar0[k])

    def evaluate(fn, lanes):
        value, kept, failed = per_entry(fn, np.flatnonzero(lanes & alive))
        failures.update(failed)
        alive[list(failed)] = False
        return value, kept

    searched = np.flatnonzero(alive)

    def dp2(r):
        out, r_n = np.full(n, np.nan), np.full(n, np.nan)
        r_n[searched] = r
        value, kept = evaluate(lambda k: steady(k, r_n[k])[1].dP2_minus, ~np.isnan(r_n))
        if len(kept):
            out[kept] = value
        return out[searched]

    res = minimize_scalar(dp2, (np.zeros(len(searched)), np.full(len(searched), 3.0)), tol=1e-4)
    r_opt, boundary = np.full(n, np.nan), np.zeros(n, dtype=bool)
    r_opt[searched], boundary[searched] = res.x, res.boundary
    dp2_opt, e_n_opt = np.full(n, np.nan), np.full(n, np.nan)
    report, kept = evaluate(lambda k: steady(k, r_opt[k])[1], np.ones(n, dtype=bool))
    if len(kept):
        dp2_opt[kept], e_n_opt[kept] = report.dP2_minus, report.E_N

    r_formula = np.full(n, np.nan)
    if z == 0.0:
        notes = ["formula undefined for the phase-averaged steady state"] * n
    else:
        notes = [""] * n
        r_k = np.where(boundary, np.maximum(r_opt, 0.1), 0.5)
        going = np.ones(n, dtype=bool)
        for _ in range(50):
            theta, kept = evaluate(lambda k: rotation_angle(steady(k, r_k[k])[0]), going)
            if not len(kept):
                break
            r_next = squeezing_formula((x0[kept], x1[kept], x2[kept]), theta, z)
            out = np.isnan(r_next)
            done = ~out & (np.abs(r_next - r_k[kept]) < 1e-10)
            for k in kept[out].tolist():
                notes[k] = "artanh argument out of (-1, 1)"
            r_formula[kept[done]] = r_next[done]
            going[kept[out | done]] = False
            r_k[kept] = np.where(out, r_k[kept], r_next)
        for k in np.flatnonzero(going & alive).tolist():
            r_formula[k] = r_k[k]
            notes[k] = "fixed point not fully converged after 50 iterations"
    return [
        failures[k] if k in failures else OptimalSqueezing(
            r_numeric=float(r_opt[k]),
            r_formula=None if np.isnan(r_formula[k]) else float(r_formula[k]),
            dP2_minus=float(dp2_opt[k]), E_N=float(e_n_opt[k]),
            formula_note=notes[k])
        for k in range(n)
    ]
