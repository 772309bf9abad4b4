"""Reference implementations that the package's fast paths are checked against.

The package integrates by a prefix scan over the samples, composing its
spans from one doubling ladder, reads two-mode
symplectic spectra from a closed form and compiles generators as one array
program over every term. These are the direct versions: the sequential loop
that applies one affine span per sample, each span composed by its own
binary doubling, the spectrum of any mode count as
the moduli of the eigenvalues of i U V, the compiler that adds up the
drift and diffusion of one dissipator term at a time, and the three scalar
model builds that one build with a member axis replaces.
"""

from dataclasses import replace

import numpy as np

from sqzmirror.dynamics import (
    DIVERGENCE_LIMIT,
    STEP_SAFETY,
    _rk4_step_span,
)
from sqzmirror.errors import (
    DimensionError,
    DivergenceError,
    GeneratorError,
    SimulationError,
    StepSizeError,
)
from sqzmirror.gaussian import _check_covariance, symplectic_form
from sqzmirror.generator import DRIFT_RTOL, RESERVOIR_INJECTIONS, MomentEquations

PAIRING_RTOL = 1e-9


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
