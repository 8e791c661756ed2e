"""Named experiment chains and deterministic random-chain corpora.

Everything here is reproducible: constructions are parameter-free or
seeded, so the harness and the acceptance suite agree on the exact same
objects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import DriftCertificate, fit_drift, tightest_certificate
from .density import DensitySpec
from .kernels import FiniteKernel, birth_death_chain, build_finite_kernel, mh_grid_kernel

EXP_DENSITY = DensitySpec(kind="exponential-tilt", params={"tilt": -1.0},
                          unimodal_alpha=1.0 / 3.0, unimodal_ratio=1.5)


@dataclass(frozen=True)
class CorpusChain:
    name: str
    kernel: FiniteKernel
    cert: DriftCertificate
    variant: str


def bd_expdrift() -> CorpusChain:
    """Birth-death discretization of exp(-x) at c = 1/32 with a passing
    exponential Lyapunov certificate.

    (lambda, b) is ``fit_drift``'s and the radii are
    ``DriftCertificate.with_radii``'s, 5% above their compatibility
    thresholds; on this compact chain both sublevel sets are the whole
    space, so the restriction is degenerate and the pipeline reduces to the
    pure pairwise-overlap route.
    """
    c = 1.0 / 32.0
    k = birth_death_chain(EXP_DENSITY, c)
    v = np.exp(0.5 * k.states)
    cert = DriftCertificate.with_radii(v, *fit_drift(k, v))
    return CorpusChain(
        name="bd-expdrift",
        kernel=k,
        cert=cert,
        variant="mh-restriction",
    )


def _independence_mh(n: int, gamma: float) -> FiniteKernel:
    """Independence Metropolis chain on n states targeting exp(-gamma j).

    The uniform proposal matrix is symmetric, hence reversible w.r.t. its
    uniform stationary law, and the Metropolis construction is reversible
    w.r.t. the geometric target.
    """
    proposal = build_finite_kernel(np.full((n, n), 1.0 / n), states=np.linspace(0.0, 1.0, n))
    target = np.exp(-gamma * np.arange(n))
    return mh_grid_kernel(target, proposal)


@dataclass(frozen=True)
class EscapeCase:
    """One (chain, certificate, variant, start, horizon) coupling scenario."""

    name: str
    kernel: FiniteKernel
    cert: DriftCertificate
    variant: str
    x0: int
    horizon: int


def _jump_home_chain(n_mid: int, delta: float, eta: float, v_top: float):
    """An iid-sampling chain (all rows equal) with a rare far tail state.

    State 0 is home, states 1..n_mid are a middle band with V ramping over
    [0, 1], and the last state carries V = v_top; every step resamples from
    the fixed row, which jumps home with probability 1 - eta - delta, into
    the middle band with probability eta, and to the tail with probability
    delta.  Rows-equal chains are reversible w.r.t. their own row, and the
    per-step tail mass delta makes decoupling from the C-restriction
    actually visible.
    """
    n = n_mid + 2
    row = np.empty(n)
    row[0] = 1.0 - eta - delta
    row[1:-1] = eta / n_mid
    row[-1] = delta
    p = np.tile(row, (n, 1))
    v = np.concatenate([[0.0], np.linspace(0.0, 1.0, n_mid), [v_top]])
    k = build_finite_kernel(p)
    return k, v


def escape_corpus() -> list[EscapeCase]:
    """Ten coupling scenarios with theorem2-compatible certificates, each
    from ``tightest_certificate``.

    Six independence Metropolis samplers with geometric targets and
    exponential Lyapunov functions (proper small set, escapes essentially
    never observed), two jump-home chains with a rare far tail (proper
    small set, decoupling frequency visibly positive), and two linear-V
    cases whose radii exceed max V, covering the degenerate C = full space
    branch.
    """
    mh_specs = [
        # (n, gamma, variant, horizon, v_kind)
        (160, 0.20, "mh-restriction", 30, "exp"),
        (192, 0.25, "trace", 30, "exp"),
        (160, 0.30, "mh-restriction", 40, "exp"),
        (224, 0.20, "trace", 25, "exp"),
        (192, 0.35, "mh-restriction", 30, "exp"),
        (240, 0.22, "mh-restriction", 25, "exp"),
        (24, 0.30, "mh-restriction", 30, "linear"),   # degenerate: C = full space
        (32, 0.25, "trace", 30, "linear"),            # degenerate: C = full space
    ]
    cases = []
    for i, (n, gamma, variant, horizon, v_kind) in enumerate(mh_specs):
        k = _independence_mh(n, gamma)
        if v_kind == "exp":
            v = np.exp((20.0 / n) * np.arange(n))
        else:
            v = np.arange(n, dtype=float)
        cert = tightest_certificate(k, v)
        cases.append(
            EscapeCase(
                name=f"escape-{i}",
                kernel=k,
                cert=cert,
                variant=variant,
                x0=0,
                horizon=horizon,
            )
        )
    for j, (n_mid, delta, eta, v_top, variant, horizon) in enumerate([
        (30, 0.001, 0.30, 200.0, "mh-restriction", 30),
        (20, 0.002, 0.25, 400.0, "trace", 25),
    ]):
        k, v = _jump_home_chain(n_mid, delta, eta, v_top)
        cert = tightest_certificate(k, v)
        cases.append(
            EscapeCase(
                name=f"escape-{len(mh_specs) + j}",
                kernel=k,
                cert=cert,
                variant=variant,
                x0=0,
                horizon=horizon,
            )
        )
    return cases


def random_dense_chain(rng: np.random.Generator, n: int) -> FiniteKernel:
    """A strictly positive (hence irreducible, aperiodic) random kernel."""
    rows = rng.gamma(shape=1.0, scale=1.0, size=(n, n)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return build_finite_kernel(rows)


def random_reversible_chain(rng: np.random.Generator, n: int) -> FiniteKernel:
    """Random walk on a random positive symmetric weight matrix."""
    w = rng.gamma(shape=1.0, scale=1.0, size=(n, n)) + 1e-3
    w = 0.5 * (w + w.T)
    return build_finite_kernel(w / w.sum(axis=1, keepdims=True))


def random_positive_table(rng: np.random.Generator, n1: int, n2: int) -> np.ndarray:
    return rng.gamma(shape=1.0, scale=1.0, size=(n1, n2)) + 0.05


def random_density(rng: np.random.Generator) -> DensitySpec:
    """A random positive piecewise-linear density."""
    knots = int(rng.integers(3, 7))
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, knots - 2)), [1.0]])
    ys = rng.uniform(0.2, 3.0, knots)
    return DensitySpec(
        kind="piecewise-linear-table",
        params={"xs": tuple(xs), "ys": tuple(ys)},
    )
