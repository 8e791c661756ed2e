"""Experiment configs, runners, and report emission.

Configs are strict JSON (lower_snake_case keys, unknown keys are errors)
and round-trip exactly through ``serialize_config``/``parse_config``.
Every run writes a manifest (config hash, seed, toolkit version) next to
its outputs; reruns with the same manifest produce byte-identical CSVs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .certify import (
    DriftCertificate,
    DTable,
    certify_drift_and_hit,
    compatibility_check,
    default_dtable,
    escape_bound,
    fit_drift,
    verify_drift,
)
from .chain_analysis import (
    HitMixReport,
    exit_probability,
    max_hitting_time,
    mix_to_hit_bound,
    mixing_time,
    stationary_distribution,
    tv_trajectory,
)
from .corpus import bd_expdrift
from .density import DensitySpec
from .errors import ConfigError, McergoError, NotMixedByHorizon, Reducible, TooManyStates
from .kernels import (
    FiniteKernel,
    birth_death_chain,
    build_finite_kernel,
    ball_walk_sampler,
    kernel_from_csv,
    lazy_srw,
    restrict,
)
from .montecarlo import estimate_hitting_batch, coupled_escape_estimate
from .svg import emit_svg

EXPERIMENTS = ("scaling", "certify", "hitmix", "couple")
STRATEGIES = ("brute", "interval")

SCALING_COLUMNS = [
    "c",
    "tH_bd_exact",
    "tH_srw_exact",
    "tH_ballwalk_mc",
    "tH_ballwalk_stderr",
    "tm_bd_exact",
    "censored_fraction",
]

START_GRID_POINTS = 33
TV_PROFILE_HORIZON = 500
TV_PROFILE_STATE_CAP = 512
MAX_ACCEPTED_CENSORING = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    density: dict | None = None
    c_list: tuple = ()
    alpha: float = 1.0 / 3.0
    replicas: int = 256
    seed: int = 0
    horizon: int | None = None
    strategy: str = "interval"
    dtable_path: str | None = None
    output_path: str = "out"
    chain: dict | None = None
    certificate: dict | None = None
    restriction: str = "mh-restriction"
    svg: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not (0.0 < self.alpha < 0.5):
            raise ConfigError("alpha must lie in (0, 0.5)")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for c in self.c_list:
            n = round(1.0 / c)
            if n < 2 or abs(n * c - 1.0) > 1e-9:
                raise ConfigError(f"c = {c} does not have an integer reciprocal >= 2")
        object.__setattr__(self, "c_list", tuple(float(c) for c in self.c_list))


_CONFIG_KEYS = (
    "experiment", "density", "c_list", "alpha", "replicas", "seed",
    "horizon", "strategy", "dtable_path", "output_path", "chain",
    "certificate", "restriction", "svg",
)


def parse_config(payload) -> ExperimentConfig:
    """Parse a config dict or JSON string; unknown keys are errors."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in payload:
        raise ConfigError("config needs an 'experiment'")
    kwargs = dict(payload)
    if "c_list" in kwargs and kwargs["c_list"] is not None:
        kwargs["c_list"] = tuple(kwargs["c_list"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    payload = {
        "experiment": cfg.experiment,
        "density": cfg.density,
        "c_list": list(cfg.c_list),
        "alpha": cfg.alpha,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "strategy": cfg.strategy,
        "dtable_path": cfg.dtable_path,
        "output_path": cfg.output_path,
        "chain": cfg.chain,
        "certificate": cfg.certificate,
        "restriction": cfg.restriction,
        "svg": cfg.svg,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def write_manifest(cfg: ExperimentConfig, out_dir):
    manifest = {
        "experiment": cfg.experiment,
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _derived_seed(seed: int, *key) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


# --- chain / certificate loading from config ---------------------------------

def chain_from_config(spec: dict) -> tuple[FiniteKernel, DriftCertificate | None, str | None]:
    """Build (kernel, optional corpus certificate, optional corpus variant)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("chain config needs a 'kind'")
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind == "matrix":
        rows = spec.pop("rows", None)
        states = spec.pop("states", None)
        if rows is None:
            raise ConfigError("matrix chain needs 'rows'")
        _reject_unknown(spec, "chain")
        return build_finite_kernel(rows, states=states), None, None
    if kind == "birth-death":
        density = spec.pop("density", None)
        c = spec.pop("c", None)
        if density is None or c is None:
            raise ConfigError("birth-death chain needs 'density' and 'c'")
        _reject_unknown(spec, "chain")
        return birth_death_chain(DensitySpec.from_config(density), float(c)), None, None
    if kind == "lazy-srw":
        c = spec.pop("c", None)
        if c is None:
            raise ConfigError("lazy-srw chain needs 'c'")
        _reject_unknown(spec, "chain")
        return lazy_srw(float(c)), None, None
    if kind == "kernel-csv":
        path = spec.pop("path", None)
        if path is None:
            raise ConfigError("kernel-csv chain needs 'path'")
        _reject_unknown(spec, "chain")
        return kernel_from_csv(path), None, None
    if kind == "corpus":
        name = spec.pop("name", None)
        _reject_unknown(spec, "chain")
        if name == "bd-expdrift":
            corp = bd_expdrift()
            return corp.kernel, corp.cert, corp.variant
        raise ConfigError(f"unknown corpus chain {name!r}")
    raise ConfigError(f"unknown chain kind {kind!r}")


def _reject_unknown(leftover: dict, where: str):
    if leftover:
        raise ConfigError(f"unknown {where} config keys: {sorted(leftover)}")


def certificate_from_config(spec: dict, k: FiniteKernel) -> DriftCertificate:
    """Build a DriftCertificate; lambda/b fit and radii default when omitted."""
    if not isinstance(spec, dict):
        raise ConfigError("certificate config must be an object")
    spec = dict(spec)
    v_spec = spec.pop("v", None)
    if v_spec is None:
        raise ConfigError("certificate needs 'v'")
    if isinstance(v_spec, dict):
        kind = v_spec.get("kind")
        if kind == "exp-of-coordinate":
            kappa = float(v_spec.get("kappa", 1.0))
            v = np.exp(kappa * k.coordinates())
        else:
            raise ConfigError(f"unknown v kind {kind!r}")
    else:
        v = np.asarray(v_spec, dtype=float)
    lam = spec.pop("lambda", None)
    b = spec.pop("b", None)
    lam_grid = spec.pop("fit_lambda_grid", None)
    if lam is None or b is None:
        lam, b = fit_drift(k, v, lam_grid)
    r = spec.pop("r", None)
    r_prime = spec.pop("r_prime", None)
    margin = float(spec.pop("radius_margin", 1.05))
    _reject_unknown(spec, "certificate")
    if r_prime is None:
        r_prime = margin * 2.0 * b / (1.0 - lam)
    if r is None:
        r = margin * (2.0 * b + 24.0 * r_prime) / (1.0 - lam)
    return DriftCertificate(v=v, lam=float(lam), b=float(b), r=float(r), r_prime=float(r_prime))


def _load_dtable(cfg: ExperimentConfig) -> DTable:
    if cfg.dtable_path:
        return DTable.load(cfg.dtable_path)
    return default_dtable()


# --- scaling study -------------------------------------------------------------

def run_scaling(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """The hitting-time scaling study over a grid of step sizes.

    Per c: exact maximum hitting times of the birth-death discretization
    and the lazy random walk (by the configured strategy), a Monte Carlo
    maximum hitting estimate for the ball walk over a 33-point start grid
    and the two extreme quantile intervals, and the exact mixing time of
    the birth-death chain.  Emits the fixed-column CSV, a least-squares
    log-log slope file, and optionally an SVG chart.
    """
    if cfg.experiment != "scaling":
        raise ConfigError(f"config is for {cfg.experiment!r}, not scaling")
    if cfg.density is None or not cfg.c_list:
        raise ConfigError("scaling needs 'density' and a nonempty 'c_list'")
    density = DensitySpec.from_config(cfg.density)
    if not density.check_nearly_unimodal():
        raise ConfigError(
            "density violates its declared near-unimodality parameters: "
            f"central ratio {density.measured_central_ratio():.6f} > {density.unimodal_ratio}"
        )
    out_dir = _prepare_out(cfg, out_dir)

    alpha = cfg.alpha
    alpha_prime = alpha / 4.0
    rows = []
    t_h_values = []
    series_th = []
    series_tm = []
    for ci, c in enumerate(cfg.c_list):
        h_c = birth_death_chain(density, c)
        w_c = lazy_srw(c)
        pi_c = stationary_distribution(h_c)
        th_bd = max_hitting_time(h_c, alpha, strategy=cfg.strategy, pi=pi_c).t_h
        th_srw = max_hitting_time(w_c, alpha, strategy=cfg.strategy).t_h
        tm_bd = mixing_time(h_c, pi=pi_c)
        horizon = cfg.horizon or 50 * max(1, math.ceil(th_bd))
        mc_mean, mc_stderr, censored = _ballwalk_max_hitting(
            density, c, alpha_prime, cfg.replicas, horizon, cfg.seed, ci
        )
        t_h_values.append(th_bd)
        rows.append([
            repr(float(c)),
            repr(float(th_bd)),
            repr(float(th_srw)),
            repr(float(mc_mean)),
            repr(float(mc_stderr)),
            str(tm_bd),
            repr(float(censored)),
        ])
        series_th.append((c, th_bd))
        series_tm.append((c, tm_bd))
        if not quiet:
            print(f"c={c}: tH(bd)={th_bd:.2f} tH(srw)={th_srw:.2f} tm={tm_bd}")

    _write_csv(os.path.join(out_dir, "scaling.csv"), SCALING_COLUMNS, rows)
    slope, slope_stderr = _loglog_slope(cfg.c_list, t_h_values)
    _write_csv(
        os.path.join(out_dir, "scaling_fit.csv"),
        ["target", "slope", "slope_stderr", "points"],
        [[
            "tH_bd_exact",
            "" if slope is None else repr(slope),
            "" if slope_stderr is None else repr(slope_stderr),
            str(len(cfg.c_list)),
        ]],
    )
    if cfg.svg:
        emit_svg(
            [("tH birth-death", series_th), ("tm birth-death", series_tm)],
            os.path.join(out_dir, "scaling.svg"),
            title="hitting and mixing times vs step size",
            xlabel="c",
            ylabel="steps",
        )
    write_manifest(cfg, out_dir)
    return {"out_dir": out_dir, "slope": slope, "slope_stderr": slope_stderr, "tH": t_h_values}


def _ballwalk_max_hitting(density, c, alpha_prime, replicas, horizon, seed, c_index):
    """Worst Monte Carlo hitting estimate over starts and the two extreme
    quantile intervals, grid-rounded; censored fraction is the worst seen.
    Every (start, target) estimate runs in one walker population."""
    sampler = ball_walk_sampler(density, c)
    lo = max(c * math.floor(density.quantile(alpha_prime) / c), c)
    hi = min(c * math.ceil(density.quantile(1.0 - alpha_prime) / c), 1.0 - c)
    targets = [
        ("low", lambda xs: np.asarray(xs) <= lo),
        ("high", lambda xs: np.asarray(xs) >= hi),
    ]
    starts = np.linspace(0.0, 1.0, START_GRID_POINTS)
    jobs = [
        (float(x0), pred, _derived_seed(seed, c_index, si, ti))
        for si, x0 in enumerate(starts)
        for ti, (_, pred) in enumerate(targets)
    ]
    best = (0.0, 0.0)
    worst_censored = 0.0
    for est in estimate_hitting_batch(sampler, jobs, replicas, horizon):
        worst_censored = max(worst_censored, est.censored_fraction)
        if est.mean > best[0]:
            best = (est.mean, est.stderr)
    return best[0], best[1], worst_censored


def _loglog_slope(cs, values):
    if len(cs) < 2:
        return None, None
    x = np.log(np.asarray(cs, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    if len(cs) == 2:
        return slope, None
    resid = y - (intercept + slope * x)
    se = float(math.sqrt(resid @ resid / (len(cs) - 2) / np.dot(xc, xc)))
    return slope, se


# --- certification run ------------------------------------------------------------

def run_certify(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """Full certification audit for a configured chain and certificate."""
    if cfg.experiment != "certify":
        raise ConfigError(f"config is for {cfg.experiment!r}, not certify")
    if cfg.chain is None:
        raise ConfigError("certify needs a 'chain'")
    out_dir = _prepare_out(cfg, out_dir)
    k, corpus_cert, corpus_variant = chain_from_config(cfg.chain)
    if cfg.certificate is not None:
        cert = certificate_from_config(cfg.certificate, k)
    elif corpus_cert is not None:
        cert = corpus_cert
    else:
        raise ConfigError("certify needs a 'certificate' (or a corpus chain)")
    variant = corpus_variant or cfg.restriction
    dtable = _load_dtable(cfg)

    report: dict = {
        "chain": cfg.chain,
        "variant": variant,
        "alpha": cfg.alpha,
        "n_states": k.n,
    }
    try:
        drift = verify_drift(k, cert.v, cert.lam, cert.b)
        compat = compatibility_check(cert, "theorem2")
        report["drift_slack"] = drift.worst_slack
        report["drift_pass"] = drift.passed
        report["compatibility_margins"] = compat.margins
        report["compatibility_pass"] = compat.passed
        report["certificate"] = {
            "lambda": cert.lam, "b": cert.b, "r": cert.r, "r_prime": cert.r_prime,
            "small_set_size": int(cert.small_set.size),
            "inner_set_size": int(cert.inner_set.size),
        }
        pi = stationary_distribution(k)
        bound = certify_drift_and_hit(
            k, cert, variant=variant, alpha=cfg.alpha, dtable=dtable, pi=pi,
        )
        report["bound"] = bound.to_dict()
        report["m_per_state"] = [bound.m_of(v) for v in cert.v]
        if bound.degenerate_restriction:
            report["note"] = "restriction is degenerate: C is the full space"

        if k.n <= TV_PROFILE_STATE_CAP:
            verdict, max_violation, profile_rows = _dominance_profile(k, cert, bound, pi)
            report["dominance_verdict"] = "PASS" if verdict else "FAIL"
            report["max_dominance_violation"] = max_violation
            _write_csv(
                os.path.join(out_dir, "tv_profile.csv"),
                ["t", "max_tv", "min_bound", "dominated"],
                profile_rows,
            )
        else:
            report["dominance_verdict"] = "SKIPPED"
            report["note_profile"] = f"exact TV profile limited to {TV_PROFILE_STATE_CAP} states"
        ok = report.get("dominance_verdict") != "FAIL"
    except McergoError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        ok = False

    with open(os.path.join(out_dir, "certify_report.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    write_manifest(cfg, out_dir)
    if not quiet:
        print(f"certify: {'PASS' if ok else 'FAIL'}")
    report["ok"] = ok
    report["out_dir"] = out_dir
    return report


def _dominance_profile(k: FiniteKernel, cert: DriftCertificate, bound, pi):
    profile_rows = []
    ok = True
    max_violation = -math.inf
    for t, tv in enumerate(tv_trajectory(k, TV_PROFILE_HORIZON, pi=pi)):
        bounds = bound.evaluate(cert.v, t)
        violation = float(np.max(tv - bounds))
        max_violation = max(max_violation, violation)
        dominated = violation <= 1e-9
        ok = ok and dominated
        profile_rows.append([
            str(t),
            repr(float(np.max(tv))),
            repr(float(np.min(bounds))),
            "1" if dominated else "0",
        ])
    return ok, max_violation, profile_rows


# --- hit/mix survey ---------------------------------------------------------------

HITMIX_COLUMNS = HitMixReport.CSV_HEADER + ["bound_12tm", "ratio_tL_tH", "error"]


def run_hitmix(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """Mixing and maximum hitting survey of one finite chain."""
    if cfg.experiment != "hitmix":
        raise ConfigError(f"config is for {cfg.experiment!r}, not hitmix")
    if cfg.chain is None:
        raise ConfigError("hitmix needs a 'chain'")
    out_dir = _prepare_out(cfg, out_dir)
    k, _, _ = chain_from_config(cfg.chain)

    errors = []
    t_m = t_l = None
    report = None
    # (P + I)/2 has the stationary law of P, so one solve serves all three;
    # a reducible chain leaves pi to each call, which handles it its own way
    try:
        pi = stationary_distribution(k)
    except Reducible:
        pi = None
    try:
        t_m = mixing_time(k, pi=pi)
    except (NotMixedByHorizon, TooManyStates) as exc:
        errors.append(f"tm:{type(exc).__name__}")
    try:
        t_l = mixing_time(k, lazy=True, pi=pi)
    except (NotMixedByHorizon, TooManyStates) as exc:
        errors.append(f"tL:{type(exc).__name__}")
    try:
        report = max_hitting_time(k, cfg.alpha, strategy=cfg.strategy, pi=pi)
    except McergoError as exc:
        errors.append(f"tH:{type(exc).__name__}")

    if report is not None:
        report.t_m = t_m
        report.t_l = t_l
        row = report.csv_row()
    else:
        row = [repr(float(cfg.alpha)), "", "", "", "",
               "" if t_m is None else str(t_m),
               "" if t_l is None else str(t_l)]
    row.append("" if t_m is None else repr(mix_to_hit_bound(t_m)))
    if report is not None and t_l is not None and report.t_h > 0.0:
        row.append(repr(t_l / report.t_h))
    else:
        row.append("")
    row.append(";".join(errors))

    _write_csv(os.path.join(out_dir, "hitmix.csv"), HITMIX_COLUMNS, [row])
    write_manifest(cfg, out_dir)
    ok = not errors
    if not quiet:
        print(f"hitmix: {'ok' if ok else ';'.join(errors)}")
    return {"ok": ok, "out_dir": out_dir, "report": report, "tm": t_m, "tL": t_l,
            "errors": errors}


# --- coupling run (library-level; no CLI subcommand) --------------------------------

def run_couple(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """Decoupling probability, exact and Monte Carlo, against the drift escape bound.

    ``couple.csv`` holds the Monte Carlo ``decoupling_frequency``, the
    ``escape_bound`` and the exact ``decoupling_exact``; ``ok`` is exact <=
    bound.
    """
    if cfg.experiment != "couple":
        raise ConfigError(f"config is for {cfg.experiment!r}, not couple")
    if cfg.chain is None:
        raise ConfigError("couple needs a 'chain'")
    out_dir = _prepare_out(cfg, out_dir)
    k, corpus_cert, corpus_variant = chain_from_config(cfg.chain)
    cert = (certificate_from_config(cfg.certificate, k)
            if cfg.certificate is not None else corpus_cert)
    if cert is None:
        raise ConfigError("couple needs a 'certificate' (or a corpus chain)")
    variant = corpus_variant or cfg.restriction
    horizon = cfg.horizon or 50
    dom = restrict(k, cert.small_set, variant)
    x0 = int(cert.inner_set[0])
    est = coupled_escape_estimate(k, dom, x0, horizon, cfg.replicas, cfg.seed)
    exact = exit_probability(k, dom.support, x0, horizon)
    bnd = escape_bound(cert.lam, cert.b, cert.r, cert.r_prime)
    rows = [est.csv_row("decoupling_frequency"),
            [
                "escape_bound", repr(float(bnd)), "", "", "", str(cfg.seed)
            ],
            ["decoupling_exact", repr(exact), "", "", "", str(cfg.seed)]]
    _write_csv(os.path.join(out_dir, "couple.csv"), est.CSV_HEADER, rows)
    write_manifest(cfg, out_dir)
    ok = exact <= bnd
    if not quiet:
        print(f"couple: freq={est.mean} exact={exact} bound={bnd}")
    return {"ok": ok, "out_dir": out_dir, "estimate": est, "exact": exact, "bound": bnd}


def _prepare_out(cfg: ExperimentConfig, out_dir):
    out_dir = out_dir or cfg.output_path
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


RUNNERS = {
    "scaling": run_scaling,
    "certify": run_certify,
    "hitmix": run_hitmix,
    "couple": run_couple,
}
