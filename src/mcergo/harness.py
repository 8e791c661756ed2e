"""Experiment configs, runners, and report emission.

Configs are strict JSON (lower_snake_case keys, unknown keys are errors)
and round-trip exactly through ``serialize_config``/``parse_config``.
Every run writes a manifest (config hash, seed, toolkit version) next to
its outputs; reruns with the same manifest produce byte-identical CSVs.

This is the one module that knows the output formats: every CSV header
(``SCALING_COLUMNS``, ``HITMIX_COLUMNS``, ``COUPLE_COLUMNS``), CSV row and
report dict is built here from the analysis results, which hold only what
they compute (``HitMixReport``, ``McEstimate``, ``GeometricBound``, whose
fields ``certify_report.json`` carries as ``dataclasses.asdict``).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .certify import (
    EXACT_OVERLAP_STATE_CAP,
    DriftCertificate,
    certify_drift_and_hit,
    compatibility_check,
    escape_bound,
    fit_drift,
    verify_drift,
)
from .chain_analysis import (
    exit_probability,
    max_hitting_time,
    mix_to_hit_bound,
    mixing_time,
    tv_table,
)
from .corpus import bd_expdrift
from .density import DensitySpec, _checked_inverse, _config_float
from .errors import ConfigError, IncompatibleCertificate, InvalidParameters, McergoError
from .kernels import (
    FiniteKernel,
    birth_death_chain,
    build_finite_kernel,
    ball_walk_sampler,
    kernel_from_csv,
    lazy_srw,
    restrict,
    _is_int,
)
from .montecarlo import coupled_escape_estimate, estimate_hitting_batch
from .svg import emit_svg

RESTRICTIONS = ("mh-restriction", "trace")  # gibbs needs a probability table no config carries

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
    output_path: str = "out"
    chain: dict | None = None
    certificate: dict | None = None
    restriction: str = "mh-restriction"
    svg: bool = False

    def __post_init__(self):
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.restriction not in RESTRICTIONS:
            raise ConfigError(f"unknown restriction {self.restriction!r}; use {RESTRICTIONS}")
        if not (0.0 < self.alpha < 0.5):
            raise ConfigError("alpha must lie in (0, 0.5)")
        if not (_is_int(self.replicas) and self.replicas >= 1):
            raise ConfigError(f"replicas must be an integer >= 1, got {self.replicas!r}")
        # the Monte Carlo streams take the seed as one uint64 word of a Philox key
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (self.horizon is None or _is_int(self.horizon) and self.horizon >= 1):
            raise ConfigError(f"horizon must be null or an integer >= 1, got {self.horizon!r}")
        if not isinstance(self.svg, bool):
            raise ConfigError(f"svg must be true or false, got {self.svg!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError("output_path must be a path")
        for c in self.c_list:
            _checked_inverse(c)
        object.__setattr__(self, "c_list", tuple(float(c) for c in self.c_list))


def parse_config(payload) -> ExperimentConfig:
    """Parse a config dict or JSON string; unknown keys are errors."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in payload:
        raise ConfigError("config needs an 'experiment'")
    kwargs = dict(payload)
    if kwargs.get("c_list") is not None:
        if not isinstance(kwargs["c_list"], (list, tuple)):
            raise ConfigError(f"c_list must be a list of step sizes, got {kwargs['c_list']!r}")
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
    payload = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    payload["c_list"] = list(cfg.c_list)
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

def chain_from_config(spec: dict) -> tuple[FiniteKernel, DriftCertificate | None]:
    """Build (kernel, optional corpus certificate)."""
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
        return build_finite_kernel(rows, states=states), None
    if kind == "birth-death":
        density = spec.pop("density", None)
        c = spec.pop("c", None)
        if density is None or c is None:
            raise ConfigError("birth-death chain needs 'density' and 'c'")
        _reject_unknown(spec, "chain")
        return birth_death_chain(DensitySpec.from_config(density), _config_float(c, "c")), None
    if kind == "lazy-srw":
        c = spec.pop("c", None)
        if c is None:
            raise ConfigError("lazy-srw chain needs 'c'")
        _reject_unknown(spec, "chain")
        return lazy_srw(_config_float(c, "c")), None
    if kind == "kernel-csv":
        path = spec.pop("path", None)
        if path is None:
            raise ConfigError("kernel-csv chain needs 'path'")
        _reject_unknown(spec, "chain")
        return kernel_from_csv(path), None
    if kind == "corpus":
        name = spec.pop("name", None)
        _reject_unknown(spec, "chain")
        if name == "bd-expdrift":
            corp = bd_expdrift()
            return corp.kernel, corp.cert
        raise ConfigError(f"unknown corpus chain {name!r}")
    raise ConfigError(f"unknown chain kind {kind!r}")


def _reject_unknown(leftover: dict, where: str):
    if leftover:
        raise ConfigError(f"unknown {where} config keys: {sorted(leftover)}")


def certificate_from_config(spec: dict, k: FiniteKernel) -> DriftCertificate:
    """Build a DriftCertificate from its config spec.

    With neither ``lambda`` nor ``b``, (lambda, b) is ``fit_drift``'s; a
    ``lambda`` alone gets the smallest b that holds at it; a ``b`` alone is
    a ConfigError.  Omitted radii are ``DriftCertificate.with_radii``'s.
    """
    if not isinstance(spec, dict):
        raise ConfigError("certificate config must be an object")
    spec = dict(spec)
    v_spec = spec.pop("v", None)
    if v_spec is None:
        raise ConfigError("certificate needs 'v'")
    if isinstance(v_spec, dict):
        v_spec = dict(v_spec)
        kind = v_spec.pop("kind", None)
        if kind == "exp-of-coordinate":
            kappa = _config_float(v_spec.pop("kappa", 1.0), "kappa")
            _reject_unknown(v_spec, "certificate v")
            with np.errstate(over="ignore"):  # the drift check refuses an infinite V
                v = np.exp(kappa * k.coordinates())
        else:
            raise ConfigError(f"unknown v kind {kind!r}")
    else:
        v = _config_floats(v_spec, "v")
        if v.shape != (k.n,):
            raise InvalidParameters(
                f"certificate V needs one value per state: shape {v.shape}, {k.n} states")

    def number(key):
        value = spec.pop(key, None)
        return None if value is None else _config_float(value, key)

    lam, b, r, r_prime = (number(key) for key in ("lambda", "b", "r", "r_prime"))
    _reject_unknown(spec, "certificate")
    if b is None:
        lam, b = fit_drift(k, v, None if lam is None else [lam])
    elif lam is None:
        raise ConfigError("certificate 'b' needs a 'lambda'")
    return DriftCertificate.with_radii(v, lam, b, r=r, r_prime=r_prime)


def _config_floats(value, what: str) -> np.ndarray:
    """An array of numbers read from a config; ConfigError when ``value`` is not one."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a list of numbers, got {value!r}") from None


# --- scaling study -------------------------------------------------------------

def run_scaling(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """The hitting-time scaling study over a grid of step sizes.

    First, for every c: the exact maximum hitting times of the birth-death
    discretization and the lazy random walk (by the birth-death closed form),
    the exact mixing time of the birth-death chain, and the Monte Carlo
    horizon (``horizon``, or 50 ceil(tH(bd))).  Then the Monte Carlo
    maximum hitting estimates of the ball walk over a 33-point start grid
    and the two extreme quantile intervals, for every c in one walker
    population (``_ballwalk_max_hitting``).  Rows, printed lines and an
    ``AllCensored`` refusal still come per c, in ``c_list`` order.  Emits
    the fixed-column CSV, a least-squares log-log slope file, and
    optionally an SVG chart.
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
    exact = []  # (c, tH(bd), tH(srw), tm(bd)) per c
    runs = []  # (c, horizon, c index) of the Monte Carlo per c
    for ci, c in enumerate(cfg.c_list):
        h_c = birth_death_chain(density, c)
        w_c = lazy_srw(c)
        th_bd = max_hitting_time(h_c, alpha).t_h
        th_srw = max_hitting_time(w_c, alpha).t_h
        exact.append((c, th_bd, th_srw, mixing_time(h_c)))
        runs.append((c, cfg.horizon or 50 * max(1, math.ceil(th_bd)), ci))
    mc = _ballwalk_max_hitting(density, runs, alpha_prime, cfg.replicas, cfg.seed)
    rows = []
    t_h_values = []
    series_th = []
    series_tm = []
    for (c, th_bd, th_srw, tm_bd), (mc_mean, mc_stderr, censored) in zip(exact, mc):
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


def _ballwalk_max_hitting(density, runs, alpha_prime, replicas, seed):
    """Worst Monte Carlo hitting estimate of the ball walk for each run (c, horizon, c_index).

    Per run: the worst estimate over starts and the two extreme quantile
    intervals, grid-rounded, as (mean, stderr, worst censored fraction).
    The (start, target) estimates of every run go through one walker
    population, each with its run's step c and horizon.
    """
    low_q, high_q = density.quantile(alpha_prime), density.quantile(1.0 - alpha_prime)
    jobs = []
    for c, horizon, c_index in runs:
        sampler = ball_walk_sampler(density, c)
        lo = max(c * math.floor(low_q / c), c)
        hi = min(c * math.ceil(high_q / c), 1.0 - c)
        targets = [
            lambda xs, lo=lo: np.asarray(xs) <= lo,
            lambda xs, hi=hi: np.asarray(xs) >= hi,
        ]
        jobs += [
            (sampler, float(x0), pred, _derived_seed(seed, c_index, si, ti), horizon)
            for si, x0 in enumerate(np.linspace(0.0, 1.0, START_GRID_POINTS))
            for ti, pred in enumerate(targets)
        ]
    estimates = estimate_hitting_batch(jobs, replicas)
    per_run = 2 * START_GRID_POINTS
    results = []
    for i in range(0, len(estimates), per_run):
        run = estimates[i:i + per_run]
        worst = max(run, key=lambda est: est.mean)  # the first of the largest means
        results.append((worst.mean, worst.stderr, max(est.censored_fraction for est in run)))
    return results


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
    k, cert = _chain_and_certificate(cfg)
    out_dir = _prepare_out(cfg, out_dir)

    report: dict = {
        "chain": cfg.chain,
        "variant": cfg.restriction,
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
        bound = certify_drift_and_hit(k, cert, variant=cfg.restriction)
        report["bound"] = asdict(bound)
        report["m_per_state"] = [bound.m_of(v) for v in cert.v]
        if bound.degenerate_restriction:
            report["note"] = "restriction is degenerate: C is the full space"

        if k.n <= EXACT_OVERLAP_STATE_CAP:
            verdict, max_violation, profile_rows = _dominance_profile(k, cert, bound)
            report["dominance_verdict"] = "PASS" if verdict else "FAIL"
            report["max_dominance_violation"] = max_violation
            _write_csv(
                os.path.join(out_dir, "tv_profile.csv"),
                ["t", "max_tv", "min_bound", "dominated"],
                profile_rows,
            )
        else:
            report["dominance_verdict"] = "SKIPPED"
            report["note_profile"] = f"exact TV profile limited to {EXACT_OVERLAP_STATE_CAP} states"
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


def _dominance_profile(k: FiniteKernel, cert: DriftCertificate, bound):
    table = tv_table(k, TV_PROFILE_HORIZON)
    max_tv = table.max(axis=1)
    min_bound = np.empty_like(max_tv)
    # the bound changes with t only through t // T: one evaluation per window of
    # T steps, subtracted in place, turns the window's rows into TV - bound
    for t0 in range(0, TV_PROFILE_HORIZON + 1, bound.t):
        bounds = bound.evaluate(cert.v, t0)
        table[t0:t0 + bound.t] -= bounds
        min_bound[t0:t0 + bound.t] = np.min(bounds)
    excess = table.max(axis=1)
    dominated = excess <= 1e-9
    profile_rows = [[str(t), repr(tv), repr(b), "1" if d else "0"] for t, (tv, b, d)
                    in enumerate(zip(max_tv.tolist(), min_bound.tolist(), dominated.tolist()))]
    return bool(dominated.all()), float(excess.max()), profile_rows


# --- hit/mix survey ---------------------------------------------------------------

HITMIX_COLUMNS = ["alpha", "tH", "method", "worst_set", "worst_start", "tm", "tL",
                  "bound_12tm", "ratio_tL_tH", "error"]


def run_hitmix(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """Mixing and maximum hitting survey of one finite chain."""
    if cfg.experiment != "hitmix":
        raise ConfigError(f"config is for {cfg.experiment!r}, not hitmix")
    if cfg.chain is None:
        raise ConfigError("hitmix needs a 'chain'")
    k, _ = chain_from_config(cfg.chain)
    out_dir = _prepare_out(cfg, out_dir)

    results, errors = {}, []
    # all three read k.stationary: (P + I)/2 has the law of P
    for name, compute in (
        ("tm", lambda: mixing_time(k)),
        ("tL", lambda: mixing_time(k, lazy=True)),
        ("tH", lambda: max_hitting_time(k, cfg.alpha)),
    ):
        try:
            results[name] = compute()
        except McergoError as exc:
            errors.append(f"{name}:{type(exc).__name__}")
    t_m, t_l, report = (results.get(name) for name in ("tm", "tL", "tH"))

    # a quantity that was not computed is an empty cell
    hit = ["", "", "", ""] if report is None else [
        repr(float(report.t_h)), report.method,
        ";".join(str(i) for i in report.worst_set), str(report.worst_start)]
    ratio = (repr(t_l / report.t_h)
             if report is not None and t_l is not None and report.t_h > 0.0 else "")
    row = [repr(float(cfg.alpha)), *hit,
           "" if t_m is None else str(t_m),
           "" if t_l is None else str(t_l),
           "" if t_m is None else repr(mix_to_hit_bound(t_m)),
           ratio,
           ";".join(errors)]

    _write_csv(os.path.join(out_dir, "hitmix.csv"), HITMIX_COLUMNS, [row])
    write_manifest(cfg, out_dir)
    ok = not errors
    if not quiet:
        print(f"hitmix: {'ok' if ok else ';'.join(errors)}")
    return {"ok": ok, "out_dir": out_dir, "report": report, "tm": t_m, "tL": t_l,
            "errors": errors}


# --- coupling run ---------------------------------------------------------------------

COUPLE_COLUMNS = ["quantity", "mean", "stderr", "replicas", "censored_fraction", "seed"]


def run_couple(cfg: ExperimentConfig, out_dir=None, quiet=True) -> dict:
    """Decoupling probability, exact and Monte Carlo, against the drift escape bound.

    ``couple.csv`` holds the Monte Carlo ``decoupling_frequency``, the
    ``escape_bound`` and the exact ``decoupling_exact``; ``ok`` is exact <=
    bound.  The chains start at the first state of C' = {V <= r'};
    IncompatibleCertificate, before any walker runs, when that state lies
    outside C = {V <= r}.
    """
    if cfg.experiment != "couple":
        raise ConfigError(f"config is for {cfg.experiment!r}, not couple")
    k, cert = _chain_and_certificate(cfg)
    horizon = cfg.horizon or 50
    small_set, inner_set = cert.sublevel_sets()
    x0 = int(inner_set[0])
    if x0 not in small_set:  # r' > r can put C' outside C
        raise IncompatibleCertificate(
            f"start state {x0}, the first of C' = {{V <= r'}}, lies outside C = {{V <= r}}")
    out_dir = _prepare_out(cfg, out_dir)
    dom = restrict(k, small_set, cfg.restriction)
    est = coupled_escape_estimate(k, dom, x0, horizon, cfg.replicas, cfg.seed)
    exact = exit_probability(k, dom.support, x0, horizon)
    bnd = escape_bound(cert.lam, cert.b, cert.r, cert.r_prime)
    rows = [["decoupling_frequency", repr(float(est.mean)), repr(float(est.stderr)),
             str(est.replicas), repr(float(est.censored_fraction)), str(est.seed)],
            ["escape_bound", repr(float(bnd)), "", "", "", str(cfg.seed)],
            ["decoupling_exact", repr(exact), "", "", "", str(cfg.seed)]]
    _write_csv(os.path.join(out_dir, "couple.csv"), COUPLE_COLUMNS, rows)
    write_manifest(cfg, out_dir)
    ok = exact <= bnd
    if not quiet:
        print(f"couple: freq={est.mean} exact={exact} bound={bnd}")
    return {"ok": ok, "out_dir": out_dir, "estimate": est, "exact": exact, "bound": bnd}


def _chain_and_certificate(cfg: ExperimentConfig):
    """The configured chain and its certificate.

    A configured certificate wins over the corpus chain's own.
    """
    if cfg.chain is None:
        raise ConfigError(f"{cfg.experiment} needs a 'chain'")
    k, corpus_cert = chain_from_config(cfg.chain)
    cert = (certificate_from_config(cfg.certificate, k)
            if cfg.certificate is not None else corpus_cert)
    if cert is None:
        raise ConfigError(f"{cfg.experiment} needs a 'certificate' (or a corpus chain)")
    return k, cert


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
