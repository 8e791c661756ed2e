"""Experiment configs, runners, and report emission.

Configs are strict UTF-8 JSON (lower_snake_case keys; unknown keys, and a
key repeated in any object, are errors) and round-trip exactly through
``serialize_config``/``parse_config``.  Every run writes a manifest (config
hash, seed, toolkit version) next to its outputs; reruns with the same
manifest produce byte-identical CSVs.

This is the one module that knows the config schema: one reader,
``_config_object``, checks the keys of every config object against its
table (``ExperimentConfig``'s fields, ``CHAIN_KINDS``, ``CERTIFICATE_KEYS``,
``V_KINDS`` and the density keys built from ``density.DENSITY_KINDS``), and
the ``*_from_config`` functions turn the values into analysis objects.
``EXPERIMENT_KEYS`` is the one place that says which fields an experiment
reads and which it needs.  ``ExperimentConfig.__post_init__`` judges it, so
a config built in Python or by ``dataclasses.replace`` (the CLI's
``--seed``) is judged as a parsed one is: a field the experiment does not
read must hold its default.  ``serialize_config`` still writes all 12
fields, so the manifest hash of a config does not depend on its experiment's
table.

Each input has one judge: ``ExperimentConfig.__post_init__`` every
top-level value (``c_list`` included: no two steps on one grid), the count
rule ``kernels._checked_count`` the counts, with the walk's limits read
from ``montecarlo``, ``certify._check_drift`` a certificate's V, and each
runner its config's experiment, before any output directory is made.

It is also the one module that knows the output formats: every CSV header
(``SCALING_COLUMNS``, ``HITMIX_COLUMNS``, ``COUPLE_COLUMNS``), CSV row and
report dict is built here from the analysis results, which hold only what
they compute (``HitMixReport``, ``McEstimate``, ``GeometricBound``, whose
fields ``certify_report.json`` carries as ``dataclasses.asdict``), and
written by one CSV writer, ``_write_csv``, and one JSON writer,
``_write_json``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .certify import (
    EXACT_OVERLAP_STATE_CAP,
    DriftCertificate,
    _check_drift,
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
from .density import DENSITY_KINDS, DensitySpec, _checked_inverse
from .errors import ConfigError, IncompatibleCertificate, McergoError
from .kernels import (
    FiniteKernel,
    birth_death_chain,
    build_finite_kernel,
    ball_walk_sampler,
    kernel_from_csv,
    lazy_srw,
    restrict,
    _checked_count,
)
from .montecarlo import SEED_LIMIT, STEP_LIMIT, coupled_escape_estimate, estimate_hitting_batch
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


# the keys each experiment reads, {key: required}: a key outside its experiment's
# table must be left out (or hold its default), and a required one must be set
_SHARED_KEYS = {"experiment": True, "seed": False, "output_path": False}
EXPERIMENT_KEYS = {
    "scaling": {**_SHARED_KEYS, "density": True, "c_list": True, "alpha": False,
                "replicas": False, "horizon": False, "svg": False},
    "certify": {**_SHARED_KEYS, "chain": True, "certificate": False, "restriction": False},
    "hitmix": {**_SHARED_KEYS, "chain": True, "alpha": False},
    "couple": {**_SHARED_KEYS, "chain": True, "certificate": False, "restriction": False,
               "horizon": False, "replicas": False},
}


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
        keys = EXPERIMENT_KEYS.get(self.experiment)
        if keys is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.c_list, (list, tuple)):
            raise ConfigError(f"c_list must be a list of step sizes, got {self.c_list!r}")
        object.__setattr__(self, "c_list", tuple(self.c_list))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in keys and value != f.default:
                raise ConfigError(
                    f"{self.experiment} does not read {f.name!r}: leave it out, got {value!r}")
            if keys.get(f.name) and (value is None or value == ()):
                raise ConfigError(f"{self.experiment} needs {f.name!r}, got {value!r}")
        if self.restriction not in RESTRICTIONS:
            raise ConfigError(f"unknown restriction {self.restriction!r}; use {RESTRICTIONS}")
        if not (isinstance(self.alpha, numbers.Real) and not isinstance(self.alpha, bool)
                and 0.0 < self.alpha < 0.5):
            raise ConfigError(f"alpha must be a number in (0, 0.5), got {self.alpha!r}")
        # the counts a walk takes, with the walk's own limits (montecarlo), stored as
        # the ints the count rule returns: json writes no numpy integer
        object.__setattr__(self, "replicas", _checked_count(self.replicas, "replicas", 1,
                                                            error=ConfigError))
        object.__setattr__(self, "seed", _checked_count(self.seed, "seed", 0, SEED_LIMIT,
                                                        ConfigError))
        if self.horizon is not None:
            object.__setattr__(self, "horizon", _checked_count(self.horizon, "horizon", 1,
                                                               STEP_LIMIT, ConfigError))
        if not isinstance(self.svg, bool):
            raise ConfigError(f"svg must be true or false, got {self.svg!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError("output_path must be a path")
        steps = {}  # grid size round(1/c) -> its step
        for c in self.c_list:
            n = _checked_inverse(c)
            if n in steps:
                raise ConfigError(f"c_list steps {steps[n]!r} and {c!r} have the same grid "
                                  f"size {n}: each step needs a grid of its own")
            steps[n] = c
        object.__setattr__(self, "c_list", tuple(float(c) for c in self.c_list))


def parse_config(payload) -> ExperimentConfig:
    """Parse a config dict, JSON string or UTF-8 JSON bytes; unknown and
    repeated keys are errors."""
    try:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        if isinstance(payload, str):
            payload = json.loads(payload, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # UnicodeDecodeError and json.JSONDecodeError are ValueErrors
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    kwargs = _config_object(payload, "", {f.name: f.name == "experiment"
                                          for f in fields(ExperimentConfig)})
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs; ConfigError on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(payload)


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
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_json(path, payload):
    """The one JSON writer: sorted keys, indent 2 and a final newline.  A value
    json cannot write, such as the certify report's numpy floats, goes through
    float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _derived_seed(seed: int, *key) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


# --- the config schema: one reader and a key table per object ----------------

# each chain kind and its keys, {key: required}
CHAIN_KINDS = {
    "matrix": {"rows": True, "states": False},
    "birth-death": {"density": True, "c": True},
    "lazy-srw": {"c": True},
    "kernel-csv": {"path": True},
    "corpus": {"name": True},
}
CERTIFICATE_KEYS = {"v": True, "lambda": False, "b": False, "r": False, "r_prime": False}
V_KINDS = {"exp-of-coordinate": {"kappa": False}}
DENSITY_KEYS = {kind: {**dict.fromkeys(params, True), "unimodal_alpha": False,
                       "unimodal_ratio": False} for kind, params in DENSITY_KINDS.items()}


def _config_object(spec, where: str, keys: dict) -> dict:
    """``spec``, checked to be an object whose keys all lie in ``keys`` ({key: required}).

    ConfigError when it is not an object, holds a key outside ``keys``, or
    lacks a required key; a null value counts as missing.  ``where`` names
    the object in the messages ("" for the top level).
    """
    what = f"{where} config".lstrip()
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(spec) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, required in keys.items():
        if required and spec.get(key) is None:
            raise ConfigError(f"{what} needs {key!r}")
    return spec


def _config_kind(spec, where: str, kinds: dict) -> dict:
    """``spec`` read by ``_config_object`` with the keys of its ``kind``, a str in ``kinds``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{where} config needs 'kind' from {sorted(kinds)}, got {kind!r}")
    return _config_object(spec, where, {"kind": True, **kinds[kind]})


def _config_float(value, what: str) -> float:
    """A number read from a config; ConfigError when ``value`` is not one."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def chain_from_config(spec: dict) -> tuple[FiniteKernel, DriftCertificate | None]:
    """Build (kernel, optional corpus certificate)."""
    spec = _config_kind(spec, "chain", CHAIN_KINDS)
    kind = spec["kind"]
    if kind == "matrix":
        return build_finite_kernel(spec["rows"], states=spec.get("states")), None
    if kind == "birth-death":
        density = density_from_config(spec["density"])
        return birth_death_chain(density, _config_float(spec["c"], "c")), None
    if kind == "lazy-srw":
        return lazy_srw(_config_float(spec["c"], "c")), None
    if kind == "kernel-csv":
        if not isinstance(spec["path"], str):
            raise ConfigError(f"kernel-csv path must be a string, got {spec['path']!r}")
        return kernel_from_csv(spec["path"]), None
    if spec["name"] != "bd-expdrift":
        raise ConfigError(f"unknown corpus chain {spec['name']!r}")
    corp = bd_expdrift()
    return corp.kernel, corp.cert


def density_from_config(spec: dict) -> DensitySpec:
    """A DensitySpec from its config: a ``kind``, that kind's params, and
    optionally ``unimodal_alpha`` and ``unimodal_ratio``.

    ``tilt`` is a number, and ``xs`` and ``ys`` lists of numbers; the rest
    is judged by ``DensitySpec``.
    """
    spec = _config_kind(spec, "density", DENSITY_KEYS)
    params = {}
    for key in DENSITY_KINDS[spec["kind"]]:
        value = spec[key]
        if key == "tilt":
            params[key] = _config_float(value, key)
        elif isinstance(value, (list, tuple)):
            params[key] = tuple(_config_float(v, key) for v in value)
        else:
            raise ConfigError(f"piecewise table {key!r} must be a list, got {value!r}")
    return DensitySpec(spec["kind"], params, **{
        key: _config_float(spec[key], key)
        for key in ("unimodal_alpha", "unimodal_ratio") if key in spec})


def certificate_from_config(spec: dict, k: FiniteKernel) -> DriftCertificate:
    """Build a DriftCertificate from its config spec.

    With neither ``lambda`` nor ``b``, (lambda, b) is ``fit_drift``'s; a
    ``lambda`` alone gets the smallest b that holds at it; a ``b`` alone is
    a ConfigError.  Omitted radii are ``DriftCertificate.with_radii``'s.
    """
    spec = _config_object(spec, "certificate", CERTIFICATE_KEYS)
    if isinstance(spec["v"], dict):  # "exp-of-coordinate", the one kind
        v_spec = _config_kind(spec["v"], "certificate v", V_KINDS)
        kappa = _config_float(v_spec.get("kappa", 1.0), "kappa")
        with np.errstate(over="ignore"):  # the drift check refuses an infinite V
            v = np.exp(kappa * k.coordinates())
    else:
        v = _check_drift(v=_config_floats(spec["v"], "v"), k=k)
    lam, b, r, r_prime = (None if spec.get(key) is None else _config_float(spec[key], key)
                          for key in ("lambda", "b", "r", "r_prime"))
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
    density = density_from_config(cfg.density)
    if not density.check_nearly_unimodal():
        raise ConfigError(
            "density violates its declared near-unimodality parameters: "
            f"central ratio {density.measured_central_ratio():.6f} > {density.unimodal_ratio}"
        )
    out_dir = _prepare_out(cfg, out_dir)

    table = []  # one row per c: (c, tH(bd), tH(srw), tm(bd)), then the Monte Carlo's
    for c in cfg.c_list:
        h_c = birth_death_chain(density, c)
        w_c = lazy_srw(c)
        th_bd = max_hitting_time(h_c, cfg.alpha).t_h
        th_srw = max_hitting_time(w_c, cfg.alpha).t_h
        table.append((c, th_bd, th_srw, mixing_time(h_c)))
    runs = [(c, cfg.horizon or 50 * max(1, math.ceil(th_bd)), ci)  # (c, horizon, c index)
            for ci, (c, th_bd, *_) in enumerate(table)]
    mc = _ballwalk_max_hitting(density, runs, cfg.alpha / 4.0, cfg.replicas, cfg.seed)
    table = [(*row, *est) for row, est in zip(table, mc)]  # ..., mean, stderr, censored
    if not quiet:
        for c, th_bd, th_srw, tm_bd, *_ in table:
            print(f"c={c}: tH(bd)={th_bd:.2f} tH(srw)={th_srw:.2f} tm={tm_bd}")

    _write_csv(os.path.join(out_dir, "scaling.csv"), SCALING_COLUMNS, [
        [repr(float(c)), repr(float(th_bd)), repr(float(th_srw)), repr(float(mean)),
         repr(float(stderr)), str(tm_bd), repr(float(censored))]
        for c, th_bd, th_srw, tm_bd, mean, stderr, censored in table])
    t_h = [th_bd for _, th_bd, *_ in table]
    slope, slope_stderr = _loglog_slope(cfg.c_list, t_h)
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
            [("tH birth-death", [(c, th_bd) for c, th_bd, *_ in table]),
             ("tm birth-death", [(c, tm_bd) for c, _, _, tm_bd, *_ in table])],
            os.path.join(out_dir, "scaling.svg"),
            title="hitting and mixing times vs step size",
            xlabel="c",
            ylabel="steps",
        )
    write_manifest(cfg, out_dir)
    return {"out_dir": out_dir, "slope": slope, "slope_stderr": slope_stderr, "tH": t_h}


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

    _write_json(os.path.join(out_dir, "certify_report.json"), report)
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
