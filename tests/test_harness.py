import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mcergo as m
from mcergo import chain_analysis, errors, harness, montecarlo
from mcergo.cli import build_parser, main as cli_main
from mcergo.corpus import bd_expdrift, escape_corpus
from mcergo.density import DENSITY_KINDS
from mcergo.harness import (
    CERTIFICATE_KEYS,
    CHAIN_KINDS,
    V_KINDS,
    chain_from_config,
    certificate_from_config,
    config_hash,
    density_from_config,
    parse_config,
    run_certify,
    run_couple,
    run_hitmix,
    run_scaling,
    serialize_config,
)
from mcergo.svg import emit_svg
from oracles import dominance_profile_loop, tv_trajectory_minus_pi

UNIFORM_CFG = {"kind": "uniform", "unimodal_alpha": 1.0 / 3.0, "unimodal_ratio": 1.0}


def _scaling_cfg(**overrides):
    payload = {
        "experiment": "scaling",
        "density": UNIFORM_CFG,
        "c_list": [0.25, 0.125],
        "alpha": 1.0 / 3.0,
        "replicas": 32,
        "seed": 5,
    }
    payload.update(overrides)
    return parse_config(payload)


# --- config ------------------------------------------------------------------

# a config of each experiment with every key it reads set away from its default
ROUND_TRIP_PAYLOADS = [
    {"experiment": "scaling", "density": UNIFORM_CFG, "c_list": [0.25, 0.125], "alpha": 0.25,
     "replicas": 32, "seed": 5, "horizon": 777, "output_path": "s", "svg": True},
    {"experiment": "certify", "chain": {"kind": "lazy-srw", "c": 0.25}, "seed": 4,
     "output_path": "c", "certificate": {"v": [1, 2, 3, 4], "lambda": 0.9},
     "restriction": "trace"},
    {"experiment": "hitmix", "chain": {"kind": "corpus", "name": "bd-expdrift"}, "alpha": 0.4,
     "seed": 3, "output_path": "h"},
    {"experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"}, "seed": 2,
     "output_path": "o", "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5}},
     "restriction": "trace", "horizon": 40, "replicas": 10},
]


@pytest.mark.parametrize("payload", ROUND_TRIP_PAYLOADS,
                         ids=[p["experiment"] for p in ROUND_TRIP_PAYLOADS])
def test_config_round_trip(payload):
    assert set(payload) == set(harness.EXPERIMENT_KEYS[payload["experiment"]])
    cfg = parse_config(payload)
    assert parse_config(serialize_config(cfg)) == cfg


# each digest is the sha256 of the payload's 12 fields, defaults filled in, written out
# by hand as sorted JSON with an indent of 2 and a final newline
PINNED_CONFIG_HASHES = [
    ({"experiment": "scaling", "density": {"kind": "exponential-tilt", "tilt": -1.0},
      "c_list": [1 / 8, 1 / 16], "replicas": 64, "seed": 3, "svg": True},
     "724cb26134841c7fb6c07b6cc4092192f9ead2313bcd4d728b98b93e606533dc"),
    ({"experiment": "hitmix",
      "chain": {"kind": "birth-death", "density": {"kind": "uniform"}, "c": 0.125}},
     "87fcdc7605cf00d240fce83ac2ef8ebac97bff15bf7dc81ca25c978dc080b44d"),
    ({"experiment": "certify", "chain": {"kind": "corpus", "name": "bd-expdrift"},
      "restriction": "trace"},
     "54034e6014880b458b03c7f443a8ffea6edcbb562962993f651c67f5d649e74a"),
    ({"experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"},
      "horizon": 40, "restriction": "trace",
      "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5}}},
     "ce369c4d7ead7623f4afb0cfe9c5d619190775f2b0e8e2c22b913c8312f036df"),
]


@pytest.mark.parametrize("payload,digest", PINNED_CONFIG_HASHES,
                         ids=[p["experiment"] for p, _ in PINNED_CONFIG_HASHES])
def test_config_hash_pinned(payload, digest):
    assert config_hash(parse_config(payload)) == digest


@pytest.mark.parametrize("counts", [
    {"experiment": "scaling", "density": {"kind": "uniform"}, "c_list": (0.25,),
     "seed": np.int64(3)},
    {"experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"},
     "replicas": np.int32(8), "horizon": np.uint8(5), "seed": np.uint64(2**64 - 1)},
], ids=["scaling-seed", "couple-counts"])
def test_numpy_integer_counts_are_kept_as_ints(tmp_path, counts):
    # a numpy integer passes the count rule and is stored as the int it gives,
    # so the config hashes, and its manifest is written, as the one built from
    # Python ints
    cfg = harness.ExperimentConfig(**counts)
    plain = harness.ExperimentConfig(**{
        key: int(value) if isinstance(value, np.integer) else value
        for key, value in counts.items()})
    for name in ("replicas", "seed", "horizon"):
        assert type(getattr(cfg, name)) is type(getattr(plain, name))
    assert cfg == plain and config_hash(cfg) == config_hash(plain)
    for config, out in ((cfg, tmp_path / "numpy"), (plain, tmp_path / "int")):
        out.mkdir()
        harness.write_manifest(config, out)
    assert (tmp_path / "numpy" / "manifest.json").read_bytes() == \
        (tmp_path / "int" / "manifest.json").read_bytes()


def test_config_with_a_dtable_path_is_refused():
    # no route reads a table: the key is unknown, whatever its value
    for value in (None, "d.json"):
        with pytest.raises(errors.ConfigError, match=r"unknown config keys: \['dtable_path'\]"):
            parse_config({"experiment": "certify", "dtable_path": value,
                          "chain": {"kind": "corpus", "name": "bd-expdrift"}})


def test_config_unknown_key_rejected():
    with pytest.raises(errors.ConfigError):
        parse_config({"experiment": "scaling", "denssity": {}})


def test_readme_config_table_is_the_config_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("### Config schema", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert re.match(r"\| key +\| read by +\|", table[0])
    cells = [re.match(r"\| `(\w+)` +\| ([^|]+?) +\|", row).groups() for row in table[2:]]
    assert [key for key, _ in cells] == [f.name for f in fields(harness.ExperimentConfig)]
    # "read by" names each experiment that reads the key, starred where it needs it
    read_by = {experiment: {} for experiment in harness.EXPERIMENT_KEYS}
    for key, cell in cells:
        for name in cell.split(", "):
            needed = name.endswith("*")
            for experiment in (read_by if name.rstrip("*") == "all" else [name.rstrip("*")]):
                read_by[experiment][key] = needed
    assert read_by == harness.EXPERIMENT_KEYS


def test_experiment_keys_name_every_runner_and_only_config_fields():
    assert list(harness.EXPERIMENT_KEYS) == list(harness.RUNNERS)
    names = {f.name for f in fields(harness.ExperimentConfig)}
    assert all(set(keys) <= names for keys in harness.EXPERIMENT_KEYS.values())
    assert [len(keys) for keys in harness.EXPERIMENT_KEYS.values()] == [9, 6, 5, 8]


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        parse_config({"experiment": "warp"})
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(c_list=[0.3])
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(alpha=0.7)
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(replicas=0)
    # every runner's experiment is part of the schema, 'couple' too
    cfg = parse_config({"experiment": "couple",
                        "chain": {"kind": "corpus", "name": "bd-expdrift"}})
    assert cfg.experiment == "couple"


def test_config_rejects_monte_carlo_strategy():
    # the chain picks its hitting-time routine: the key is unknown, whatever its value
    for value in ("monte-carlo", "brute"):
        with pytest.raises(errors.ConfigError, match=r"unknown config keys: \['strategy'\]"):
            parse_config({"experiment": "hitmix", "strategy": value,
                          "chain": {"kind": "lazy-srw", "c": 0.25}})


def test_chain_from_config_variants():
    k, cert = chain_from_config({"kind": "matrix", "rows": [[0.5, 0.5], [0.5, 0.5]]})
    assert k.n == 2 and cert is None
    k2, _ = chain_from_config({"kind": "lazy-srw", "c": 0.25})
    assert k2.n == 4
    k3, cert3 = chain_from_config({"kind": "corpus", "name": "bd-expdrift"})
    assert k3.n == 32 and cert3 is not None
    with pytest.raises(errors.ConfigError):
        chain_from_config({"kind": "corpus", "name": "unknown"})
    with pytest.raises(errors.ConfigError):
        chain_from_config({"kind": "matrix"})


def test_certificate_from_config_fit_and_radii():
    k, _ = chain_from_config({"kind": "birth-death", "density": {
        "kind": "exponential-tilt", "tilt": -1.0, "unimodal_ratio": 1.5}, "c": 0.125})
    cert = certificate_from_config({"v": {"kind": "exp-of-coordinate", "kappa": 0.5}}, k)
    assert m.verify_drift(k, cert.v, cert.lam, cert.b).passed
    assert m.compatibility_check(cert, "theorem2").passed


def test_certificate_from_config_refuses_a_v_that_overflows():
    k = bd_expdrift().kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or NaN warning on the way
        with pytest.raises(errors.InvalidParameters, match="V must be finite and nonnegative"):
            certificate_from_config({"v": {"kind": "exp-of-coordinate", "kappa": 1000}}, k)


def test_certificate_from_config_keeps_a_configured_lambda():
    k = bd_expdrift().kernel
    v = {"kind": "exp-of-coordinate", "kappa": 0.5}
    cert = certificate_from_config({"v": v, "lambda": 0.5}, k)
    assert cert.lam == 0.5
    assert cert.b == m.fit_drift(k, cert.v, [0.5])[1] == pytest.approx(0.799, abs=1e-3)
    assert cert.r_prime == 1.05 * (2.0 * cert.b / 0.5)
    with pytest.raises(errors.ConfigError, match="'b' needs a 'lambda'"):
        certificate_from_config({"v": v, "b": 0.001}, k)


def test_certificate_v_refuses_an_unknown_key():
    k = m.lazy_srw(0.25)
    with pytest.raises(errors.ConfigError, match=r"unknown certificate v config keys: \['kapa'\]"):
        certificate_from_config({"v": {"kind": "exp-of-coordinate", "kapa": 0.5}}, k)


# a value of every key in the config key tables
CONFIG_VALUES = {
    "rows": [[0.5, 0.5], [0.5, 0.5]], "states": [0.0, 1.0], "density": UNIFORM_CFG, "c": 0.5,
    "path": "k.csv", "name": "bd-expdrift", "tilt": -1.0, "xs": [0.0, 1.0], "ys": [1.0, 2.0],
    "unimodal_alpha": 0.25, "unimodal_ratio": 3.0, "kappa": 0.5,
    "v": {"kind": "exp-of-coordinate"}, "lambda": 0.5, "b": 1.0, "r": 30.0, "r_prime": 10.0,
}
# each config object: its reader and {kind: {key: required}}, kind None for one without kinds
CONFIG_OBJECTS = {
    "chain": (chain_from_config, CHAIN_KINDS),
    "density": (density_from_config, {
        kind: {**dict.fromkeys(params, True), "unimodal_alpha": False, "unimodal_ratio": False}
        for kind, params in DENSITY_KINDS.items()}),
    "certificate": (lambda spec: certificate_from_config(spec, m.lazy_srw(0.25)),
                    {None: CERTIFICATE_KEYS}),
    "certificate v": (lambda spec: certificate_from_config({"v": spec}, m.lazy_srw(0.25)),
                      V_KINDS),
}
CONFIG_KEY_CASES = [
    (where, kind, key, value)
    for where, (_, kinds) in CONFIG_OBJECTS.items()
    for kind, keys in kinds.items()
    for key, value in [("extra", 1.0)] + [
        (key, value) for key in ["kind"] * (kind is not None) + [k for k in keys if keys[k]]
        for value in ("missing", None)]
]


@pytest.mark.parametrize("where, kind, key, value", CONFIG_KEY_CASES,
                         ids=[f"{w}-{k}-{key}-{v}" for w, k, key, v in CONFIG_KEY_CASES])
def test_config_objects_refuse_unknown_and_missing_keys(where, kind, key, value):
    reader, kinds = CONFIG_OBJECTS[where]
    spec = {k: CONFIG_VALUES[k] for k in kinds[kind]}
    if kind is not None:
        spec["kind"] = kind
    if key == "extra":
        spec["extra"] = value
        message = rf"unknown {where} config keys: \['extra'\]"
    else:
        spec[key] = value
        if value == "missing":
            del spec[key]
        message = f"{where} config needs '{key}'"
    with pytest.raises(errors.ConfigError, match=message):
        reader(spec)


# --- scaling ------------------------------------------------------------------

def test_run_scaling_outputs(tmp_path):
    cfg = _scaling_cfg(svg=True)
    res = run_scaling(cfg, out_dir=tmp_path / "run")
    csv_path = tmp_path / "run" / "scaling.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("c,tH_bd_exact,tH_srw_exact,tH_ballwalk_mc,"
                        "tH_ballwalk_stderr,tm_bd_exact,censored_fraction")
    assert len(lines) == 3
    assert (tmp_path / "run" / "scaling.svg").exists()
    assert (tmp_path / "run" / "manifest.json").exists()
    fit_lines = (tmp_path / "run" / "scaling_fit.csv").read_text().splitlines()
    assert fit_lines[0] == "target,slope,slope_stderr,points"
    assert res["slope"] is not None


def test_run_scaling_single_c_leaves_slope_empty(tmp_path):
    cfg = _scaling_cfg(c_list=[0.25])
    run_scaling(cfg, out_dir=tmp_path / "run")
    fit = (tmp_path / "run" / "scaling_fit.csv").read_text().splitlines()[1]
    assert fit == "tH_bd_exact,,,1"


def test_run_scaling_byte_identical_rerun(tmp_path):
    cfg = _scaling_cfg()
    run_scaling(cfg, out_dir=tmp_path / "a")
    run_scaling(cfg, out_dir=tmp_path / "b")
    for name in ("scaling.csv", "scaling_fit.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# values the per-estimate loop gave before the (start, target) estimates of
# one c ran as one walker population
@pytest.mark.parametrize("c,horizon,c_index,seed,expected", [
    (1.0 / 6.0, 900, 0, 0, (133.33203125, 7.158539028704555, 0.0)),
    (1.0 / 8.0, 1750, 1, 0, (254.8828125, 13.31635052270289, 0.0)),
    (1.0 / 8.0, 1750, 1, 3, (252.9453125, 15.041940566854194, 0.00390625)),
])
def test_ballwalk_max_hitting_pinned_bits(c, horizon, c_index, seed, expected):
    exp_tilt = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)
    [got] = harness._ballwalk_max_hitting(exp_tilt, [(c, horizon, c_index)], 1.0 / 12.0, 256, seed)
    assert got == expected


def test_one_population_of_two_c_gives_the_pinned_bits():
    exp_tilt = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)
    # c = 1/8 has the larger horizon and is admitted first; results keep the run order
    got = harness._ballwalk_max_hitting(
        exp_tilt, [(1.0 / 6.0, 900, 0), (1.0 / 8.0, 1750, 1)], 1.0 / 12.0, 256, 0)
    assert got == [(133.33203125, 7.158539028704555, 0.0),
                   (254.8828125, 13.31635052270289, 0.0)]


def test_ballwalk_max_hitting_finds_each_quantile_level_once(monkeypatch):
    exp_tilt = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)
    levels = []
    quantile = m.DensitySpec.quantile

    def counting_quantile(self, q, *args, **kwargs):
        levels.append(q)
        return quantile(self, q, *args, **kwargs)

    monkeypatch.setattr(m.DensitySpec, "quantile", counting_quantile)
    runs = [(1.0 / 4.0, 400, 0), (1.0 / 6.0, 900, 1), (1.0 / 8.0, 1750, 2)]
    harness._ballwalk_max_hitting(exp_tilt, runs, 1.0 / 12.0, 8, 0)
    assert levels == [1.0 / 12.0, 1.0 - 1.0 / 12.0]


# the bench-sized `scaling` run, recorded when each c ran its own population
BENCH_SCALING_CSV = {
    0: (
        'c,tH_bd_exact,tH_srw_exact,tH_ballwalk_mc,tH_ballwalk_stderr,tm_bd_exact,censored_fraction\n'
        '0.16666666666666666,17.158076911064107,40.0,133.33203125,7.158539028704555,9,0.0\n'
        '0.125,34.67575645905154,60.0,254.8828125,13.31635052270289,16,0.0\n'
    ),
    3: (
        'c,tH_bd_exact,tH_srw_exact,tH_ballwalk_mc,tH_ballwalk_stderr,tm_bd_exact,censored_fraction\n'
        '0.16666666666666666,17.158076911064107,40.0,130.6875,7.426326258061685,9,0.0\n'
        '0.125,34.67575645905154,60.0,252.9453125,15.041940566854194,16,0.00390625\n'
    ),
}


@pytest.mark.parametrize("seed", sorted(BENCH_SCALING_CSV))
def test_run_scaling_bench_size_bytes_are_pinned(tmp_path, seed):
    cfg = parse_config({
        "experiment": "scaling",
        "density": {"kind": "exponential-tilt", "tilt": -1.0,
                    "unimodal_alpha": 1.0 / 3.0, "unimodal_ratio": 1.5},
        "c_list": [1.0 / 6.0, 1.0 / 8.0],
        "alpha": 1.0 / 3.0,
        "replicas": 256,
        "seed": seed,
    })
    run_scaling(cfg, out_dir=tmp_path / "run")
    got = (tmp_path / "run" / "scaling.csv").read_bytes()
    assert got == BENCH_SCALING_CSV[seed].encode()


# both c values have a job none of whose walkers arrives; the message, the
# one each c's own population raised, names the first c of the run order
# (by its derived seed) although the other c, with the larger horizon, is
# admitted first
def test_all_censored_names_the_first_c_in_run_order():
    exp_tilt = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)
    first = "no path from 0.0 hit the target within 5 steps (seed 15298820501058499976)"
    with pytest.raises(errors.AllCensored, match=re.escape(first) + "$"):
        harness._ballwalk_max_hitting(
            exp_tilt, [(1.0 / 6.0, 5, 0), (1.0 / 8.0, 7, 1)], 1.0 / 12.0, 16, 0)
    second = "no path from 0.0 hit the target within 7 steps (seed 15948318263327672451)"
    with pytest.raises(errors.AllCensored, match=re.escape(second) + "$"):
        harness._ballwalk_max_hitting(exp_tilt, [(1.0 / 8.0, 7, 1)], 1.0 / 12.0, 16, 0)


def test_run_scaling_all_censored_message(tmp_path):
    cfg = _scaling_cfg(replicas=16, seed=0, horizon=2)
    message = "no path from 0.0 hit the target within 2 steps (seed 15298820501058499976)"
    with pytest.raises(errors.AllCensored, match=re.escape(message) + "$"):
        run_scaling(cfg, out_dir=tmp_path / "run")


def test_run_scaling_prints_one_line_per_c_in_c_list_order(tmp_path, capsys):
    # c = 0.125 runs the longer horizon and is admitted first
    run_scaling(_scaling_cfg(), out_dir=tmp_path / "run", quiet=False)
    assert capsys.readouterr().out.splitlines() == [
        "c=0.25: tH(bd)=6.00 tH(srw)=12.00 tm=2",
        "c=0.125: tH(bd)=30.00 tH(srw)=60.00 tm=12",
    ]


@pytest.mark.parametrize("cs, values", [
    ([1 / 4, 1 / 8, 1 / 16], [6.0, 30.0, 110.0]),
    ([1 / 4, 1 / 8, 1 / 16, 1 / 32], [6.0, 30.0, 110.0, 470.0]),
])
def test_loglog_slope_stderr_is_the_least_squares_standard_error(cs, values):
    from scipy import stats

    slope, slope_stderr = harness._loglog_slope(cs, values)
    fit = stats.linregress([math.log(c) for c in cs], [math.log(v) for v in values])
    assert slope == pytest.approx(fit.slope, rel=1e-12)
    assert slope_stderr == pytest.approx(fit.stderr, rel=1e-12)


def test_run_scaling_rejects_violated_unimodality(tmp_path):
    two_bumps = {
        "kind": "piecewise-linear-table",
        "xs": [0.0, 0.25, 0.5, 0.75, 1.0],
        "ys": [2.0, 0.1, 2.0, 0.1, 2.0],
        "unimodal_ratio": 1.5,
    }
    cfg = _scaling_cfg(density=two_bumps)
    with pytest.raises(errors.ConfigError):
        run_scaling(cfg, out_dir=tmp_path / "run")


def test_manifest_contents(tmp_path):
    cfg = _scaling_cfg()
    run_scaling(cfg, out_dir=tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["experiment"] == "scaling"
    assert manifest["seed"] == 5
    assert manifest["config_sha256"] == config_hash(cfg)
    assert manifest["version"] == m.__version__


# --- certify --------------------------------------------------------------------

def test_run_certify_corpus_chain(tmp_path):
    cfg = parse_config({
        "experiment": "certify",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "alpha": 1.0 / 3.0,
    })
    rep = run_certify(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    assert rep["dominance_verdict"] == "PASS"
    assert rep["note"].startswith("restriction is degenerate")
    on_disk = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert on_disk["bound"]["t"] >= 1
    assert len(on_disk["m_per_state"]) == 32
    profile = (tmp_path / "run" / "tv_profile.csv").read_text().splitlines()
    assert profile[0] == "t,max_tv,min_bound,dominated"
    assert len(profile) == 502


def test_run_certify_skips_the_tv_audit_above_the_state_cap(tmp_path, monkeypatch):
    # bd-expdrift has 32 states; the cap of the certify module's exact routes stays
    monkeypatch.setattr(harness, "EXACT_OVERLAP_STATE_CAP", 31)
    cfg = parse_config({"experiment": "certify",
                        "chain": {"kind": "corpus", "name": "bd-expdrift"}})
    rep = run_certify(cfg, out_dir=tmp_path / "run")
    assert rep["ok"] and rep["dominance_verdict"] == "SKIPPED"
    assert rep["note_profile"] == "exact TV profile limited to 31 states"
    assert rep["bound"]["source"] == "pseudo-minorization"
    assert "max_dominance_violation" not in rep
    assert not (tmp_path / "run" / "tv_profile.csv").exists()
    on_disk = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert on_disk["dominance_verdict"] == "SKIPPED"


EXP_TILT_CFG = {"kind": "exponential-tilt", "tilt": -1.0, "unimodal_alpha": 1.0 / 3.0,
                "unimodal_ratio": 1.5}


@pytest.mark.parametrize("raw, digest, report_digest, manifest_digest", [
    # the certify config of the benchmark's exact workload
    ({"experiment": "certify",
      "chain": {"kind": "birth-death", "density": EXP_TILT_CFG, "c": 1.0 / 128.0},
      "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5}}},
     "df11d3bb2e8c0e19c1d6db849683b9e1a3430438a19a3d107afe0fd0032cd15c",
     "19dc8e92cdc138ee2ceaa478156c7acba8756b54fa67d06b0c6187b8d2d1d040",
     "176a0777e5e6b908b5676e0eea4838852e7b7e460724bb436cc02aa6159eaa70"),
    # scripts/run_certification_demo.py
    ({"experiment": "certify", "chain": {"kind": "corpus", "name": "bd-expdrift"},
      "alpha": 1.0 / 3.0},
     "b0506adc2ae5339660be15627903ad6ad3a975679f1a89d9dce7dbeaf1d425a7",
     "af43594a3cca1535114342cab0126aec9d29e492a78f81977d75049fb467dff1",
     "e6e1ec6b659df43ecbc496ebee79ef72d38e83856ea94ad3bfe0a94220544450"),
], ids=["bench-exact", "demo"])
def test_tv_profile_bytes_pinned(tmp_path, raw, digest, report_digest, manifest_digest):
    # recorded with BLAS at one thread, as the benchmark runs it (a threaded product
    # may round differently): the profile once tv_table advanced P^t - 1 pi (its
    # max_tv moved by at most 3.7e-14 relative), the report before the restriction
    # to every state became the chain itself
    run = _run_at_one_blas_thread(tmp_path, raw)
    assert _sha256(run / "tv_profile.csv") == digest
    assert _sha256(run / "certify_report.json") == report_digest
    assert _sha256(run / "manifest.json") == manifest_digest  # one BLAS thread or two


def _run_at_one_blas_thread(tmp_path, raw, *options):
    """The output directory of ``mcergo <experiment> --config raw`` run in a fresh
    process with BLAS at one thread."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = "import sys; from mcergo.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, raw["experiment"], "--config", str(cfg),
                    "--out", str(tmp_path / "run"), "--quiet", *options],
                   env=_one_blas_thread_env(), timeout=120, check=True)
    return tmp_path / "run"


def _one_blas_thread_env() -> dict:
    src = Path(m.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the next four pins hold the same digests with BLAS at one or two threads
@pytest.mark.parametrize("c, digest, manifest_digest", [
    (1.0 / 64.0, "7337db79797348b61e4b626323eec0fa7a53a3e4fafeab32259e68c3bd208bf6",
     "3685f0ce016156074112e5e91d20c8895e9289fa2814c0d04e56766de7b60794"),
    (1.0 / 128.0, "a04ea1af763303911653f40adcbcf74d5fe6ded6a1ed243d334f2caf5f52a9a8",
     "e71c71cde18cbb8d6e211c797b0b1ed9ebc4b0b0ee36c469a3ef4df0d66dc7a6"),
], ids=["c1/64", "c1/128"])
def test_hitmix_bytes_pinned(tmp_path, c, digest, manifest_digest):
    # the hitmix configs of the benchmark's exact workload
    run = _run_at_one_blas_thread(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "birth-death", "density": EXP_TILT_CFG, "c": c}})
    assert _sha256(run / "hitmix.csv") == digest
    assert _sha256(run / "manifest.json") == manifest_digest


def test_scaling_bytes_pinned(tmp_path):
    # the scaling config of the benchmark's scaling workload, at seed 0
    run = _run_at_one_blas_thread(tmp_path, {
        "experiment": "scaling", "density": EXP_TILT_CFG, "c_list": [1 / 6, 1 / 8],
        "alpha": 1.0 / 3.0, "replicas": 256, "svg": True}, "--seed", "0")
    assert {name: _sha256(run / name) for name in
            ("scaling.csv", "scaling_fit.csv", "scaling.svg", "manifest.json")} == {
        "scaling.csv": "c999e5a30c06829a94aa8223c3683b0d6c216ee8092661ecf15255990cba44b4",
        "scaling_fit.csv": "12c2517c6111a60b684ae6113edb9187a294d224e8bafa9b41e9f576fd1af59d",
        "scaling.svg": "8c3054be40e35d9c2462ee2a732880b0f5a68be509e52545aecc44e69e806f46",
        "manifest.json": "945616146cd6fe5908801a0a0511bab1f704a108967bf55787ec7624b5c8438f",
    }


def test_couple_bytes_pinned(tmp_path):
    # ``mcergo couple`` on the corpus chain at its defaults (256 replicas,
    # horizon 50, seed 0): no script or benchmark workload runs it
    run = _run_at_one_blas_thread(tmp_path, {
        "experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"}})
    assert {name: _sha256(run / name) for name in ("couple.csv", "manifest.json")} == {
        "couple.csv": "93374c5063e43210ca99fd69296b87b7d862799fc7c928d6d63ff49f2024d674",
        "manifest.json": "c82e7e6d37a2df0b3e0944eaae9423d8a1132e1a292e6d099eece05745357cc1",
    }


def test_coupling_survey_bytes_pinned(tmp_path):
    # scripts/run_coupling_survey.py at its defaults (100 000 replicas, seed 17)
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_coupling_survey.py"
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "coupling.csv")],
                   env=_one_blas_thread_env(), timeout=120, check=True, capture_output=True)
    assert _sha256(tmp_path / "coupling.csv") == (
        "30a166d8cb636dfb98de7c41de207193a516e323d25cde3a612df58bb4e205fe")


def _certify_inputs(raw):
    cfg = parse_config(raw)
    k, cert = harness._chain_and_certificate(cfg)
    return k, cert, m.certify_drift_and_hit(k, cert, variant=cfg.restriction)


def _exp_tilt_certify(c):
    return {"experiment": "certify",
            "chain": {"kind": "birth-death", "density": EXP_TILT_CFG, "c": c},
            "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5}}}


@pytest.mark.parametrize("raw, t_star", [
    (_exp_tilt_certify(1.0 / 128.0), 3796),  # the benchmark's exact workload: one window
    (_exp_tilt_certify(1.0 / 32.0), 241),    # three windows: 0..240, 241..481, 482..500
    ({"experiment": "certify", "chain": {"kind": "corpus", "name": "bd-expdrift"},
      "alpha": 1.0 / 3.0}, None),
], ids=["bench-exact", "c1/32", "bd-expdrift"])
def test_dominance_profile_equals_the_per_t_loop_bit_for_bit(raw, t_star):
    k, cert, bound = _certify_inputs(raw)
    assert t_star is None or bound.t == t_star
    ok, worst, rows = harness._dominance_profile(k, cert, bound)
    want_ok, want_worst, want_rows = dominance_profile_loop(k, cert, bound)
    assert ok is want_ok is True
    assert worst.hex() == want_worst.hex()
    assert rows == want_rows


def test_dominance_profile_reports_a_wrong_bound_as_the_loop_does():
    k, cert, bound = _certify_inputs(_exp_tilt_certify(1.0 / 128.0))
    # T = 3796 leaves the bound one window long within t <= 500; with T = 100 and
    # rho = 0.999 it falls a thousandfold every 100 steps, far faster than the chain mixes
    assert bound.t > harness.TV_PROFILE_HORIZON
    wrong = dataclasses.replace(bound, t=100, rho=0.999)
    ok, worst, rows = harness._dominance_profile(k, cert, wrong)
    want_ok, want_worst, want_rows = dominance_profile_loop(k, cert, wrong)
    assert ok is want_ok is False
    assert worst > 1e-9 and worst.hex() == want_worst.hex()
    assert rows == want_rows
    assert {row[3] for row in rows} == {"0", "1"}


def _escape_0_inputs():
    case = escape_corpus()[0]
    return (case.kernel, case.cert,
            m.certify_drift_and_hit(case.kernel, case.cert, variant=case.variant))


@pytest.mark.parametrize("inputs", [
    lambda: _certify_inputs({"experiment": "certify",
                             "chain": {"kind": "corpus", "name": "bd-expdrift"},
                             "alpha": 1.0 / 3.0}),
    lambda: _certify_inputs(_exp_tilt_certify(1.0 / 128.0)),
    _escape_0_inputs,
], ids=["bd-expdrift", "bench-exact", "escape-0"])
def test_tv_table_lies_within_its_stated_distance_of_the_minus_pi_form(inputs, monkeypatch):
    k, cert, bound = inputs()
    horizon = harness.TV_PROFILE_HORIZON
    pi = k.stationary
    residual = float(np.abs(pi @ k.p - pi).sum())
    old = np.array(list(tv_trajectory_minus_pi(k, horizon)))
    new = chain_analysis.tv_table(k, horizon)
    # the table measures TV against pi P^t, and ||pi P^t - pi||_1 <= t ||pi P - pi||_1
    slack = 0.5 * np.arange(horizon + 1) * residual + 64 * np.finfo(float).eps
    assert np.all(np.abs(new - old).max(axis=1) <= slack)
    ok, _, rows = harness._dominance_profile(k, cert, bound)
    monkeypatch.setattr(harness, "tv_table", lambda k, t_max: old.copy())
    old_ok, _, old_rows = harness._dominance_profile(k, cert, bound)
    assert ok is old_ok
    assert [row[3] for row in rows] == [row[3] for row in old_rows]


def test_run_certify_structured_failure(tmp_path):
    cfg = parse_config({
        "experiment": "certify",
        "chain": {"kind": "birth-death",
                  "density": {"kind": "uniform", "unimodal_ratio": 1.0}, "c": 0.125},
        "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5},
                        "r": 0.1, "r_prime": 0.05},
    })
    rep = run_certify(cfg, out_dir=tmp_path / "run")
    assert not rep["ok"]
    assert rep["error"]["type"] == "IncompatibleCertificate"


SOLVE_ONCE_CONFIGS = {
    "scaling": {"experiment": "scaling", "density": UNIFORM_CFG, "c_list": [0.25, 0.125],
                "replicas": 16},
    # C is every state, so the restriction is the chain itself and shares its one law
    "certify": {"experiment": "certify", "chain": {"kind": "corpus", "name": "bd-expdrift"}},
    # t_m, t_L and t_H share the one law: (P + I)/2 has the law of P
    "hitmix": {"experiment": "hitmix", "chain": {"kind": "lazy-srw", "c": 0.125}},
}


@pytest.mark.parametrize("experiment, solves", [("scaling", 4), ("certify", 1), ("hitmix", 1)])
def test_each_kernel_object_is_solved_at_most_once(tmp_path, monkeypatch, experiment, solves):
    solved = []
    solve = chain_analysis.stationary_distribution

    def counted(k):
        solved.append(k)
        return solve(k)

    monkeypatch.setattr(chain_analysis, "stationary_distribution", counted)
    cfg = parse_config(SOLVE_ONCE_CONFIGS[experiment])
    rep = harness.RUNNERS[experiment](cfg, out_dir=tmp_path / "run")
    assert rep.get("ok", True)
    assert len(solved) == solves  # one solve per kernel object: no object is solved twice
    assert len({id(k) for k in solved}) == solves


# --- hitmix ----------------------------------------------------------------------

def test_run_hitmix_flip_chain(tmp_path):
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "alpha": 0.4,
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()
    assert lines[0] == ("alpha,tH,method,worst_set,worst_start,tm,tL,"
                        "bound_12tm,ratio_tL_tH,error")
    row = lines[1].split(",")
    assert row[1] == "1.0" and row[3] == "0" and row[4] == "1"
    # the flip chain is periodic: tm fails structurally, lazy mixes at 1
    assert "tm:NotMixedByHorizon" in row[-1]
    assert rep["tL"] == 1


def test_run_hitmix_identity_chain_error_row(tmp_path):
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[1.0, 0.0], [0.0, 1.0]]},
        "alpha": 0.4,
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert not rep["ok"]
    row = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()[1]
    assert row.split(",")[-1] == "tm:Reducible;tL:Reducible;tH:Reducible"


def test_run_hitmix_reducible_chain_row(tmp_path):
    # two closed classes {0}, {1} and a transient state 2: no unique pi, so
    # all three quantities refuse the chain
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.5, 0.0, 0.5]]},
        "alpha": 0.4,
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["errors"] == ["tm:Reducible", "tL:Reducible", "tH:Reducible"]
    row = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()[1]
    assert row == "0.4,,,,,,,,,tm:Reducible;tL:Reducible;tH:Reducible"


def test_run_hitmix_bound_holds(tmp_path):
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "birth-death",
                  "density": {"kind": "exponential-tilt", "tilt": -1.0,
                              "unimodal_ratio": 1.5},
                  "c": 0.125},
        "alpha": 1.0 / 3.0,
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    assert rep["report"].t_h <= 12.0 * rep["tm"]


def test_run_hitmix_row_pinned_on_exp_tilt(tmp_path):
    # every column but error is filled
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "birth-death",
                  "density": {"kind": "exponential-tilt", "tilt": -1.0,
                              "unimodal_ratio": 1.5},
                  "c": 1.0 / 64.0},
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    lines = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()
    assert lines == [
        "alpha,tH,method,worst_set,worst_start,tm,tL,bound_12tm,ratio_tL_tH,error",
        "0.3333333333333333,1869.8397373801834,interval,"
        + ";".join(str(i) for i in range(16)) + ",63,952,1905,11424.0,1.0188038910056962,",
    ]


# --- couple -------------------------------------------------------------------------

def test_run_couple_corpus(tmp_path):
    cfg = parse_config({
        "experiment": "couple",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "replicas": 500,
        "horizon": 20,
        "seed": 3,
    })
    rep = run_couple(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    lines = (tmp_path / "run" / "couple.csv").read_text().splitlines()
    assert lines[0] == "quantity,mean,stderr,replicas,censored_fraction,seed"
    # the rows before decoupling_exact, as they were written before it existed
    assert lines[1:3] == ["decoupling_frequency,0.0,0.0,500,0.0,3",
                          "escape_bound,0.07928268050967438,,,,3"]
    assert lines[3] == f"decoupling_exact,{rep['exact']!r},,,,3"
    assert len(lines) == 4


def test_run_couple_restricts_by_the_configured_variant(tmp_path, monkeypatch):
    variants, restrict = [], harness.restrict

    def spy(k, subset, variant):
        variants.append(variant)
        return restrict(k, subset, variant)

    monkeypatch.setattr(harness, "restrict", spy)
    couple = dict(PINNED_CONFIG_HASHES[-1][0], replicas=16)
    assert couple["restriction"] == "trace"
    run_couple(parse_config(couple), out_dir=tmp_path / "trace")
    del couple["restriction"]
    run_couple(parse_config(couple), out_dir=tmp_path / "default")
    assert variants == ["trace", "mh-restriction"]


def test_run_couple_refuses_a_certificate_v_shorter_than_the_chain(tmp_path):
    # with lambda and b given no fit reads V; a short V would leave states 2, 3 out of C
    cfg = parse_config({
        "experiment": "couple",
        "chain": {"kind": "lazy-srw", "c": 0.25},
        "certificate": {"v": [0.0, 1.0], "lambda": 0.5, "b": 1.0},
        "replicas": 10,
    })
    with pytest.raises(errors.InvalidParameters):
        run_couple(cfg, out_dir=tmp_path / "run")


def test_run_couple_verdict_is_exact_against_the_bound(tmp_path, monkeypatch):
    cfg = parse_config({
        "experiment": "couple",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "replicas": 200,
        "horizon": 20,
        "seed": 0,
    })
    for exact, ok in [(0.5, False), (0.01, True)]:
        # no walker leaves S here, so the Monte Carlo frequency is 0 either way
        monkeypatch.setattr(harness, "exit_probability", lambda *args: exact)
        rep = run_couple(cfg, out_dir=tmp_path / str(exact))
        assert rep["estimate"].mean == 0.0 and rep["bound"] < 0.5
        assert rep["exact"] == exact and rep["ok"] == ok
        lines = (tmp_path / str(exact) / "couple.csv").read_text().splitlines()
        assert lines[3] == f"decoupling_exact,{exact!r},,,,0"


def test_coupling_survey_csv_is_numeric(tmp_path, monkeypatch):
    out = tmp_path / "coupling.csv"
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_coupling_survey.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--replicas", "20", "--out", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        for column, value in row.items():
            if column not in ("name", "variant"):
                float(value)  # escape_bound was once written as np.float64(...)
        assert float(row["decoupling_exact"]) <= float(row["escape_bound"]) < 1.0


def test_coupling_survey_makes_its_output_directory(tmp_path):
    # the default --out lies in results/, which a fresh checkout lacks
    out = tmp_path / "a" / "b" / "coupling.csv"
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_coupling_survey.py"
    src = Path(m.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(script), "--replicas", "50", "--out", str(out)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 11  # a header and one row per scenario


def test_certification_demo_passes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "certify"
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_certification_demo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    printed = capsys.readouterr().out
    assert json.loads(printed[printed.index("{"):])["verdict"] == "PASS"
    # a header and one row for each t = 0..500
    assert len((out / "tv_profile.csv").read_text().splitlines()) == 502


# --- svg -------------------------------------------------------------------------------

def test_emit_svg_deterministic(tmp_path):
    series = [("a", [(0.1, 10.0), (0.01, 1000.0)]), ("b", [(0.1, 5.0)])]
    emit_svg(series, tmp_path / "one.svg", title="t", xlabel="x", ylabel="y")
    emit_svg(series, tmp_path / "two.svg", title="t", xlabel="x", ylabel="y")
    one = (tmp_path / "one.svg").read_bytes()
    assert one == (tmp_path / "two.svg").read_bytes()
    assert one.startswith(b"<?xml")
    assert b"svg" in one


def test_emit_svg_single_point(tmp_path):
    emit_svg([("a", [(0.5, 2.0)])], tmp_path / "p.svg")
    assert b"circle" in (tmp_path / "p.svg").read_bytes()


def test_emit_svg_empty_rejected(tmp_path):
    with pytest.raises(errors.EmptySeries):
        emit_svg([], tmp_path / "x.svg")
    with pytest.raises(errors.EmptySeries):
        emit_svg([("a", [])], tmp_path / "x.svg")


# --- cli --------------------------------------------------------------------------------

def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def test_cli_scaling_success(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling",
        "density": UNIFORM_CFG,
        "c_list": [0.25],
        "alpha": 1.0 / 3.0,
        "replicas": 16,
        "seed": 2,
    })
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    assert (tmp_path / "out" / "scaling.csv").exists()


def test_cli_scaling_steep_tilt_finishes(tmp_path):
    # psi integrates to about e^22 / 22: the quantiles come from the closed-form CDF
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling",
        "density": {"kind": "exponential-tilt", "tilt": 22.0, "unimodal_ratio": 1e12},
        "c_list": [0.125],
        "replicas": 16,
        "seed": 0,
    })
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0


def test_cli_parser_is_built_once_and_keeps_no_parse_state(tmp_path):
    assert build_parser() is build_parser()
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.5, 0.5], [0.25, 0.75]]},
        "seed": 11,
    })
    for argv, seed in ((["--seed", "3"], 3), ([], 11)):
        out = tmp_path / f"out{seed}"
        assert cli_main(["hitmix", "--config", cfg, "--out", str(out), "--quiet", *argv]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


HITMIX_SRW = {"experiment": "hitmix", "chain": {"kind": "lazy-srw", "c": 0.25}}


@pytest.mark.parametrize("data, message", [
    (b'{"experiment": "hitmix", "bogus": 1}', r"unknown config keys: \['bogus'\]"),
    # json.loads kept the last value of a repeated key, at every level
    (b'{"experiment": "hitmix", "alpha": 0.1, "alpha": 0.2, "chain": {"kind": "lazy-srw", '
     b'"c": 0.25}}', "config repeats the key 'alpha'"),
    (b'{"experiment": "hitmix", "chain": {"kind": "lazy-srw", "c": 0.25, "c": 0.125}}',
     "config repeats the key 'c'"),
    (b'{"experiment": "hitmix", "chain": {"kind": "birth-death", "c": 0.25, "density": '
     b'{"kind": "exponential-tilt", "tilt": 1, "tilt": -1}}}', "config repeats the key 'tilt'"),
    # a file that is not UTF-8 ended in a UnicodeDecodeError traceback
    (b"\xff\xfe" + json.dumps(HITMIX_SRW).encode("utf-16-le"),
     "config is not valid UTF-8 JSON"),
    # so did an integer of more than 4300 digits, through a bare ValueError
    (b'{"experiment": "hitmix", "seed": 1' + b"0" * 4300 + b"}",
     "config is not valid UTF-8 JSON: Exceeds the limit"),
], ids=["unknown-key", "repeated-key", "repeated-chain-key", "repeated-density-key",
        "not-utf-8", "int-too-long"])
def test_cli_config_error_exit_two(tmp_path, capsys, data, message):
    with pytest.raises(errors.ConfigError, match=f"^{message}"):
        parse_config(data)
    cfg = _write_bytes(tmp_path / "cfg.json", data)
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert re.match(f"config error: {message}", err) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    missing = str(tmp_path / "nope.json")
    assert cli_main(["hitmix", "--config", missing]) == 2


def test_cli_subcommand_mismatch_exit_two(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling", "density": UNIFORM_CFG,
        "c_list": [0.25], "alpha": 1.0 / 3.0,
    })
    assert cli_main(["certify", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["scaling", "certify", "hitmix", "couple"])
def test_cli_refuses_a_config_of_another_experiment_before_making_out(tmp_path, capsys,
                                                                      command):
    payload = _hitmix_payload(BD_CHAIN) if command == "scaling" else _scaling_payload()
    cfg = _write_cfg(tmp_path, payload)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config is for {payload['experiment']!r}, not {command}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("restriction", ["foo", "gibbs-restriction"])
def test_cli_unknown_restriction_exit_two(tmp_path, restriction):
    # no config can carry the probability table a Gibbs restriction needs
    cfg = _write_cfg(tmp_path, {
        "experiment": "certify",
        "chain": {"kind": "birth-death", "density": {"kind": "exponential-tilt", "tilt": -1.0},
                  "c": 0.125},
        "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": 0.5}},
        "restriction": restriction,
    })
    assert cli_main(["certify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_cli_analysis_failure_exit_one(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[1.0, 0.0], [0.0, 1.0]]},
        "alpha": 0.4,
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1


BD_CHAIN = {"kind": "birth-death", "density": {"kind": "exponential-tilt", "tilt": -1.0},
            "c": 0.125}
EXP_V = {"kind": "exp-of-coordinate", "kappa": 0.5}


def _scaling_payload(**overrides):
    return {"experiment": "scaling", "density": UNIFORM_CFG, "c_list": [0.25],
            "replicas": 16, "seed": 2, **overrides}


def _certify_payload(**certificate):
    return {"experiment": "certify", "chain": BD_CHAIN,
            "certificate": {"v": EXP_V, **certificate}}


def _hitmix_payload(chain):
    return {"experiment": "hitmix", "chain": chain, "alpha": 0.4}


def _write_text(path, text):
    path.write_text(text)
    return str(path)


# C' = {0, 1, 2} for r' = 5 holds state 0, which lies outside C = {1, 2} for r = 2.5
COUPLE_START_OUTSIDE_C = {
    "experiment": "couple", "chain": {"kind": "lazy-srw", "c": 0.25},
    "certificate": {"v": [3, 1, 2, 8], "lambda": 0.9, "r": 2.5, "r_prime": 5},
    "replicas": 10}


def _step_chains(c):
    return [{"kind": "birth-death", "density": UNIFORM_CFG, "c": c},
            {"kind": "lazy-srw", "c": c}]


COUPLE_CORPUS = {"experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"},
                 "replicas": 4, "horizon": 5}

# (experiment, a config of it, a key it does not read, a value other than the key's default):
# each used to be taken silently, and changed the manifest hash of an otherwise equal run
UNREAD_KEYS = [
    ("scaling", _scaling_payload(), "chain", BD_CHAIN),
    ("scaling", _scaling_payload(), "restriction", "trace"),
    ("certify", _certify_payload(), "alpha", 0.25),
    ("certify", _certify_payload(), "replicas", 8),
    ("certify", _certify_payload(), "horizon", 40),
    ("hitmix", _hitmix_payload(BD_CHAIN), "svg", True),
    ("hitmix", _hitmix_payload(BD_CHAIN), "certificate", {"v": EXP_V}),
    ("couple", COUPLE_CORPUS, "c_list", [0.5]),
    ("couple", COUPLE_CORPUS, "density", UNIFORM_CFG),
    ("couple", COUPLE_CORPUS, "alpha", 0.4),
]

# case -> (exit code, payload built in a scratch directory)
MALFORMED_INPUTS = {
    **{f"{experiment}-reads-no-{key}": (2, lambda d, p=payload, key=key, v=value: {**p, key: v})
       for experiment, payload, key, value in UNREAD_KEYS},
    # a required key that is empty
    "scaling-c_list-empty": (2, lambda d: _scaling_payload(c_list=[])),
    "hitmix-chain-null": (2, lambda d: _hitmix_payload(None)),
    # c = 0 and NaN used to raise ZeroDivisionError and ValueError out of main,
    # and c = 1 exited 1 through GridMismatch
    **{f"{chain['kind']}-c-{c!r}": (2, lambda d, chain=chain: _hitmix_payload(chain))
       for c in (0, float("nan"), float("inf"), -0.25, 1, "x") for chain in _step_chains(c)},
    # used to raise ValueError out of main
    "couple-start-outside-C": (1, lambda d: COUPLE_START_OUTSIDE_C),
    "couple-small-set-empty": (1, lambda d: dict(COUPLE_START_OUTSIDE_C, certificate=dict(
        COUPLE_START_OUTSIDE_C["certificate"], r=-1))),
    "c_list-zero": (2, lambda d: _scaling_payload(c_list=[0])),
    # two steps on one grid used to run both rows and write slope nan (a zero
    # spread) or -4975559441.6 (a spread of 1e-13), exit 0
    "c_list-repeats-a-step": (2, lambda d: _scaling_payload(c_list=[0.25, 0.25])),
    "c_list-repeats-a-grid-size": (2, lambda d: _scaling_payload(c_list=[0.25, 0.2500000000001])),
    "c_list-not-a-list": (2, lambda d: _scaling_payload(c_list=0.25)),
    # a null c_list or alpha, or a string alpha, used to be judged by a TypeError
    # that named no key
    "c_list-null": (2, lambda d: _scaling_payload(c_list=None)),
    "alpha-null": (2, lambda d: dict(_hitmix_payload(BD_CHAIN), alpha=None)),
    "alpha-a-string": (2, lambda d: dict(_hitmix_payload(BD_CHAIN), alpha="0.4")),
    "replicas-fractional": (2, lambda d: _scaling_payload(replicas=2.5)),
    "seed-fractional": (2, lambda d: _scaling_payload(seed=1.5)),
    "seed-boolean": (2, lambda d: _scaling_payload(seed=True)),
    "seed-too-large": (2, lambda d: {  # the Monte Carlo streams key on one uint64
        "experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "replicas": 4, "horizon": 5, "seed": 2**64}),
    "horizon-negative": (2, lambda d: _scaling_payload(horizon=-5)),
    "horizon-zero": (2, lambda d: _scaling_payload(horizon=0)),
    # the walker loop holds horizons as int64: 2**63 ended in an OverflowError traceback
    "horizon-beyond-int64": (2, lambda d: _scaling_payload(horizon=2**63)),
    "svg-not-boolean": (2, lambda d: _scaling_payload(svg="no")),
    "output_path-not-a-path": (2, lambda d: _scaling_payload(output_path=5)),
    "dtable_path-not-a-path": (2, lambda d: dict(_certify_payload(), dtable_path=0)),
    "c-not-a-number": (2, lambda d: _hitmix_payload({"kind": "lazy-srw", "c": "an eighth"})),
    "tilt-not-a-number": (2, lambda d: _scaling_payload(
        density={"kind": "exponential-tilt", "tilt": "steep"})),
    "density-a-list": (2, lambda d: _hitmix_payload(
        {"kind": "birth-death", "density": [1], "c": 0.5})),
    "density-a-string": (2, lambda d: _hitmix_payload(
        {"kind": "birth-death", "density": "uniform", "c": 0.5})),
    "density-xs-a-string": (2, lambda d: _hitmix_payload({"kind": "birth-death", "density": {
        "kind": "piecewise-linear-table", "xs": "01", "ys": [1.0, 1.0]}, "c": 0.5})),
    "tilt-overflows": (2, lambda d: _scaling_payload(
        density={"kind": "exponential-tilt", "tilt": 800.0})),
    "density-narrow-peak": (2, lambda d: _scaling_payload(density={
        "kind": "piecewise-linear-table", "xs": [0.0, 0.5, 0.50001, 0.50002, 1.0],
        "ys": [1.0, 1.0, 10.0, 1.0, 1.0], "unimodal_ratio": 2.0})),
    "kappa-not-a-number": (2, lambda d: _certify_payload(
        v={"kind": "exp-of-coordinate", "kappa": "half"})),
    "v-unknown-key": (2, lambda d: _certify_payload(
        v={"kind": "exp-of-coordinate", "kapa": 0.5})),
    "lambda-not-a-number": (2, lambda d: _certify_payload(**{"lambda": "x", "b": 0.1})),
    "radius_margin-not-a-key": (2, lambda d: _certify_payload(radius_margin=1.1)),
    "lambda-grid-empty": (2, lambda d: _certify_payload(fit_lambda_grid=[])),
    "b-without-lambda": (2, lambda d: _certify_payload(b=0.1)),
    "v-wrong-length": (1, lambda d: _certify_payload(v=[1.0, 2.0])),
    "lambda-one-radii-defaulted": (1, lambda d: _certify_payload(**{"lambda": 1.0, "b": 0.1})),
    "v-wrong-length-lambda-and-b-given": (1, lambda d: _certify_payload(
        v=[1.0, 2.0], **{"lambda": 0.5, "b": 1.0})),
    "rows-ragged": (1, lambda d: _hitmix_payload(
        {"kind": "matrix", "rows": [[0.5, 0.5], [1.0]]})),
    "rows-not-numbers": (1, lambda d: _hitmix_payload(
        {"kind": "matrix", "rows": [["a", "b"], ["c", "d"]]})),
    # an integer path used to be opened as a file descriptor, and a list raised TypeError
    "kernel-csv-path-a-list": (2, lambda d: _hitmix_payload(
        {"kind": "kernel-csv", "path": [_write_text(d / "k.csv", "\n0.5,0.5\n0.5,0.5\n")]})),
    "kernel-csv-path-a-number": (2, lambda d: _hitmix_payload(
        {"kind": "kernel-csv", "path": 10**6})),
    "kernel-csv-cell-not-a-number": (1, lambda d: _hitmix_payload(
        {"kind": "kernel-csv", "path": _write_text(d / "k.csv", "\n0.5,0.5\n0.5,half\n")})),
    # a file that is not UTF-8 used to end in a UnicodeDecodeError traceback
    "kernel-csv-not-utf-8": (1, lambda d: _hitmix_payload(
        {"kind": "kernel-csv", "path": _write_bytes(d / "k.csv", b"\xff\xfe\n0.5,0.5\n")})),
    "dtable-not-json": (2, lambda d: dict(
        _certify_payload(), dtable_path=_write_text(d / "d.json", "alpha = 1/3\n"))),
    "couple-inner-set-empty": (1, lambda d: {  # V >= 1 > r'
        "experiment": "couple", "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "certificate": {"v": EXP_V, "r_prime": 0.5}}),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_malformed_input_is_a_structured_error(tmp_path, capsys, case):
    code, build = MALFORMED_INPUTS[case]
    payload = build(tmp_path)
    cfg = _write_cfg(tmp_path, payload)
    assert cli_main([payload["experiment"], "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "analysis failure:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("case, key", [
    ("c_list-null", "c_list"), ("alpha-null", "alpha"), ("alpha-a-string", "alpha")])
def test_config_error_names_the_key(tmp_path, case, key):
    with pytest.raises(errors.ConfigError, match=f"^{key} must be"):
        parse_config(MALFORMED_INPUTS[case][1](tmp_path))


@pytest.mark.parametrize("c_list", [None, 5, 0.25], ids=["None", "5", "0.25"])
def test_a_c_list_that_is_not_a_list_is_refused_when_built_in_python(c_list):
    # None and 5 used to end in a bare TypeError: only parse_config judged the type
    with pytest.raises(errors.ConfigError, match="^c_list must be a list of step sizes"):
        harness.ExperimentConfig("scaling", density=UNIFORM_CFG, c_list=c_list)


@pytest.mark.parametrize("c_list, message", [
    ([0.25, 0.25], "c_list steps 0.25 and 0.25 have the same grid size 4"),
    ([0.5, 0.25, 0.2500000000001],
     "c_list steps 0.25 and 0.2500000000001 have the same grid size 4"),
])
def test_c_list_steps_on_one_grid_are_refused_naming_both(c_list, message):
    with pytest.raises(errors.ConfigError, match=f"^{re.escape(message)}"):
        parse_config(_scaling_payload(c_list=c_list))


@pytest.mark.parametrize("experiment, payload, key, value", UNREAD_KEYS,
                         ids=[f"{e}-{k}" for e, _, k, _ in UNREAD_KEYS])
def test_unread_key_is_refused_naming_the_experiment_and_key(experiment, payload, key, value):
    with pytest.raises(errors.ConfigError, match=f"^{experiment} does not read '{key}'"):
        parse_config({**payload, key: value})
    # at its default the key is taken, and the config (so its hash) is the bare one
    default = next(f.default for f in fields(harness.ExperimentConfig) if f.name == key)
    cfg = parse_config(payload)
    assert parse_config({**payload, key: default}) == cfg
    # a config built in Python, or changed by dataclasses.replace, is judged the same way
    with pytest.raises(errors.ConfigError, match=f"^{experiment} does not read '{key}'"):
        dataclasses.replace(cfg, **{key: value})


@pytest.mark.parametrize("case, message", [
    ("scaling-c_list-empty", "scaling needs 'c_list', got ()"),
    ("hitmix-chain-null", "hitmix needs 'chain', got None"),
])
def test_required_key_error_names_the_experiment_and_key(tmp_path, case, message):
    with pytest.raises(errors.ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(MALFORMED_INPUTS[case][1](tmp_path))


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_refusal_leaves_no_output_directory(tmp_path, case):
    # hitmix judged its chain, and couple its certificate, only after making --out
    code, build = MALFORMED_INPUTS[case]
    payload = build(tmp_path)
    cfg = _write_cfg(tmp_path, payload)
    assert cli_main([payload["experiment"], "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == code
    assert not (tmp_path / "o").exists()

@pytest.mark.parametrize("case, message", [
    ("couple-start-outside-C", r"start state 0, the first of C' = \{V <= r'\}, lies outside C"),
    ("couple-small-set-empty", "sublevel sets are empty"),
])
def test_run_couple_refuses_a_certificate_before_any_walker_runs(tmp_path, monkeypatch, case,
                                                                  message):
    monkeypatch.setattr(montecarlo, "_first_hits", lambda *args: pytest.fail("walked"))
    cfg = parse_config(MALFORMED_INPUTS[case][1](tmp_path))
    with pytest.raises(errors.IncompatibleCertificate, match=message):
        run_couple(cfg, out_dir=tmp_path / "run")


def test_run_couple_takes_radii_r_prime_above_r_when_the_start_lies_in_C(tmp_path):
    # no compatibility check: C' = C = {0, 1, 2} with r' = 50 > r = 20 still runs
    cfg = parse_config({
        "experiment": "couple",
        "chain": {"kind": "matrix", "rows": [[0.9, 0.1, 0, 0], [0.9, 0, 0.1, 0],
                                             [0.9, 0, 0, 0.1], [0.9, 0, 0, 0.1]]},
        "certificate": {"v": [1, 2, 3, 100], "lambda": 0.5, "r": 20, "r_prime": 50},
        "restriction": "trace", "replicas": 10})
    rep = run_couple(cfg, out_dir=tmp_path / "run")
    assert rep["ok"] and rep["estimate"].replicas == 10


def test_cli_couple_success(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "couple",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "replicas": 100,
        "horizon": 20,
        "seed": 3,
    })
    assert cli_main(["couple", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    lines = (tmp_path / "o" / "couple.csv").read_text().splitlines()
    assert lines[0] == "quantity,mean,stderr,replicas,censored_fraction,seed"
    assert len(lines) == 4


def test_cli_hitmix_broken_stationary_solve_exit_one(tmp_path, monkeypatch, capsys):
    solves = []

    def singular(a, b):
        solves.append(a)
        raise chain_analysis.np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(chain_analysis.np.linalg, "solve", singular)
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.5, 0.5], [0.25, 0.75]]},
        "alpha": 0.4,
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    # each quantity reads the law and records the failed solve, which the kernel keeps
    row = (tmp_path / "o" / "hitmix.csv").read_text().splitlines()[1].split(",")
    assert row[-1] == "tm:ResidualTooLarge;tL:ResidualTooLarge;tH:ResidualTooLarge"
    assert len(solves) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_cli_hitmix_dense_chain_gets_brute_t_h(tmp_path):
    # not tridiagonal, so the window scan would only be a lower bound: every set is tried
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.5, 0.25, 0.25]] * 3,
                  "states": [0.0, 0.5, 1.0]},
        "alpha": 0.4,
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    row = (tmp_path / "o" / "hitmix.csv").read_text().splitlines()[1]
    assert row == "0.4,2.0,brute,0,1,1,2,12.0,1.0,"


def test_cli_hitmix_reports_the_mixing_memory_cap(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "birth-death", "c": 1.0 / 1024.0, "density": {
            "kind": "exponential-tilt", "tilt": -1.0, "unimodal_ratio": 1.5}},
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    row = (tmp_path / "o" / "hitmix.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) > 0.0  # tH still comes from the closed form
    assert row[-1] == "tm:TooManyStates;tL:TooManyStates"


def test_cli_seed_override_changes_manifest(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling", "density": UNIFORM_CFG,
        "c_list": [0.25], "alpha": 1.0 / 3.0, "replicas": 16, "seed": 2,
    })
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "9", "--quiet"]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    # the override is checked like a config seed: the Monte Carlo streams key on one uint64
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--seed", str(2**64), "--quiet"]) == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # nor numpy.random: the Monte Carlo streams bind numpy's C fill when first built
    code = ("import sys, mcergo, mcergo.cli; "
            "print(sorted(m for m in sys.modules if m in ('scipy', 'numpy.random') "
            "or m.startswith('scipy.')))")
    src = Path(m.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
