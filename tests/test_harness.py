import json

import pytest

import mcergo as m
from mcergo import certify, chain_analysis, errors, harness
from mcergo.cli import main as cli_main
from mcergo.harness import (
    chain_from_config,
    certificate_from_config,
    config_hash,
    parse_config,
    run_certify,
    run_couple,
    run_hitmix,
    run_scaling,
    serialize_config,
)
from mcergo.svg import emit_svg

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

def test_config_round_trip():
    cfg = _scaling_cfg(svg=True, horizon=777)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(errors.ConfigError):
        parse_config({"experiment": "scaling", "denssity": {}})


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        parse_config({"experiment": "warp"})
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(c_list=[0.3])
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(alpha=0.7)
    with pytest.raises(errors.ConfigError):
        _scaling_cfg(replicas=0)
    # 'couple' is part of the schema even though the CLI has no subcommand
    cfg = parse_config({"experiment": "couple",
                        "chain": {"kind": "corpus", "name": "bd-expdrift"}})
    assert cfg.experiment == "couple"


def test_config_rejects_monte_carlo_strategy():
    with pytest.raises(errors.ConfigError):
        parse_config({"experiment": "hitmix", "strategy": "monte-carlo",
                      "chain": {"kind": "lazy-srw", "c": 0.25}})


def test_chain_from_config_variants():
    k, cert, variant = chain_from_config({"kind": "matrix", "rows": [[0.5, 0.5], [0.5, 0.5]]})
    assert k.n == 2 and cert is None and variant is None
    k2, _, _ = chain_from_config({"kind": "lazy-srw", "c": 0.25})
    assert k2.n == 4
    k3, cert3, variant3 = chain_from_config({"kind": "corpus", "name": "bd-expdrift"})
    assert k3.n == 32 and cert3 is not None and variant3 == "mh-restriction"
    with pytest.raises(errors.ConfigError):
        chain_from_config({"kind": "corpus", "name": "unknown"})
    with pytest.raises(errors.ConfigError):
        chain_from_config({"kind": "matrix"})


def test_certificate_from_config_fit_and_radii():
    k, _, _ = chain_from_config({"kind": "birth-death", "density": {
        "kind": "exponential-tilt", "tilt": -1.0, "unimodal_ratio": 1.5}, "c": 0.125})
    cert = certificate_from_config({"v": {"kind": "exp-of-coordinate", "kappa": 0.5}}, k)
    assert m.verify_drift(k, cert.v, cert.lam, cert.b).passed
    assert m.compatibility_check(cert, "theorem2").passed


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
    got = harness._ballwalk_max_hitting(exp_tilt, c, 1.0 / 12.0, 256, horizon, seed, c_index)
    assert got == expected


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


def test_run_certify_solves_the_base_chain_once(tmp_path, monkeypatch):
    solved = []
    solve = chain_analysis.stationary_distribution

    def counted(k):
        solved.append(k)
        return solve(k)

    for module in (chain_analysis, certify, harness):
        monkeypatch.setattr(module, "stationary_distribution", counted)
    cfg = parse_config({
        "experiment": "certify",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
        "alpha": 1.0 / 3.0,
    })
    rep = run_certify(cfg, out_dir=tmp_path / "run")
    assert rep["dominance_verdict"] == "PASS"
    # the restriction is another kernel object; mixing_time solves its own law
    assert sum(k is solved[0] for k in solved) == 1


# --- hitmix ----------------------------------------------------------------------

def test_run_hitmix_flip_chain(tmp_path):
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "alpha": 0.4,
        "strategy": "brute",
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
        "strategy": "brute",
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert not rep["ok"]
    row = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()[1]
    assert "NotMixedByHorizon" in row


def test_run_hitmix_reducible_chain_row(tmp_path):
    # two closed classes {0}, {1} and a transient state 2: mixing is measured
    # against the classes' mixture and never mixes; tH refuses the chain
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.5, 0.0, 0.5]]},
        "alpha": 0.4,
        "strategy": "brute",
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["errors"] == ["tm:NotMixedByHorizon", "tL:NotMixedByHorizon", "tH:Reducible"]
    row = (tmp_path / "run" / "hitmix.csv").read_text().splitlines()[1]
    assert row == "0.4,,,,,,,,,tm:NotMixedByHorizon;tL:NotMixedByHorizon;tH:Reducible"


def test_run_hitmix_solves_stationary_once(tmp_path, monkeypatch):
    calls = []
    solve = chain_analysis.stationary_distribution

    def counted(k):
        calls.append(k.n)
        return solve(k)

    monkeypatch.setattr(chain_analysis, "stationary_distribution", counted)
    monkeypatch.setattr(harness, "stationary_distribution", counted)
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "lazy-srw", "c": 0.125},
        "alpha": 1.0 / 3.0,
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    assert calls == [8]


def test_run_hitmix_bound_holds(tmp_path):
    cfg = parse_config({
        "experiment": "hitmix",
        "chain": {"kind": "birth-death",
                  "density": {"kind": "exponential-tilt", "tilt": -1.0,
                              "unimodal_ratio": 1.5},
                  "c": 0.125},
        "alpha": 1.0 / 3.0,
        "strategy": "interval",
    })
    rep = run_hitmix(cfg, out_dir=tmp_path / "run")
    assert rep["ok"]
    assert rep["report"].t_h <= 12.0 * rep["tm"]


# --- couple (library-level runner) ---------------------------------------------------

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


def test_cli_config_error_exit_two(tmp_path):
    cfg = _write_cfg(tmp_path, {"experiment": "scaling", "bogus": 1})
    assert cli_main(["scaling", "--config", cfg]) == 2
    missing = str(tmp_path / "nope.json")
    assert cli_main(["scaling", "--config", missing]) == 2


def test_cli_subcommand_mismatch_exit_two(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling", "density": UNIFORM_CFG,
        "c_list": [0.25], "alpha": 1.0 / 3.0,
    })
    assert cli_main(["certify", "--config", cfg]) == 2


def test_cli_analysis_failure_exit_one(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[1.0, 0.0], [0.0, 1.0]]},
        "alpha": 0.4,
        "strategy": "brute",
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1


def test_cli_hitmix_broken_stationary_solve_exit_one(tmp_path, monkeypatch, capsys):
    def singular(a, b):
        raise chain_analysis.scipy.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(chain_analysis.scipy.linalg, "solve", singular)
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.5, 0.5], [0.25, 0.75]]},
        "alpha": 0.4,
        "strategy": "brute",
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    assert "analysis failure: ResidualTooLarge" in capsys.readouterr().err


def test_cli_hitmix_interval_refuses_dense_chain(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "hitmix",
        "chain": {"kind": "matrix", "rows": [[0.5, 0.25, 0.25]] * 3,
                  "states": [0.0, 0.5, 1.0]},
        "alpha": 0.4,
        "strategy": "interval",
    })
    assert cli_main(["hitmix", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    row = (tmp_path / "o" / "hitmix.csv").read_text().splitlines()[1].split(",")
    assert row[1] == ""  # no tH: the window scan would only be a lower bound
    assert row[-1] == "tH:NotBirthDeath"


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


def test_cli_scaling_honours_brute_strategy(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling",
        "density": UNIFORM_CFG,
        "c_list": [1.0 / 16.0],
        "alpha": 1.0 / 3.0,
        "replicas": 16,
        "strategy": "brute",
    })
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
    assert "TooManyStates" in capsys.readouterr().err


def test_cli_seed_override_changes_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "scaling", "density": UNIFORM_CFG,
        "c_list": [0.25], "alpha": 1.0 / 3.0, "replicas": 16, "seed": 2,
    })
    assert cli_main(["scaling", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "9", "--quiet"]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 9
