"""The three benchmark workloads and their correctness gate.

Each workload is a closed loop: one caller, one operation at a time, the
way a batch user drives mcergo.  ``build`` does the untimed set-up
(configs, corpus); ``Workload.run_pass`` runs one timed pass and returns,
per operation, a flat record of output fields (strings as written by the
program) or the exception it raised.

Importing this module imports numpy and mcergo, so the caller sets the
BLAS thread count and ``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import traceback

import mcergo
from mcergo import cli
from mcergo.corpus import escape_corpus

EXP_TILT = {
    "kind": "exponential-tilt",
    "tilt": -1.0,
    "unimodal_alpha": 1.0 / 3.0,
    "unimodal_ratio": 1.5,
}

# Sizes are chosen so one pass takes a few seconds on a 2-core machine and a
# run holds several passes; README.md compares them with the full-size scripts.
SCALING_C_LIST = [1 / 6, 1 / 8]
SCALING_REPLICAS = 256
EXACT_C_LIST = [1 / 64, 1 / 128]
CERTIFY_KAPPA = 0.5
COUPLE_REPLICAS = 25_000

MAX_CENSORED = 0.01  # harness.MAX_ACCEPTED_CENSORING
REL_TOL = 1e-9

# How a field is compared with the stored reference:
#   exact: string equality at every seed (seed-independent outputs)
#   rel:   relative difference <= REL_TOL at every seed (exact floating point)
#   mc:    string equality, only at a seed with a stored reference
FIELD_KIND = {
    "exit_code": "exact",
    # scaling.csv / scaling_fit.csv
    "c": "exact",
    "tH_bd_exact": "rel",
    "tH_srw_exact": "rel",
    "tH_ballwalk_mc": "mc",
    "tH_ballwalk_stderr": "mc",
    "tm_bd_exact": "exact",
    "censored_fraction": "mc",
    "slope": "rel",
    "slope_stderr": "rel",
    # hitmix.csv
    "alpha": "exact",
    "tH": "rel",
    "method": "exact",
    "worst_set": "exact",
    "worst_start": "exact",
    "tm": "exact",
    "tL": "exact",
    "bound_12tm": "rel",
    "ratio_tL_tH": "rel",
    "error": "exact",
    # certify_report.json
    "T": "exact",
    "eps": "rel",
    "rho": "rel",
    "p": "rel",
    "source": "exact",
    "t_route": "exact",
    "dominance_verdict": "exact",
    # coupling survey
    "n": "exact",
    "small_set_size": "exact",
    "horizon": "exact",
    "frequency": "mc",
    "stderr": "mc",
    "escape_bound": "rel",
}


def field_kind(key: str) -> str:
    """Kind of a record key; ``tH_bd_exact[1]`` is kind of ``tH_bd_exact``."""
    return FIELD_KIND.get(key.split("[", 1)[0], "exact")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Workload:
    """One set of inputs; ``run_pass`` returns {op name: record or exception}."""

    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.config_dir = os.path.join(out_dir, "configs")
        self.result_dir = os.path.join(out_dir, "results")
        os.makedirs(self.config_dir, exist_ok=True)

    def run_pass(self, op_timer=contextlib.nullcontext) -> dict:
        """Run every operation once, each inside an ``op_timer()`` context."""
        _fresh_dir(self.result_dir)
        results = {}
        for op, fn in self.operations():
            with op_timer():
                try:
                    results[op] = fn()
                except Exception as exc:  # a failed operation is counted, not fatal
                    traceback.print_exc()
                    results[op] = exc
        return results

    def operations(self):
        raise NotImplementedError

    def invariants(self, op: str, record: dict) -> list[str]:
        """Checks that hold at every seed; returns violations."""
        return [] if record.get("exit_code", "0") == "0" else [f"exit code {record['exit_code']}"]

    def _cli(self, command, config_name, out_name, *extra):
        out = os.path.join(self.result_dir, out_name)
        rc = cli.main([command, "--config", os.path.join(self.config_dir, config_name),
                       "--out", out, "--quiet", *extra])
        return out, {"exit_code": str(rc)}


class Scaling(Workload):
    """``mcergo scaling`` on the exp-tilt density, in-process through the CLI."""

    name = "scaling"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        _write_json(os.path.join(self.config_dir, "scaling.json"), {
            "experiment": "scaling",
            "density": EXP_TILT,
            "c_list": SCALING_C_LIST,
            "alpha": 1.0 / 3.0,
            "replicas": SCALING_REPLICAS,
            "svg": True,
        })

    def operations(self):
        return [("scaling", self._scaling)]

    def _scaling(self):
        out, record = self._cli("scaling", "scaling.json", "scaling", "--seed", str(self.seed))
        if record["exit_code"] != "0":
            return record
        for i, row in enumerate(_read_csv(os.path.join(out, "scaling.csv"))):
            record.update({f"{col}[{i}]": value for col, value in row.items()})
        fit = _read_csv(os.path.join(out, "scaling_fit.csv"))[0]
        record["slope"] = fit["slope"]
        record["slope_stderr"] = fit["slope_stderr"]
        svg = os.path.join(out, "scaling.svg")
        record["svg"] = "written" if os.path.isfile(svg) and os.path.getsize(svg) else "missing"
        return record

    def invariants(self, op, record):
        errors = super().invariants(op, record)
        for key, value in record.items():
            if key.startswith("censored_fraction[") and not float(value) <= MAX_CENSORED:
                errors.append(f"{key} = {value} > {MAX_CENSORED}")
        return errors


class Exact(Workload):
    """``mcergo hitmix`` on two birth-death chains, ``mcergo certify`` on the larger."""

    name = "exact"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        for c in EXACT_C_LIST:
            _write_json(os.path.join(self.config_dir, f"hitmix_{round(1 / c)}.json"), {
                "experiment": "hitmix",
                "chain": {"kind": "birth-death", "density": EXP_TILT, "c": c},
            })
        _write_json(os.path.join(self.config_dir, "certify.json"), {
            "experiment": "certify",
            "chain": {"kind": "birth-death", "density": EXP_TILT, "c": EXACT_C_LIST[-1]},
            "certificate": {"v": {"kind": "exp-of-coordinate", "kappa": CERTIFY_KAPPA}},
        })

    def operations(self):
        ops = [(f"hitmix_{round(1 / c)}", lambda n=round(1 / c): self._hitmix(n))
               for c in EXACT_C_LIST]
        ops.append(("certify", self._certify))
        return ops

    def _hitmix(self, n):
        out, record = self._cli("hitmix", f"hitmix_{n}.json", f"hitmix_{n}")
        if record["exit_code"] == "0":
            record.update(_read_csv(os.path.join(out, "hitmix.csv"))[0])
        return record

    def _certify(self):
        out, record = self._cli("certify", "certify.json", "certify")
        if record["exit_code"] != "0":
            return record
        with open(os.path.join(out, "certify_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        bound = report["bound"]
        record.update({
            "T": str(bound["t"]),
            "eps": repr(float(bound["eps"])),
            "rho": repr(float(bound["rho"])),
            "p": repr(float(bound["p"])),
            "source": bound["source"],
            "t_route": bound["t_route"],
            "dominance_verdict": report["dominance_verdict"],
        })
        return record

    def invariants(self, op, record):
        errors = super().invariants(op, record)
        if record.get("error"):
            errors.append(f"hitmix error column {record['error']!r}")
        if op == "certify" and record.get("dominance_verdict") != "PASS":
            errors.append(f"dominance verdict {record.get('dominance_verdict')!r}")
        return errors


class Couple(Workload):
    """The coupling-survey flow through public calls, one operation per scenario."""

    name = "couple"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.cases = escape_corpus()

    def operations(self):
        return [(case.name, lambda case=case: self._scenario(case)) for case in self.cases]

    def _scenario(self, case):
        cert = case.cert
        # called through the package so a traced run sees the wrapped entry points
        dom = mcergo.restrict(case.kernel, cert.small_set, case.variant)
        est = mcergo.coupled_escape_estimate(case.kernel, dom, case.x0, case.horizon,
                                             replicas=COUPLE_REPLICAS, seed=self.seed)
        bound = mcergo.escape_bound(cert.lam, cert.b, cert.r, cert.r_prime)
        return {
            "n": str(case.kernel.n),
            "small_set_size": str(cert.small_set.size),
            "horizon": str(case.horizon),
            "frequency": repr(est.mean),
            "stderr": repr(est.stderr),
            "censored_fraction": repr(est.censored_fraction),
            "escape_bound": repr(float(bound)),
        }

    def invariants(self, op, record):
        errors = super().invariants(op, record)
        freq, stderr, bound = (float(record[k]) for k in ("frequency", "stderr", "escape_bound"))
        if not freq <= bound + 3.0 * stderr:
            errors.append(f"decoupling frequency {freq} > bound {bound} + 3 * {stderr}")
        if not float(record["censored_fraction"]) <= MAX_CENSORED:
            errors.append(f"censored fraction {record['censored_fraction']} > {MAX_CENSORED}")
        return errors


WORKLOADS = {w.name: w for w in (Scaling, Exact, Couple)}


def build(name: str, seed: int, out_dir: str) -> Workload:
    return WORKLOADS[name](seed, out_dir)


def _same(kind, got, want):
    if got == want:
        return True
    if kind != "rel":
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(a) and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(workload: Workload, op: str, result, want: dict | None, has_mc: bool,
          first) -> list[str]:
    """Every reason the operation's result is wrong; empty when it is correct.

    ``want`` is the stored reference record for this operation; its ``mc``
    fields are compared only when ``has_mc`` (the run's seed is the seed
    the reference was stored at).  ``first`` is this operation's record
    from the run's first pass: every pass of a run must reproduce it
    exactly, which keeps the byte-identical-rerun invariant at every seed.
    """
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    errors = []
    try:
        errors += workload.invariants(op, result)
    except (KeyError, ValueError) as exc:
        errors.append(f"malformed record: {exc!r}")
    if first is not None and result != first:
        errors.append("output differs from the run's first pass")
    if want is None:
        return errors + ["no stored reference"]
    for key in sorted(set(want) | set(result)):
        kind = field_kind(key)
        if kind == "mc" and not has_mc:
            continue
        if key not in result or key not in want:
            errors.append(f"field {key} missing on one side")
        elif not _same(kind, result[key], want[key]):
            errors.append(f"{key} = {result[key]!r}, reference {want[key]!r} ({kind})")
    return errors
