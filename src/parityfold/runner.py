"""Config-driven experiment runner producing deterministic reports.

A config names a corpus of functions and a list of analyses; the report
echoes the config and holds one result block per (function, analysis).
Reports are byte-identical across runs with the same config and seeds,
so they carry no wall-clock data (the CLI prints timing to stderr).

``OPS`` is the op table: it maps each analysis op to a function
``(table, spectrum, params, seed) -> dict``, reached through ``run_op``.
``run_experiment`` and every CLI op subcommand run ops through it, with
functions resolved by ``resolve_function``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import folding, pdt, spectral
from .families import FunctionSpec, build_function
from .spectral import FourierSpectrum, TruthTable, load_function, read_json

VERSION = "0.1.0"
DEFAULT_MAX_N = 20


class ConfigError(ValueError):
    pass


def parse_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad fraction {value!r}: {exc}") from None
    if isinstance(value, float):
        return folding.float_fraction(value)
    raise ConfigError(f"expected a number, got {value!r}")


def load_config(path: str | Path) -> dict:
    try:
        config = read_json(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config


def resolve_function(entry: dict, base_dir: Path, max_n: int) -> tuple[str, TruthTable]:
    """(label, truth table) of a corpus entry: {"path": file} or
    {"family": name, **params}; spectrum files are inverted to tables."""
    if "path" in entry:
        path = base_dir / entry["path"]
        loaded = load_function(path)
        label = str(entry["path"])
    elif "family" in entry:
        params = {key: value for key, value in entry.items() if key != "family"}
        spec = FunctionSpec(entry["family"], params)
        loaded = build_function(spec)
        label = spec.label()
    else:
        raise ConfigError(f"function entry needs 'family' or 'path': {entry!r}")
    if loaded.n > max_n:
        raise ConfigError(f"{label}: n = {loaded.n} exceeds max_n = {max_n}")
    if isinstance(loaded, spectral.FourierSpectrum):
        loaded = spectral.inverse_wht(loaded)  # 2^n entries, so after the max_n check
    return label, loaded


def analyze_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    l1 = spectral.spectral_l1(spectrum)
    return {
        "sparsity": spectrum.sparsity,
        "support": sorted(spectrum.coeffs),
        "plateaued": spectral.is_plateaued(spectrum),
        "l1": str(l1),
        "l1_squared_le_sparsity": l1**2 <= spectrum.sparsity,
        "parseval": spectral.verify_parseval(spectrum),
        "titsworth_violations": spectral.verify_titsworth(spectrum),
    }


def fold_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    ell = parse_fraction(params.get("ell", "1/2"))
    profile = folding.direction_classes(
        spectrum.support(), include_pairs=bool(params.get("pairs", False))
    )
    fp = profile.folding_parameters(ell)
    out = {
        "profile": profile.to_dict(),
        "ell": str(fp.ell),
        "delta": str(fp.delta),
        "heavy_pair_count": fp.heavy_pair_count,
        "class_size_threshold": fp.class_size_threshold,
    }
    if "delta" in params:
        delta = parse_fraction(params["delta"])
        members = profile.heavy_participants(delta, ell)
        out["heavy_participants"] = sorted(members)
    return out


def verify_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    check = params.get("check")
    if check == "pair-condition":
        result = folding.check_pair_condition(spectrum.support())
        return {"check": check, "passed": result.ok, "violation": result.violation}
    if check == "three-fold":
        try:
            witnesses = folding.verify_three_fold(spectrum)
        except folding.ThreeFoldViolationError as exc:
            return {"check": check, "passed": False, "missing": exc.missing}
        return {
            "check": check,
            "passed": True,
            "witnesses": {str(a): b for a, b in sorted(witnesses.items())},
        }
    if check == "single-direction":
        try:
            report = folding.single_direction_structure(spectrum)
        except folding.SingleDirectionViolationError as exc:
            return {"check": check, "passed": False, "error": str(exc)}
        return {"check": check, "passed": True, "report": report.to_dict()}
    if check == "sign-feasibility":
        result = folding.sign_feasibility(spectrum.support())
        return {"check": check, "passed": result.feasible, "detail": result.to_dict()}
    if check == "titsworth":
        violations = spectral.verify_titsworth(spectrum)
        return {"check": check, "passed": not violations, "violations": violations}
    if check == "parseval":
        return {"check": check, "passed": spectral.verify_parseval(spectrum)}
    raise ConfigError(f"unknown verify check {check!r}")


def build_tree(spectrum: FourierSpectrum, params: dict, seed: int) -> pdt.BuildResult:
    """The pdt op's build, configured by its params."""
    config = pdt.BuildConfig(
        strategy=params.get("strategy", "sampling"),
        probability=(
            float(parse_fraction(params["probability"]))
            if "probability" in params
            else None
        ),
        resample_cap=int(params.get("resample_cap", 64)),
        epsilon=parse_fraction(params.get("epsilon", "1/2")),
        seed=int(params.get("seed", seed)),
        delta=parse_fraction(params["delta"]) if "delta" in params else None,
        ell=parse_fraction(params["ell"]) if "ell" in params else None,
    )
    return pdt.build_pdt(spectrum, config)


def tree_summary(table: TruthTable, build: pdt.BuildResult) -> dict:
    """The pdt op's result block for a build of table."""
    return {
        "strategy": build.config.strategy,
        "seed": build.config.seed,
        "depth": build.depth(),
        "verified": pdt.verify_tree(build.tree, table),
        "node_records": [r.to_dict() for r in build.log],
    }


def pdt_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    return tree_summary(table, build_tree(spectrum, params, seed))


def mc_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    kind = params.get("kind")
    trials = int(params.get("trials", 100))
    used_seed = int(params.get("seed", seed))
    if kind == "theorem-1":
        if "p" not in params:
            raise ConfigError("mc theorem-1 requires p")
        p = float(parse_fraction(params["p"]))
        stats = pdt.estimate_bucket_reduction(spectrum, p, trials, used_seed)
    elif kind == "warmup":
        stats = pdt.warmup_success_rate(spectrum, trials, used_seed)
    elif kind == "theorem-2":
        stats = pdt.folding_sampling_trial(
            spectrum,
            parse_fraction(params.get("delta", 1)),
            parse_fraction(params.get("ell", 0)),
            trials,
            used_seed,
        )
    else:
        raise ConfigError(f"unknown mc kind {kind!r}")
    return {"kind": kind, "seed": used_seed, "stats": stats.to_dict()}


OPS = {
    "analyze": analyze_summary,
    "fold": fold_summary,
    "verify": verify_summary,
    "pdt": pdt_summary,
    "mc": mc_summary,
}


def run_op(op: str, table: TruthTable, spectrum: FourierSpectrum, params: dict, seed: int) -> dict:
    """The result block of one analysis op on one function."""
    if op not in OPS:
        raise ConfigError(f"unknown analysis op {op!r}")
    return OPS[op](table, spectrum, params, seed)


@dataclass(frozen=True)
class ExperimentReport:
    version: str
    config: dict
    results: list[dict]

    def to_dict(self) -> dict:
        return {"version": self.version, "config": self.config, "results": self.results}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        lines = ["function,op,field,value"]
        for block in self.results:
            for op_result in block["analyses"]:
                flat = _flatten(op_result.get("result", {}))
                for key in sorted(flat):
                    value = str(flat[key]).replace(",", ";")
                    lines.append(f"{block['function']},{op_result['op']},{key},{value}")
        return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _flatten(obj, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        out[prefix.rstrip(".") + ".length"] = len(obj)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def run_experiment(config: dict, base_dir: str | Path = ".") -> ExperimentReport:
    base_dir = Path(base_dir)
    seed = int(config.get("seed", 0))
    max_n = int(config.get("max_n", DEFAULT_MAX_N))
    functions = config.get("functions", [])
    analyses = config.get("analyses", [])
    if not isinstance(functions, list) or not isinstance(analyses, list):
        raise ConfigError("'functions' and 'analyses' must be lists")
    results: list[dict] = []
    for entry in functions:
        label, table = resolve_function(entry, base_dir, max_n)
        spectrum = spectral.wht(table)
        block = {"function": label, "n": table.n, "analyses": []}
        for analysis in analyses:
            op = analysis.get("op")
            params = {key: value for key, value in analysis.items() if key != "op"}
            result = run_op(op, table, spectrum, params, seed)
            block["analyses"].append({"op": op, "result": result})
        results.append(block)
    return ExperimentReport(VERSION, config, results)
