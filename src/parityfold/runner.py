"""Config-driven experiment runner producing deterministic reports.

A config names a corpus of functions and a list of analyses; the report
echoes the config and holds one result block per (function, analysis).
Reports are byte-identical across runs with the same config and seeds,
so they carry no wall-clock data (the CLI prints timing to stderr).

``OPS`` is the op table, which owns each op's params and its block: it
maps each analysis op to its function ``(table, spectrum, params) ->
dict``, the one place that builds the op's result block from the
library's typed results, and to its parameters, each with a parser and a
default; verify's checks and mc's kinds are the keys of
``VERIFY_CHECKS`` and ``MC_KINDS``, pdt's strategies ``params.STRATEGIES``.
The table reads only ``params`` for pdt and mc, and the op functions
import ``pdt``, ``restriction``, ``folding`` and ``pairs`` when they
first call them, always through the module attribute (which
bench/tracing.py swaps for a timing wrapper): fold, the verify checks
but titsworth and parseval, and a counterexample entry import
``folding``, fold ``pairs`` too, analyze with ``restrict``
imports ``restriction``, and pdt and mc import ``pdt``.  ``pdt`` resolves
``build_pdt`` from ``builder`` and the three trial functions from
``trials`` on first access (``pdt.TRACED_NAMES``), so a run of fold,
verify and analyze ops without ``restrict`` never imports the builder,
a build never imports the trials, and a Monte Carlo run of warmup or
theorem-1 trials imports neither the builder, ``folding``,
``restriction`` nor ``pairs``.
The library's result types have no dict form (the tree file format
aside), so the report schema is this module's alone; the CLI renders
the blocks.  Records such as ``folding.FoldingParameters`` and
``trials.TrialStats`` are ``typing.NamedTuple``s, whose fields
``_record`` writes as a block holds them; ``tree_summary`` writes each
``builder.NodeRecord`` itself.
``op_params`` is the one gate: it reads an op's params with
``spectral.read_keys``, the one reader of a JSON object's keys, checks
each value and hands the op what it reads (pdt's ``params.BuildConfig``).
``run_experiment`` reads the config's top level (``CONFIG``) with
``read_keys``, passes every analysis through ``op_params`` and every
function entry through ``check_function``, which reads each once with
``read_keys`` too, before any function is built from the values read; a
CLI op subcommand calls ``op_params`` and ``check_function`` the same
way on its one entry.  Both then take what the ops read from
``op_input``: a function's table and spectrum, or a support entry's
``spectral.FourierSupport`` in place of the spectrum, with no table.
``MASKS_ONLY`` names the analyses that read only the masks;
``check_function`` refuses a support entry under any other.  An explicit
support's label, ``support(k=K,n=N,sha256=D)``, carries a digest of its
masks, so no two supports share one.
analyze's ``restrict``, a constraint list ``[{"mask": m, "bit": 0 or
1}, ...]``, adds a ``restrict`` block: the spectrum restricted to the
affine subspace the constraints cut out, and its buckets against the
identification bound.

Reports, ``--json`` output, ``gen`` files and saved trees are written
by ``canonical_json``: the bytes ``json.dumps`` writes with sorted keys
and a two-space indent, plus a newline.  It is the library's own
encoder; json's indenting encoder is pure Python and pays one generator
hop per nesting level for each piece it writes.  Here scalars are
formatted by a table keyed on their exact type, each run of scalar
items is one join, and open containers sit on an explicit stack, so the
cost is linear in the output at any depth.  A container of at least
``SCALAR_RUN_MIN`` scalars of one exact type (a list or tuple, or a dict
whose keys are all ``str``), such as a support list or a per-mask map,
is written by one ``map`` and ``join``, with no Python step per item.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import spectral
from .families import FunctionSpec, build_function, read_function
from .params import STRATEGIES, BuildConfig, as_exponent, check_sampling, float_fraction
from .spectral import REQUIRED, FourierSpectrum, FourierSupport, TruthTable, json_int, json_of, load_function, read_json, read_keys

VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


def parse_fraction(value, what: str = "value") -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{what}: bad fraction {value!r}: {exc}") from None
    if isinstance(value, float) and math.isfinite(value):
        return float_fraction(value)
    raise ConfigError(f"{what}: expected a finite number, got {value!r}")


def parse_max_n(value, what: str = "max_n") -> int:
    """A cap on the functions' n: an integer in [0, spectral.MAX_TABLE_DIMENSION]."""
    if not 0 <= json_int(value, what) <= spectral.MAX_TABLE_DIMENSION:
        raise ConfigError(f"{what} must lie in [0, {spectral.MAX_TABLE_DIMENSION}], got {value}")
    return value


def load_config(path: str | Path) -> dict:
    try:
        config = read_json(path)
    except ValueError as exc:  # read_json's refusals name the file
        raise ConfigError(str(exc)) from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config


def check_function(entry: dict, max_n: int, ops: list | tuple = ()) -> tuple[str, FunctionSpec | FourierSupport | None]:
    """(label, spec) of a corpus entry, after every check that needs no
    table: {"path": file} (spec None, the label its path), a support entry
    (spec the `FourierSupport`, see `_read_support`), or {"family": name,
    **params} (spec as `families.read_function` read it, its n at most
    max_n).  A family's n function in `families.FAMILIES` is its one check,
    and `read_function` runs it here, so every family check comes before
    any table is built; `load_table` builds the table.  An entry without a
    family or a support is a path entry.  A support entry under an
    analysis of ops, (op, values) pairs, that reads more than the masks is
    refused."""
    try:
        if "path" in json_of(entry, dict, "function entry") or not entry.keys() & {"family", "support"}:
            return read_keys("path entry", entry, {"path": (str, REQUIRED)})["path"], None
        if "support" in entry or entry["family"] == "counterexample":
            label, support = _read_support(entry)
            for op, values in ops:
                if (name := f"{op} {values['check']}" if op == "verify" else op) not in MASKS_ONLY:
                    raise ConfigError(f"{label}: {name} reads the Fourier coefficients, and a support entry has only its masks")
            return label, support
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = {key: value for key, value in entry.items() if key != "family"}
    spec = read_function(entry["family"], params)
    label = f"{spec.family}({','.join(f'{key}={params[key]}' for key in sorted(params))})"
    if spec.n > max_n:
        raise ConfigError(f"{label}: n = {spec.n} exceeds max_n = {max_n}")  # before 2^n entries
    return label, spec


def _read_support(entry: dict) -> tuple[str, FourierSupport]:
    """(label, support) of {"support": masks, "n": n} or of the named
    support {"family": "counterexample", "n": n}, both read by
    `spectral.support_from_dict`; a support has no table, so max_n does
    not apply.  An explicit support's label ends in the first 12 hex
    digits of the SHA-256 of its sorted masks, written in decimal and
    joined by commas, so two supports of equal k and n get two labels."""
    if "support" in entry:
        import hashlib

        support = spectral.support_from_dict(entry)
        digest = hashlib.sha256(",".join(map(str, support.masks.tolist())).encode()).hexdigest()[:12]
        return f"support(k={support.sparsity},n={support.n},sha256={digest})", support
    from . import folding

    n = read_keys("counterexample", {key: value for key, value in entry.items() if key != "family"}, {"n": (json_int, REQUIRED)})["n"]
    return f"counterexample(n={n})", spectral.support_from_dict({"support": list(folding.counterexample_support(n)), "n": n})


def op_input(label: str, spec: FunctionSpec | FourierSupport | None, base_dir: Path, max_n: int):
    """(table, spectrum) that an op reads of an entry check_function
    checked, (label, spec): a support entry has no table, and its support
    stands in for the spectrum."""
    if isinstance(spec, FourierSupport):
        return None, spec
    table = load_table(label, spec, base_dir, max_n)
    return table, spectral.wht(table)


def load_table(label: str, spec: FunctionSpec | FourierSupport | None, base_dir: Path, max_n: int) -> TruthTable:
    """The truth table of an entry check_function checked, (label, spec);
    spectrum files are inverted to tables, and a support entry, which has
    no table, is refused."""
    if isinstance(spec, FourierSupport):
        raise ConfigError(f"{label}: a support entry has no truth table")
    loaded = load_function(base_dir / label) if spec is None else build_function(spec)
    if loaded.n > max_n:
        raise ConfigError(f"{label}: n = {loaded.n} exceeds max_n = {max_n}")
    if isinstance(loaded, spectral.FourierSpectrum):
        loaded = spectral.inverse_wht(loaded)  # 2^n entries, so after the max_n check
    return loaded


def _record(record: NamedTuple) -> dict:
    """A record's fields as a block holds them: a Fraction as its text, a
    tuple as a list, a map with its keys as text and its tuple values as
    lists; a None field is left out."""
    block = {}
    for key, value in record._asdict().items():
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = {str(k): list(v) if isinstance(v, tuple) else v for k, v in value.items()}
        if value is not None:
            block[key] = value
    return block


def analyze_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict) -> dict:
    l1 = spectral.spectral_l1(spectrum)
    out = {
        "sparsity": spectrum.sparsity,
        "support": spectrum.masks.tolist(),
        "plateaued": spectral.is_plateaued(spectrum),
        "l1": str(l1),
        "l1_squared_le_sparsity": l1**2 <= spectrum.sparsity,
        "parseval": spectral.verify_parseval(spectrum),
        "titsworth_violations": spectral.verify_titsworth(spectrum),
    }
    if "restrict" in params:  # a mask outside n bits is a ValueError here; op_params refused an inconsistent system
        from . import restriction

        constraints = params["restrict"]
        system = restriction.AffineConstraintSystem(spectrum.n, constraints)
        restricted = restriction.restrict(spectrum, system)
        report = restriction.bucket_complexity(spectrum.masks.tolist(), [mask for mask, _ in constraints], spectrum.n)
        out["restrict"] = {
            "constraints": [{"mask": mask, "bit": bit} for mask, bit in constraints],
            "codimension": system.codimension,
            "restricted_sparsity": restricted.sparsity,
            "restricted_support": restricted.masks.tolist(),
            "bucket_report": {
                "bucket_count": report.bucket_count,
                "identified_count": report.identified_count,
                "buckets": {str(label): list(members) for label, members in report.buckets.items()},
            },
            "identified_count": report.identified_count,
            "identification_bound": report.bound,
        }
    return out


def fold_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict) -> dict:
    from . import folding, pairs

    ell = params["ell"]
    profile = folding.direction_classes(spectrum.masks)
    block = {
        "n": profile.n,
        "k": profile.k,
        "direction_count": len(profile.directions),
        "total_pairs": profile.total_pairs,
        "min_class_size": profile.min_class_size,
        "max_class_size": profile.max_class_size,
        "histogram": {str(s): c for s, c in profile.histogram().items()},
        "classes": dict(zip(map(str, profile.directions.tolist()), profile.counts.tolist())),
    }
    if params["pairs"]:  # every pair, grouped by direction as the classes are
        _, a, b = pairs.direction_pairs(profile.masks, profile.directions)
        rows, ends = np.column_stack((a, b)).tolist(), profile.counts.cumsum().tolist()
        block["pairs"] = {g: rows[end - size : end] for (g, size), end in zip(block["classes"].items(), ends)}
    out = {"profile": block, **_record(profile.folding_parameters(ell))}
    if "delta" in params:
        out["heavy_participants"] = sorted(profile.heavy_participants(params["delta"], ell))
    return out


def _three_fold(spectrum: FourierSpectrum) -> dict:
    from . import folding

    try:
        witnesses = folding.verify_three_fold(spectrum)
    except folding.ThreeFoldViolationError as exc:
        return {"passed": False, "missing": exc.missing}
    return {"passed": True, "witnesses": dict(zip(map(str, witnesses), witnesses.values()))}


def _single_direction(spectrum: FourierSpectrum) -> dict:
    from . import folding

    try:
        report = folding.single_direction_structure(spectrum)
    except folding.SingleDirectionViolationError as exc:
        return {"passed": False, "error": str(exc)}
    return {"passed": True, "report": _record(report)}


def _pair_condition(spectrum: FourierSpectrum) -> dict:
    from . import folding

    result = folding.check_pair_condition(spectrum.masks)
    return {"passed": result.ok, "violation": result.violation}


def _sign_feasibility(spectrum: FourierSpectrum) -> dict:
    from . import folding

    result = folding.sign_feasibility(spectrum.masks)
    detail: dict = {"feasible": result.feasible, "constraint_count": len(result.constraints)}
    if result.assignment is not None:
        detail["assignment"] = dict(zip(map(str, result.assignment), result.assignment.values()))
    if result.witness is not None:
        detail["witness"] = [{"direction": g, "pairs": [[a, b], [c, d]]} for g, a, b, c, d in result.witness]
    return {"passed": result.feasible, "detail": detail}


def _titsworth(spectrum: FourierSpectrum) -> dict:
    violations = spectral.verify_titsworth(spectrum)
    return {"passed": not violations, "violations": violations}


# verify's checks: check -> its result block on a spectrum.  Each block
# calls the library through its module attribute, which bench/tracing.py
# swaps for a timing wrapper
VERIFY_CHECKS = {
    "pair-condition": _pair_condition,
    "three-fold": _three_fold,
    "single-direction": _single_direction,
    "sign-feasibility": _sign_feasibility,
    "titsworth": _titsworth,
    "parseval": lambda spectrum: {"passed": spectral.verify_parseval(spectrum)},
}


def verify_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict) -> dict:
    return {"check": params["check"], **VERIFY_CHECKS[params["check"]](spectrum)}


def tree_summary(table: TruthTable, build) -> dict:
    """The pdt op's result block for a `builder.BuildResult` of table."""
    from . import pdt

    return {
        "strategy": build.config.strategy,
        "seed": build.config.seed,
        "depth": build.depth(),
        "verified": pdt.verify_tree(build.tree, table),
        "node_records": [
            {**r._asdict(), "batch": list(r.batch), "probabilities": list(r.probabilities), "batch_size": len(r.batch)}
            for r in build.log
        ],
    }


def pdt_summary(table: TruthTable, spectrum: FourierSpectrum, config: BuildConfig) -> dict:
    from . import pdt

    return tree_summary(table, pdt.build_pdt(spectrum, config))


# mc's kinds: kind -> its TrialStats on a spectrum, from the pdt module and
# the parsed params, the library called through its module attribute as in
# VERIFY_CHECKS
MC_KINDS = {
    "theorem-1": lambda pdt, spectrum, v: pdt.estimate_bucket_reduction(spectrum, v["p"], v["trials"], v["seed"]),
    "warmup": lambda pdt, spectrum, v: pdt.warmup_success_rate(spectrum, v["trials"], v["seed"]),
    "theorem-2": lambda pdt, spectrum, v: pdt.folding_sampling_trial(spectrum, v["delta"], v["ell"], v["trials"], v["seed"]),
}


def mc_summary(table: TruthTable, spectrum: FourierSpectrum, params: dict) -> dict:
    from . import pdt

    stats = MC_KINDS[params["kind"]](pdt, spectrum, params)
    block = _record(stats)
    block["mean_bucket_fraction_float"] = float(stats.mean_bucket_fraction)
    if stats.success_fraction is not None:
        block["success_fraction_float"] = float(stats.success_fraction)
    return {"kind": params["kind"], "seed": params["seed"], "stats": block}


def parse_exponent(value, what: str = "value") -> Fraction:
    """A fraction that is an exponent in [0, 1], as `params.as_exponent` checks."""
    return as_exponent(parse_fraction(value, what))


def parse_constraints(value, what: str = "value") -> tuple[tuple[int, int], ...]:
    """A constraint list [{"mask": m, "bit": 0 or 1}, ...] as (mask, bit)
    pairs, m >= 0; the masks are checked against n when the op runs."""
    constraints = []
    for entry in json_of(value, list, what):
        mask, bit = read_keys(f"{what} constraint", entry, {"mask": (json_int, REQUIRED), "bit": (json_int, REQUIRED)}).values()
        if mask < 0 or bit not in (0, 1):
            raise ConfigError(f"{what}: mask must be >= 0 and bit 0 or 1, got {entry!r}")
        constraints.append((mask, bit))
    return tuple(constraints)


# op -> (function, {param: (parser, default[, kinds...])}), each param
# read by `read_keys` (a parser is a function, a JSON type or the op's
# choices; a default is a value, None or REQUIRED).  seed defaults to the
# run's seed; pdt's defaults are BuildConfig's own.  A param that names
# kinds is read only by those values of the op's kind, and refused for the
# others.
OPS = {
    "analyze": (analyze_summary, {"restrict": (parse_constraints, None)}),
    "fold": (fold_summary, {
        "ell": (parse_exponent, Fraction(1, 2)),
        "delta": (parse_fraction, None),
        "pairs": (bool, False),
    }),
    "verify": (verify_summary, {"check": (VERIFY_CHECKS, REQUIRED)}),
    "pdt": (pdt_summary, {
        "strategy": (STRATEGIES, BuildConfig.strategy),
        "probability": (parse_fraction, None),
        "resample_cap": (json_int, BuildConfig.resample_cap),
        "epsilon": (parse_fraction, BuildConfig.epsilon),
        "seed": (json_int, None),
        "delta": (parse_fraction, None),
        "ell": (parse_fraction, None),
    }),
    "mc": (mc_summary, {
        "kind": (MC_KINDS, REQUIRED),
        "trials": (json_int, 100),
        "seed": (json_int, None),
        "p": (parse_fraction, REQUIRED, "theorem-1"),
        "delta": (parse_fraction, Fraction(1), "theorem-2"),
        "ell": (parse_fraction, Fraction(0), "theorem-2"),
    }),
}

# the analyses, an op or "verify <check>", that read only a spectrum's n and
# masks: a support entry, which has no coefficients, runs these alone
MASKS_ONLY = {"fold", "mc", "verify pair-condition", "verify three-fold", "verify sign-feasibility"}

# the params each mc kind reads: those that name no kind or name it
KIND_PARAMS = {
    kind: {name: spec[:2] for name, spec in OPS["mc"][1].items() if kind in spec[2:] or len(spec) == 2} for kind in MC_KINDS
}


def op_params(op: str, params: dict, seed: int) -> dict | BuildConfig:
    """What op reads, from its params, by `read_keys`: each value parsed
    and checked, the op's defaults filled in, and pdt's BuildConfig built.
    Every check that does not depend on the function is made here, so a
    config runs it on every analysis before any function is built; each
    refusal is a ConfigError, and a parse error names the op and the key,
    but for an inconsistent restrict system, an InconsistentConstraintsError
    as when the op runs."""
    if not isinstance(op, str) or op not in OPS:
        raise ConfigError(f"unknown analysis op {op!r}")
    declared = OPS[op][1]
    try:
        if op == "mc":  # its kind, read first, picks the params it reads
            kind = read_keys(op, {"kind": params["kind"]} if "kind" in params else {}, {"kind": declared["kind"]})["kind"]
            for name in params:
                if name not in KIND_PARAMS[kind] and name in declared:
                    raise ConfigError(f"{op} {kind} does not read {name!r}; only {' and '.join(declared[name][2:])} does")
            declared = KIND_PARAMS[kind]
        values = read_keys(op, params, declared)
        if "seed" in declared:
            values.setdefault("seed", seed)
        if op == "pdt":
            return BuildConfig(**values)
        # the sampling values mc and fold read (fold's delta, which picks heavy participants)
        check_sampling(values.get("seed"), values.get("trials"), values.get("p"), values.get("delta"), values.get("ell"))
    except ValueError as exc:  # a parser's, BuildConfig's or check_sampling's refusal
        raise ConfigError(str(exc)) from None
    if "restrict" in values:  # consistency does not depend on n, so it is checked here
        from . import restriction

        restriction.check_consistent(values["restrict"])
    return values


class ExperimentReport(NamedTuple):
    version: str
    config: dict
    results: list[dict]

    def to_dict(self) -> dict:
        return {"version": self.version, "config": self.config, "results": self.results}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        """A row per leaf of each result block, by the csv module's minimal
        quoting, so a label with a comma is one quoted field; a value's
        commas are written as ';'."""
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("function", "op", "field", "value"))
        for block in self.results:
            for op_result in block["analyses"]:
                flat = _flatten(op_result.get("result", {}))
                writer.writerows((block["function"], op_result["op"], key, str(flat[key]).replace(",", ";"))
                                 for key in sorted(flat))
        return out.getvalue()


_INFINITY = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# JSON text of a scalar by its exact type (repr is int.__repr__ on an
# exact int); other types go through _scalar_text
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: repr,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_text(value) -> str:
    """JSON text of a scalar of any type, tested in json's order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# a container of at least this many scalars of one exact type is one join
SCALAR_RUN_MIN = 16


def _scalar_run(value, indent: str) -> str | None:
    """JSON text of a list, tuple or str-keyed dict of scalars of one exact
    type, brackets included, its items one indent step below ``indent``
    (the newline and indent of the container itself); None otherwise."""
    types = set(map(type, value.values() if isinstance(value, dict) else value))
    fmt = _SCALAR_TEXT.get(types.pop()) if len(types) == 1 else None
    if fmt is None:
        return None
    inner = indent + "  "
    if not isinstance(value, dict):
        return "[" + inner + ("," + inner).join(map(fmt, value)) + indent + "]"
    if set(map(type, value)) != {str}:
        return None
    keys = sorted(value)
    items = zip(map(encode_basestring_ascii, keys), map(fmt, map(value.__getitem__, keys)))
    return "{" + inner + ("," + inner).join(map(": ".join, items)) + indent + "}"


def _key_prefix(key) -> str:
    """'"key": ' for a dict key, coerced to a string as json coerces it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key) + ": "
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return '"' + _scalar_text(key) + '": '
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


_END = object()


def canonical_json(obj) -> str:
    """What json.dumps writes with sorted keys and indent 2, plus "\\n", byte for byte.

    Containers are dicts, lists and tuples; scalars are str, int, float,
    bool and None, subclasses included. Any other value raises TypeError,
    and a container inside itself raises ValueError, as in json.dumps.
    Open containers live on an explicit stack, not on the call stack, so
    every depth that json.loads reads is written back. Each run of scalar
    items is one join, and text goes to ``out`` once, so the cost is
    linear in the output at any depth. A container of SCALAR_RUN_MIN or
    more scalars of one exact type, keyed by str if a dict, is one map and
    join (`_scalar_run`), not a pass of the loop per item.
    """
    out: list[str] = []
    open_ids: set[int] = set()
    # the open container: parts holds its scalar items not yet in out,
    # items iterates the rest, inner is "\n" + the indent of its items,
    # sep goes before its next text in out, and own is its id; the
    # enclosing ones wait on the stack
    stack: list[tuple] = []
    # the top-level value is the one item of a frame without brackets
    parts, items, keyed, inner, sep, own = [], iter((obj,)), False, "\n", "", None
    while True:
        if keyed:
            for key, value in items:
                head = encode_basestring_ascii(key) + ": " if type(key) is str else _key_prefix(key)
                fmt = _SCALAR_TEXT.get(type(value))
                if fmt is None:
                    break
                parts.append(head + fmt(value))
            else:
                value = _END
        else:
            for value in items:
                fmt = _SCALAR_TEXT.get(type(value))
                if fmt is None:
                    head = ""
                    break
                parts.append(fmt(value))
            else:
                value = _END
        if value is not _END:
            if not isinstance(value, (dict, list, tuple)):
                parts.append(head + _scalar_text(value))
                continue
            if not value:
                parts.append(head + ("{}" if isinstance(value, dict) else "[]"))
                continue
            if len(value) >= SCALAR_RUN_MIN and (run := _scalar_run(value, inner)) is not None:
                parts.append(head + run)
                continue
        if parts:
            out.append(sep + ("," + inner).join(parts))
            parts, sep = [], "," + inner
        if value is _END:  # the open container is complete
            if not stack:
                return "".join(out) + "\n"
            out.append(inner[:-2] + ("}" if keyed else "]"))
            open_ids.discard(own)
            parts, items, keyed, inner, sep, own = stack.pop()
            continue
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        keyed_child = isinstance(value, dict)
        out.append(sep + head + ("{" if keyed_child else "["))
        stack.append((parts, items, keyed, inner, "," + inner, own))
        inner = inner + "  "
        parts, keyed, sep, own = [], keyed_child, inner, id(value)
        open_ids.add(own)
        items = iter(sorted(value.items())) if keyed else iter(value)


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


# the keys of a config's top level; each analysis is an object, and note
# takes any value, which the report echoes with the rest of the config and
# nothing reads
CONFIG = {
    "seed": (json_int, 0),
    "max_n": (parse_max_n, spectral.MAX_TABLE_DIMENSION),
    "functions": (list, REQUIRED),
    "analyses": (lambda value, what: [json_of(item, dict, "analysis") for item in json_of(value, list, what)], []),
    "note": (object, None),
}


def run_experiment(config: dict, base_dir: str | Path = ".") -> ExperimentReport:
    base_dir = Path(base_dir)
    try:
        seed, max_n, functions, analyses, *_ = read_keys("config", config, CONFIG).values()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every analysis and every function entry is checked, and refused, before any function is built
    ops = [(a.get("op"), op_params(a.get("op"), {k: v for k, v in a.items() if k != "op"}, seed)) for a in analyses]
    checked = [check_function(entry, max_n, ops) for entry in functions]
    results: list[dict] = []
    for label, spec in checked:
        table, spectrum = op_input(label, spec, base_dir, max_n)
        block = {"function": label, "n": spectrum.n, "analyses": []}
        for op, values in ops:
            block["analyses"].append({"op": op, "result": OPS[op][0](table, spectrum, values)})
        results.append(block)
    return ExperimentReport(VERSION, config, results)
