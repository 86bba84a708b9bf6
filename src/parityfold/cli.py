"""Command-line interface.

Functions are given either as a JSON file path (truth table or spectrum)
or as an inline family expression like ``addressing:k=16`` or
``random:n=6,seed=3``; ``counterexample:n=5`` names a support, which the
ops that read only the masks take.  ``--json`` switches every command to
canonical machine-readable output; seeded commands byte-reproduce their
reports.  The op subcommands (analyze, fold, verify, pdt build, mc) run
one op of the runner's op table on one entry, as an ``experiment``
config does, and check the op's params and the entry before they build
the function.

Exit codes: 0 all checks pass, 1 a verifier failed or a bound failed to
hold (`params.CheckFailedError`), 2 usage error.  The tree module
(`pdt`) is imported by the commands that build or read a tree, and by
the runner for pdt and mc ops, not by this module; `pdt.build_pdt`
loads the builder (`builder`) when a build first reaches it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import families, runner, spectral
from .params import CheckFailedError
from .runner import canonical_json
from .spectral import json_int

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(ValueError):
    pass


def key_values(items: list[str], source: str) -> dict:
    """Family parameters from key=value items: an integer, or integers
    separated by commas; any other value, and a key given twice, are
    refused."""
    params: dict = {}
    for item in items:
        key, _, value = item.partition("=")
        if not key or not value:
            raise UsageError(f"bad parameter {item!r} in {source!r}; expected key=value")
        if key in params:
            raise UsageError(f"parameter {key!r} given twice in {source!r}")
        try:
            params[key] = [int(x) for x in value.split(",")] if "," in value else int(value)
        except ValueError:
            raise UsageError(f"bad parameter {item!r} in {source!r}; expected an integer, or integers separated by commas") from None
    return params


def function_entry(text: str) -> dict:
    """The corpus entry a FUNCTION argument names: an existing file, else
    a family expression with integer parameters."""
    if Path(text).exists():
        return {"path": text}
    if ":" not in text:
        raise UsageError(f"{text!r} is neither an existing file nor a family expression")
    family, _, body = text.partition(":")
    return {"family": family, **key_values([item for item in body.split(",") if item], text)}


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        print("\n".join(lines))


# gen junta's params, its inner coming from --inner; one mask is an int
GEN_JUNTA = {
    "masks": (lambda value, what: value if isinstance(value, list) else [value], []),
    "n": (json_int, runner.REQUIRED),
}


def cmd_gen(args) -> int:
    params = key_values(args.param or [], f"gen {args.family}")
    if args.family == "random" and "seed" not in params:
        params["seed"] = args.seed
    if (args.family == "junta") != bool(args.inner):
        raise UsageError("gen junta requires --inner FILE, and no other family reads it")
    if args.family == "junta":
        masks, n = spectral.read_keys("gen junta", params, GEN_JUNTA).values()
        label = f"junta(inner={args.inner},n={n})"
        if n > args.max_n:
            raise UsageError(f"{label}: n = {n} exceeds max_n = {args.max_n}")  # before 2^n entries
        inner = runner.load_table(*runner.check_function({"path": args.inner}, args.max_n), Path("."), args.max_n)
        table = families.gen_junta(inner, masks, n)
    else:
        label, spec = runner.check_function({"family": args.family, **params}, args.max_n)
        table = runner.load_table(label, spec, Path("."), args.max_n)
    text = canonical_json(spectral.table_to_dict(table))
    if args.output:
        Path(args.output).write_text(text)
        print(f"{label}: n = {table.n}, wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# each op subcommand's text lines and exit code, from (label, the
# function's n, the op's result block); they render the block and compute nothing


def _analyze_text(label: str, n: int, result: dict) -> tuple[list[str], int]:
    lines = [
        f"function: {label} (n = {n})",
        f"sparsity k = {result['sparsity']}",
        f"plateaued: {result['plateaued']}",
        f"spectral l1 = {result['l1']} (l1^2 <= k: {result['l1_squared_le_sparsity']})",
        f"parseval: {result['parseval']}",
        f"titsworth violations: {result['titsworth_violations']}",
    ]
    if block := result.get("restrict"):
        lines += [
            f"restricted by {len(block['constraints'])} constraints (codimension {block['codimension']}): "
            f"sparsity {block['restricted_sparsity']}",
            f"buckets {block['bucket_report']['bucket_count']} <= bound {block['identification_bound']} "
            f"(h = {block['identified_count']})",
        ]
    ok = result["parseval"] and not result["titsworth_violations"]
    return lines, 0 if ok else CHECK_FAILED


def _fold_text(label: str, n: int, result: dict) -> tuple[list[str], int]:
    profile = result["profile"]
    lines = [
        f"function: {label} (k = {profile['k']})",
        f"directions: {profile['direction_count']}, "
        f"class sizes {profile['min_class_size']}..{profile['max_class_size']}",
        f"histogram: {profile['histogram']}",
        f"delta at ell = {result['ell']}: {result['delta']} "
        f"({result['heavy_pair_count']} heavy pairs, class threshold {result['class_size_threshold']})",
    ]
    if "heavy_participants" in result:
        lines.append(f"heavy participants: {len(result['heavy_participants'])} of {profile['k']}")
    return lines, 0


def _verify_text(label: str, n: int, result: dict) -> tuple[list[str], int]:
    passed = result["passed"]
    return [f"function: {label}", f"{result['check']}: {'pass' if passed else 'FAIL'}"], 0 if passed else CHECK_FAILED


def _pdt_text(label: str, n: int, result: dict) -> tuple[list[str], int]:
    lines = [
        f"function: {label}",
        f"strategy {result['strategy']}, seed {result['seed']}",
        f"depth {result['depth']}, verified {result['verified']}",
    ]
    return lines, 0 if result["verified"] else CHECK_FAILED


def _mc_text(label: str, n: int, result: dict) -> tuple[list[str], int]:
    stats = result["stats"]
    lines = [
        f"function: {label} (k = {stats['k']})",
        f"{result['kind']}: {stats['trials']} trials, p = {stats['probabilities']}"
        + (" (clamped)" if stats["clamped"] else ""),
        f"mean buckets/k = {stats['mean_bucket_fraction']} "
        f"~= {stats['mean_bucket_fraction_float']:.6f}, CI95 {stats['ci95']}",
    ]
    if "success_fraction" in stats:
        lines.append(
            f"success fraction (buckets <= {stats['success_threshold']}): "
            f"{stats['success_fraction']}"
        )
    return lines, 0


def _mc_csv(stats: dict) -> str:
    """mc's --csv file of its stats block: a header and one row."""
    row = [
        stats["trials"], stats["k"], ";".join(map(repr, stats["probabilities"])), stats["clamped"],
        repr(stats["mean_bucket_fraction_float"]), *map(repr, stats["ci95"]),
        stats.get("success_threshold", ""), stats.get("success_fraction", ""),
    ]
    header = "trials,k,probabilities,clamped,mean_bucket_fraction,ci95_low,ci95_high,success_threshold,success_fraction"
    return header + "\n" + ",".join(map(str, row)) + "\n"


# op params whose flag names a JSON file that holds the value
FILE_PARAMS = ("restrict",)

_TEXT = {"analyze": _analyze_text, "fold": _fold_text, "verify": _verify_text, "pdt": _pdt_text, "mc": _mc_text}


def cmd_op(args) -> int:
    """One op of the runner's op table on FUNCTION, its params read from
    args by the op's names (an unset flag is None and left out) and
    checked, as a config's are, before the function is built."""
    op = args.op
    params = {name: getattr(args, name) for name in runner.OPS[op][1] if getattr(args, name, None) is not None}
    params.update((name, spectral.read_json(params[name])) for name in FILE_PARAMS if name in params)
    values = runner.op_params(op, params, args.seed)
    label, spec = runner.check_function(function_entry(args.function), args.max_n, [(op, values)])
    table, spectrum = runner.op_input(label, spec, Path("."), args.max_n)
    if op == "pdt":  # the op in two halves, so the tree comes from its build
        from . import pdt

        build = pdt.build_pdt(spectrum, values)
        result = runner.tree_summary(table, build)
        if args.output:
            Path(args.output).write_text(canonical_json(build.tree.to_dict()))
        if args.log:
            Path(args.log).write_text("\n".join(json.dumps(r, sort_keys=True) for r in result["node_records"]) + "\n")
    else:
        result = runner.OPS[op][0](table, spectrum, values)
    if op == "mc" and args.csv:
        Path(args.csv).write_text(_mc_csv(result["stats"]))
    payload = {"function": label, op: result, **({"n": table.n} if op == "analyze" else {})}
    lines, code = _TEXT[op](label, spectrum.n, result)
    _emit(args, payload, lines)
    return code


def cmd_pdt(args) -> int:
    from . import pdt

    tree = pdt.ParityDecisionTree.from_dict(spectral.read_json(args.tree))
    if args.pdt_command == "verify":
        label, spec = runner.check_function(function_entry(args.function), args.max_n)
        ok = pdt.verify_tree(tree, runner.load_table(label, spec, Path("."), args.max_n))
        _emit(
            args,
            {"tree": args.tree, "function": label, "verified": ok},
            [f"tree {args.tree} vs {label}: {'agree on all inputs' if ok else 'MISMATCH'}"],
        )
        return 0 if ok else CHECK_FAILED
    _emit(args, {"tree": args.tree, "depth": tree.depth()}, [f"depth {tree.depth()}"])
    return 0


def cmd_experiment(args) -> int:
    started = time.monotonic()
    config = runner.load_config(args.config)
    if "max_n" in config:  # the smaller cap applies, and the report echoes it
        args.max_n = min(args.max_n, runner.parse_max_n(config["max_n"], "config max_n"))
    config["max_n"] = args.max_n
    report = runner.run_experiment(config, Path(args.config).parent)
    text = report.to_json()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    elapsed = time.monotonic() - started
    print(f"experiment: {len(report.results)} functions in {elapsed:.2f}s", file=sys.stderr)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before or after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber global values
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(0),
                        help="master seed for randomized commands")
    parser.add_argument("--json", action="store_true", default=default(False),
                        help="canonical JSON output")
    parser.add_argument("--csv", default=default(None),
                        help="write a CSV summary to this path (mc and experiment only)")
    max_n = spectral.MAX_TABLE_DIMENSION
    parser.add_argument("--max-n", type=int, default=default(max_n), dest="max_n",
                        help=f"refuse functions above this dimension, at most {max_n} (default {max_n})")


def _op_parser(sub, common, command: str, op: str, help: str):
    """The subcommand that runs op: the op's required choice, from the op
    table, and FUNCTION as positionals, and a flag per other param, each
    defaulting to None and showing the op table's default."""
    parser = sub.add_parser(command, parents=[common], help=help, allow_abbrev=False)  # flags are op keys, in full
    for name, (parse, default, *kinds) in runner.OPS[op][1].items():
        if name == "seed":  # the global --seed
            continue
        if default is runner.REQUIRED and not kinds:
            parser.add_argument(name, choices=parse)
            continue
        shown = [f"{' and '.join(kinds)} only"] if kinds else []
        if parse is bool:
            kwargs = {"action": "store_true"}
        else:
            kwargs = {"type": int if parse is json_int else str, "choices": None if callable(parse) else parse,
                      "metavar": "FILE" if name in FILE_PARAMS else None}
            shown += [] if default is None or default is runner.REQUIRED else [f"default {default}"]
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None, help=", ".join(shown) or None, **kwargs)
    parser.add_argument("function")
    parser.set_defaults(func=cmd_op, op=op)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parityfold",
        description="Exact Fourier-spectral analysis and parity decision trees over F2^n",
    )
    _add_common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a corpus function as truth-table JSON")
    p_gen.add_argument("family", choices=list(families.FAMILIES))
    p_gen.add_argument("param", nargs="*", help="family parameters, e.g. k=16 or n=6")
    p_gen.add_argument("--inner", default=None, help="inner function file for junta")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    _op_parser(sub, common, "analyze", "analyze", "spectrum, sparsity, plateaued, l1, exact identities")
    _op_parser(sub, common, "fold", "fold", "direction classes, folding parameters, heavy participants")
    _op_parser(sub, common, "verify", "verify", "structural verifiers (exit 1 on failure)")

    p_pdt = sub.add_parser("pdt", parents=[common], help="build / verify / measure parity decision trees")
    pdt_sub = p_pdt.add_subparsers(dest="pdt_command", required=True)
    p_build = _op_parser(pdt_sub, common, "build", "pdt", "build a tree")
    p_build.add_argument("-o", "--output", default=None, help="write the tree JSON here")
    p_build.add_argument("--log", default=None, help="write the per-node build log (JSON lines)")
    p_tverify = pdt_sub.add_parser("verify", parents=[common])
    p_tverify.add_argument("tree")
    p_tverify.add_argument("function")
    p_tverify.set_defaults(func=cmd_pdt)
    p_depth = pdt_sub.add_parser("depth", parents=[common])
    p_depth.add_argument("tree")
    p_depth.set_defaults(func=cmd_pdt)

    _op_parser(sub, common, "mc", "mc", "seeded Monte Carlo bucket experiments")

    p_exp = sub.add_parser("experiment", parents=[common], help="run a config-driven experiment")
    p_exp.add_argument("config")
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.csv is not None and args.command not in ("mc", "experiment"):
            raise UsageError(f"--csv applies only to mc and experiment, not {args.command}")
        runner.parse_max_n(args.max_n)  # before any function is built
        return args.func(args)
    except CheckFailedError as exc:  # a bound failed to hold
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:  # UsageError and ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # an input too large for this machine, such as --trials 10^9
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
