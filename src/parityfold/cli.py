"""Command-line interface.

Functions are given either as a JSON file path (truth table or spectrum)
or as an inline family expression like ``addressing:k=16`` or
``random:n=6,seed=3``.  ``--json`` switches every command to canonical
machine-readable output; seeded commands byte-reproduce their reports.
The op subcommands (analyze, fold, verify, pdt build, mc) run one op of
the runner's op table on one function, as an ``experiment`` config does.

Exit codes: 0 all checks pass, 1 a verifier failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import families, folding, pdt, restriction, runner, spectral
from .families import FunctionSpec, build_function
from .runner import canonical_json
from .spectral import FourierSpectrum, TruthTable

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(ValueError):
    pass


def function_entry(text: str) -> dict:
    """The corpus entry a FUNCTION argument names: an existing file, else
    a family expression with integer parameters."""
    if Path(text).exists():
        return {"path": text}
    if ":" not in text:
        raise UsageError(f"{text!r} is neither an existing file nor a family expression")
    family, _, body = text.partition(":")
    entry: dict = {"family": family}
    for item in body.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if not value:
            raise UsageError(f"bad family parameter {item!r} in {text!r}")
        entry[key] = int(value)
    return entry


def _resolve(args) -> tuple[str, TruthTable]:
    return runner.resolve_function(function_entry(args.function), Path("."), args.max_n)


def _run(args, op: str, params: dict) -> tuple[str, TruthTable, FourierSpectrum, dict]:
    label, table = _resolve(args)
    spectrum = spectral.wht(table)
    return label, table, spectrum, runner.run_op(op, table, spectrum, params, args.seed)


def _params(**fields) -> dict:
    """Op params from argparse fields; an unset (None) field is left out."""
    return {key: value for key, value in fields.items() if value is not None}


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        print("\n".join(lines))


def cmd_gen(args) -> int:
    params: dict = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not value:
            raise UsageError(f"bad parameter {item!r}; expected key=value")
        if "," in value:
            params[key] = [int(x) for x in value.split(",")]
        else:
            params[key] = int(value)
    if args.family == "random" and "seed" not in params:
        params["seed"] = args.seed
    if args.family == "junta":
        if not args.inner:
            raise UsageError("gen junta requires --inner FILE")
        _, inner = runner.resolve_function({"path": args.inner}, Path("."), args.max_n)
        masks = params.get("masks")
        if not isinstance(masks, list):
            masks = [masks] if masks is not None else []
        table = families.gen_junta(inner, masks, int(params["n"]))
        label = f"junta(inner={args.inner},n={params['n']})"
    else:
        spec = FunctionSpec(args.family, params)
        table = build_function(spec)
        label = spec.label()
    text = canonical_json(spectral.table_to_dict(table))
    if args.output:
        Path(args.output).write_text(text)
        print(f"{label}: n = {table.n}, wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    label, table, spectrum, result = _run(args, "analyze", {})
    payload = {"function": label, "n": table.n, "analyze": result}
    lines = [
        f"function: {label} (n = {table.n})",
        f"sparsity k = {result['sparsity']}",
        f"plateaued: {result['plateaued']}",
        f"spectral l1 = {result['l1']} (l1^2 <= k: {result['l1_squared_le_sparsity']})",
        f"parseval: {result['parseval']}",
        f"titsworth violations: {result['titsworth_violations']}",
    ]
    if args.restrict:
        system = restriction.system_from_list(spectral.read_json(args.restrict), table.n)
        restricted = restriction.restrict(spectrum, system)
        gammas = [mask for mask, _ in system.constraints]
        bound = restriction.identification_bound_check(
            spectrum.support(), gammas, table.n
        )
        payload["restrict"] = {
            "constraints": restriction.system_to_list(system),
            "codimension": system.codimension,
            "restricted_sparsity": restricted.sparsity,
            "restricted_support": sorted(restricted.coeffs),
            "bucket_report": bound.report.to_dict(),
            "identified_count": bound.identified_count,
            "identification_bound": bound.bound,
        }
        lines += [
            f"restricted by {args.restrict} (codimension {system.codimension}): "
            f"sparsity {restricted.sparsity}",
            f"buckets {bound.actual} <= bound {bound.bound} "
            f"(h = {bound.identified_count})",
        ]
    _emit(args, payload, lines)
    ok = result["parseval"] and not result["titsworth_violations"]
    return 0 if ok else CHECK_FAILED


def cmd_fold(args) -> int:
    params = _params(ell=args.ell, delta=args.delta, pairs=args.pairs)
    label, _, spectrum, result = _run(args, "fold", params)
    payload = {"function": label, "fold": result}
    lines = [
        f"function: {label} (k = {spectrum.sparsity})",
        f"directions: {result['profile']['direction_count']}, "
        f"class sizes {result['profile']['min_class_size']}..{result['profile']['max_class_size']}",
        f"histogram: {result['profile']['histogram']}",
        f"delta at ell = {result['ell']}: {result['delta']} "
        f"({result['heavy_pair_count']} heavy pairs, class threshold {result['class_size_threshold']})",
    ]
    if "heavy_participants" in result:
        lines.append(f"heavy participants: {len(result['heavy_participants'])} of {spectrum.sparsity}")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    if args.check == "counterexample":
        if args.n is None:
            raise UsageError("verify counterexample requires --n")
        support = folding.counterexample_support(args.n)
        pair = folding.check_pair_condition(support)
        sign = folding.sign_feasibility(support)
        passed = pair.ok and not sign.feasible
        payload = {
            "check": "counterexample",
            "n": args.n,
            "support": list(support),
            "pair_condition": pair.ok,
            "sign_feasibility": sign.to_dict(),
            "passed": passed,
        }
        lines = [
            f"counterexample support, n = {args.n}: {len(support)} masks",
            f"pair condition holds: {pair.ok}",
            f"sign system infeasible: {not sign.feasible} "
            f"(witness of {0 if sign.witness is None else len(sign.witness)} constraints)",
        ]
        _emit(args, payload, lines)
        return 0 if passed else CHECK_FAILED
    if args.function is None:
        raise UsageError(f"verify {args.check} requires a FUNCTION argument")
    label, _, _, result = _run(args, "verify", {"check": args.check})
    payload = {"function": label, "verify": result}
    lines = [f"function: {label}", f"{args.check}: {'pass' if result['passed'] else 'FAIL'}"]
    _emit(args, payload, lines)
    return 0 if result["passed"] else CHECK_FAILED


def cmd_pdt(args) -> int:
    if args.pdt_command == "build":
        # the pdt op in two halves, so the tree and log come from its build
        label, table = _resolve(args)
        params = _params(
            strategy=args.strategy,
            probability=args.probability,
            resample_cap=args.resample_cap,
            epsilon=args.epsilon,
            delta=args.delta,
            ell=args.ell,
        )
        build = runner.build_tree(spectral.wht(table), params, args.seed)
        result = runner.tree_summary(table, build)
        if args.output:
            Path(args.output).write_text(canonical_json(build.tree.to_dict()))
        if args.log:
            Path(args.log).write_text(build.log_jsonl() + "\n")
        lines = [
            f"function: {label}",
            f"strategy {result['strategy']}, seed {result['seed']}",
            f"depth {result['depth']}, verified {result['verified']}",
        ]
        _emit(args, {"function": label, "pdt": result}, lines)
        return 0 if result["verified"] else CHECK_FAILED
    tree = pdt.ParityDecisionTree.from_dict(spectral.read_json(args.tree))
    if args.pdt_command == "verify":
        label, table = _resolve(args)
        ok = pdt.verify_tree(tree, table)
        _emit(
            args,
            {"tree": args.tree, "function": label, "verified": ok},
            [f"tree {args.tree} vs {label}: {'agree on all inputs' if ok else 'MISMATCH'}"],
        )
        return 0 if ok else CHECK_FAILED
    _emit(args, {"tree": args.tree, "depth": tree.depth()}, [f"depth {tree.depth()}"])
    return 0


def cmd_mc(args) -> int:
    params = _params(kind=args.kind, trials=args.trials, p=args.p, delta=args.delta, ell=args.ell)
    label, _, _, result = _run(args, "mc", params)
    stats = result["stats"]
    payload = {"function": label, "mc": result}
    lines = [
        f"function: {label} (k = {stats['k']})",
        f"{args.kind}: {stats['trials']} trials, p = {stats['probabilities']}"
        + (" (clamped)" if stats["clamped"] else ""),
        f"mean buckets/k = {stats['mean_bucket_fraction']} "
        f"~= {stats['mean_bucket_fraction_float']:.6f}, CI95 {stats['ci95']}",
    ]
    if "success_fraction" in stats:
        lines.append(
            f"success fraction (buckets <= {stats['success_threshold']}): "
            f"{stats['success_fraction']}"
        )
    _emit(args, payload, lines)
    if args.csv:
        text = pdt.TrialStats.CSV_HEADER + "\n" + pdt.TrialStats.csv_row(stats) + "\n"
        Path(args.csv).write_text(text)
    return 0


def cmd_experiment(args) -> int:
    started = time.monotonic()
    config = runner.load_config(args.config)
    if args.max_n is not None:
        config.setdefault("max_n", args.max_n)
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
                        help="write a CSV summary to this path")
    max_n = runner.DEFAULT_MAX_N
    parser.add_argument("--max-n", type=int, default=default(max_n), dest="max_n",
                        help=f"refuse functions above this dimension (default {max_n})")


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
    p_gen.add_argument("family", choices=[
        "addressing", "modified-addressing", "inner-product", "parity",
        "conjunction", "junta", "random",
    ])
    p_gen.add_argument("param", nargs="*", help="family parameters, e.g. k=16 or n=6")
    p_gen.add_argument("--inner", default=None, help="inner function file for junta")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_analyze = sub.add_parser("analyze", parents=[common], help="spectrum, sparsity, plateaued, l1, exact identities")
    p_analyze.add_argument("function")
    p_analyze.add_argument("--restrict", default=None,
                           help="constraint-system JSON file to restrict by")
    p_analyze.set_defaults(func=cmd_analyze)

    p_fold = sub.add_parser("fold", parents=[common], help="direction classes, folding parameters, heavy participants")
    p_fold.add_argument("function")
    p_fold.add_argument("--ell", default="1/2")
    p_fold.add_argument("--delta", default=None)
    p_fold.add_argument("--pairs", action="store_true",
                        help="materialize per-direction pair lists (guarded for large k)")
    p_fold.set_defaults(func=cmd_fold)

    p_verify = sub.add_parser("verify", parents=[common], help="structural verifiers (exit 1 on failure)")
    p_verify.add_argument("check", choices=[
        "pair-condition", "three-fold", "single-direction", "sign-feasibility",
        "counterexample", "titsworth", "parseval",
    ])
    p_verify.add_argument("function", nargs="?")
    p_verify.add_argument("--n", type=int, default=None, help="dimension for counterexample")
    p_verify.set_defaults(func=cmd_verify)

    p_pdt = sub.add_parser("pdt", parents=[common], help="build / verify / measure parity decision trees")
    pdt_sub = p_pdt.add_subparsers(dest="pdt_command", required=True)
    p_build = pdt_sub.add_parser("build", parents=[common])
    p_build.add_argument("function")
    p_build.add_argument("--strategy", default="sampling", choices=list(pdt.STRATEGIES))
    p_build.add_argument("--epsilon", default="1/2")
    p_build.add_argument("--probability", default=None)
    p_build.add_argument("--resample-cap", type=int, default=64, dest="resample_cap")
    p_build.add_argument("--delta", default=None)
    p_build.add_argument("--ell", default=None)
    p_build.add_argument("-o", "--output", default=None, help="write the tree JSON here")
    p_build.add_argument("--log", default=None, help="write the per-node build log (JSON lines)")
    p_build.set_defaults(func=cmd_pdt)
    p_tverify = pdt_sub.add_parser("verify", parents=[common])
    p_tverify.add_argument("tree")
    p_tverify.add_argument("function")
    p_tverify.set_defaults(func=cmd_pdt)
    p_depth = pdt_sub.add_parser("depth", parents=[common])
    p_depth.add_argument("tree")
    p_depth.set_defaults(func=cmd_pdt)

    p_mc = sub.add_parser("mc", parents=[common], help="seeded Monte Carlo bucket experiments")
    p_mc.add_argument("kind", choices=["theorem-1", "warmup", "theorem-2"])
    p_mc.add_argument("function")
    p_mc.add_argument("--p", default=None, help="sampling probability (fraction), theorem-1 only")
    p_mc.add_argument("--trials", type=int, default=200)
    p_mc.add_argument("--delta", default=None)
    p_mc.add_argument("--ell", default=None)
    p_mc.set_defaults(func=cmd_mc)

    p_exp = sub.add_parser("experiment", parents=[common], help="run a config-driven experiment")
    p_exp.add_argument("config")
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, runner.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (
        folding.FoldingBoundError,
        folding.AddressingProfileError,
        restriction.IdentificationBoundError,
        pdt.ResampleCapExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
