"""Command-line interface: generate configs, simulate records, analyze them,
audit the drift bound, and run extremal searches.

Exit codes are a stable contract: 0 success, 1 drift bound violated
(audit-drift), 2 usage or configuration error, 3 I/O error, 4 record-schema
violation.  Every random choice flows from the --seed flag, so simulated
records, CSV reports, and search results are byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import __version__
from .configs import (
    BUILTIN_IDS,
    ConfigSet,
    builtin_config,
    config_bloch_vectors,
    load_config,
    predicted_prob_matrix,
    save_config,
)
from .extremal import (
    DEFAULT_RESTARTS,
    KNOWN_MAXIMA,
    MAX_RESTARTS,
    maximize_witness,
    save_search_result,
)
from .noise import (
    AUDIT_BLOCK_MEMBERS,
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    audit_drift,
    coherent_leak_prob_matrix,
    drift_bound,
    generate_drift_ensemble,
)
from .reports import analyze_record, render_text, write_scatter_csv, write_scatter_svg
from .sampling import (
    RecordSchemaError,
    _check_run,
    load_record,
    save_record,
    simulate_record,
)
from .witness import W_CEILING, witness, witness_variance

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCHEMA = 4

#: audit-drift passes a pooled |W| up to this much above the bound, which
#: absorbs the determinant's round-off; a bound at or below it could never fail
_AUDIT_SLACK = 1e-12


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds are non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _check_out_path(flag: str, value: str | None) -> None:
    """Fail before the work, not after it: an output path given for ``flag``
    must be non-empty, lie in an existing directory and not be a directory
    itself.  ``None`` means the flag was not given."""
    if value is None:
        return
    if not value:
        raise OSError(f"{flag} given an empty path")
    if not Path(value).parent.is_dir():
        raise OSError(f"{flag} {value}: {Path(value).parent} is not a directory")
    if Path(value).is_dir():
        raise OSError(f"{flag} {value}: is a directory")


def _check_not_same_file(
    flag: str, value: str | None, other: str, other_value: str | None
) -> None:
    """Fail before the work, not after it: the output path ``value`` given for
    ``flag`` must not name the same file as ``other_value``, the path of
    ``other`` (an input, or another output), which it would overwrite.
    ``None`` means the flag was not given."""
    if value is None or other_value is None:
        return
    try:
        same = Path(value).samefile(other_value)
    except OSError:  # one of them does not exist yet
        same = os.path.realpath(value) == os.path.realpath(other_value)
    if same:
        raise OSError(f"{flag} {value}: is the same file as {other} {other_value}")


def _resolve_config(value: str) -> ConfigSet:
    """Accept a built-in id or a path to a config JSON file."""
    if value in BUILTIN_IDS:
        return builtin_config(value)
    path = Path(value)
    if path.exists():
        return load_config(path)
    raise ValueError(
        f"{value!r} is neither a built-in config id ({', '.join(BUILTIN_IDS)}) "
        "nor an existing config file"
    )


def cmd_gen_config(args) -> int:
    _check_out_path("--out", args.out)
    if args.id is not None:
        config = builtin_config(args.id)
    else:
        config = load_config(args.config)
    if args.out is None:
        out = Path(f"{config.id}.json")
        if out.name != f"{config.id}.json":
            raise ValueError(
                f"config id {config.id!r} is not a bare file name, so the default "
                "output <id>.json would leave the working directory; give --out"
            )
    else:
        out = Path(args.out)
    save_config(config, out)
    n, m = config_bloch_vectors(config)
    print(f"config {config.id!r} -> {out}")
    for j, (x, y, z) in enumerate(n, start=1):
        print(f"  prep n_{j} = ({x:+.6f}, {y:+.6f}, {z:+.6f})")
    for k, (x, y, z) in enumerate(m, start=1):
        print(f"  meas m_{k} = ({x:+.6f}, {y:+.6f}, {z:+.6f})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_out_path("--out", args.out)
    if args.config not in BUILTIN_IDS:
        _check_not_same_file("--out", args.out, "--config", args.config)
    config = _resolve_config(args.config)
    drift = None
    if args.drift_eps != 0.0:
        rates = (args.leak_lambda, args.leak_mu, args.readout_e0, args.readout_e1)
        if args.coherent_leak is not None or any(rates):
            raise ValueError(
                "--drift-eps cannot be combined with other noise flags "
                "(--coherent-leak, --leak-lambda, --leak-mu, --readout-e0/e1): "
                "drifted matrices are re-derived from the clean gate angles"
            )
        drift = DriftModel(args.drift_eps, args.jobs, args.drift_mode or "angle-jitter")
    elif args.drift_mode is not None:
        raise ValueError("--drift-mode has no effect without a nonzero --drift-eps")
    if args.leak_mu and not args.leak_lambda:
        # mu is the response of the leaked weight lambda, so alone it is a no-op
        raise ValueError("--leak-mu has no effect without a nonzero --leak-lambda")
    if args.coherent_leak is not None:
        true_p = coherent_leak_prob_matrix(config, args.coherent_leak)
    else:
        true_p = predicted_prob_matrix(config)
    if args.leak_lambda:
        true_p = apply_common_leakage(true_p, args.leak_lambda, args.leak_mu)
    if args.readout_e0 or args.readout_e1:
        true_p = apply_readout_error(true_p, args.readout_e0, args.readout_e1)

    job_ps = true_p
    if drift is not None:
        # the run's own check first, so a bad plan is named before a drifted
        # stack of its size is built; simulate_record checks a clean run
        _check_run(args.jobs, args.shots, args.reps, args.seed)
        job_ps = generate_drift_ensemble(config, drift, args.seed)
    record = simulate_record(
        job_ps, args.jobs, args.shots, args.reps, args.seed,
        config_id=config.id, device=args.device,
    )
    save_record(record, args.out)
    t = args.jobs * args.shots * args.reps
    sigma = math.sqrt(witness_variance(true_p, t))
    print(f"wrote {args.out}: {args.jobs} jobs x {args.shots} shots x {args.reps} reps")
    print(f"T = {t}")
    print(f"true W = {witness(true_p):+.6e}, predicted sigma(W) = {sigma:.6e}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _check_out_path("--out", args.out)
    _check_out_path("--svg", args.svg)
    _check_not_same_file("--out", args.out, "the record", args.record)
    _check_not_same_file("--svg", args.svg, "the record", args.record)
    _check_not_same_file("--svg", args.svg, "--out", args.out)
    record = load_record(args.record)
    report = analyze_record(record)
    print(render_text(report))
    if args.out is not None:
        write_scatter_csv(report, args.out)
        print(f"scatter CSV -> {args.out}")
    if args.svg is not None:
        write_scatter_svg(report, args.svg)
        print(f"scatter SVG -> {args.svg}")
    return EXIT_OK


def cmd_audit_drift(args) -> int:
    _check_out_path("--out", args.out)
    if args.config not in BUILTIN_IDS:
        _check_not_same_file("--out", args.out, "--config", args.config)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs > AUDIT_BLOCK_MEMBERS:  # one trial fills at most one block
        raise ValueError(f"--jobs must be <= {AUDIT_BLOCK_MEMBERS}, got {args.jobs}")
    config = _resolve_config(args.config)
    bound = drift_bound(args.drift_eps)
    # no |W| exceeds W_CEILING, so a bound at or above it could never fail
    if not bound < W_CEILING:
        raise ValueError(
            f"--drift-eps {args.drift_eps:g} gives bound 80*sqrt(2)*eps^2 = "
            f"{bound:.6e}, not below the largest possible |W| = {W_CEILING:g}, "
            "so the audit could not fail"
        )
    if not bound > _AUDIT_SLACK:
        raise ValueError(
            f"--drift-eps {args.drift_eps:g} gives bound 80*sqrt(2)*eps^2 = "
            f"{bound:.6e}, not above the round-off slack {_AUDIT_SLACK:g} that "
            "every pooled |W| is allowed, so the audit could not fail"
        )
    if args.jobs == 1:
        raise ValueError(
            "--jobs 1 pools one exactly witness-zero matrix per trial, whose "
            "|W| is round-off, so the audit could not fail; give --jobs >= 2"
        )
    both = args.drift_mode == "both"
    modes = ("angle-jitter", "column-mix") if both else (args.drift_mode,)
    # checked before any draw, so a usage error prints nothing to stdout
    worst = audit_drift(config, args.drift_eps, args.jobs, modes, args.seed, args.trials)
    print(
        f"auditing {args.trials} ensembles of {args.jobs} jobs at "
        f"eps = {args.drift_eps:g} (bound 80*sqrt(2)*eps^2 = {bound:.6e})"
    )
    all_ok = True
    rows = ["mode,trials,max_abs_pooled_W,bound,fraction,pass"]
    for mode, mode_worst in zip(modes, worst):
        ok = mode_worst <= bound + _AUDIT_SLACK
        all_ok &= ok
        frac = mode_worst / bound
        rows.append(f"{mode},{args.trials},{mode_worst!r},{bound!r},{frac!r},{ok}")
        print(
            f"  {mode:12s}: max pooled |W| = {mode_worst:.6e} "
            f"({100.0 * frac:.3f}% of bound) -> {'PASS' if ok else 'FAIL'}"
        )
    if args.out is not None:
        Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"audit CSV -> {args.out}")
    print("PASS: bound never violated" if all_ok else "FAIL: bound violated")
    return EXIT_OK if all_ok else EXIT_BOUND_VIOLATED


def cmd_optimize(args) -> int:
    restarts = DEFAULT_RESTARTS[args.dim] if args.restarts is None else args.restarts
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"--restarts must be in [1, {MAX_RESTARTS}], got {restarts}")
    _check_out_path("--out", args.out)
    label, target = KNOWN_MAXIMA[(args.dim, args.field)]
    print(f"d = {args.dim}, field = {args.field}, restarts = {restarts}")
    print(f"target: {label}")
    result = maximize_witness(args.dim, args.field, restarts, seed=args.seed)
    print(f"best |W| = {abs(result.best_W):.12f}  (converged: {result.converged})")
    if target is not None:
        print(f"gap to target: {abs(result.best_W) - target:+.3e}")
    if args.out is not None:
        save_search_result(result, args.out)
        print(f"search result JSON -> {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused: parsing leaves
    no state on it, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="qubitcert",
        description="Determinant dimension-witness certification toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"qubitcert {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-config", help="write a config JSON and show its Bloch vectors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("id", nargs="?", help=f"built-in id: {', '.join(BUILTIN_IDS)}")
    group.add_argument("--config", help="custom config file to canonicalize")
    p.add_argument("--out", help="output path (default: <id>.json)")
    p.set_defaults(func=cmd_gen_config)

    p = sub.add_parser("simulate", help="simulate an experiment record")
    p.add_argument("--config", required=True, help="built-in id or config file")
    p.add_argument("--jobs", type=int, default=10)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--leak-lambda", type=float, default=0.0, help="common leakage weight")
    p.add_argument("--leak-mu", type=float, default=0.0, help="external-state response")
    p.add_argument("--readout-e0", type=float, default=0.0, help="P(read 1 | true 0)")
    p.add_argument("--readout-e1", type=float, default=0.0, help="P(read 0 | true 1)")
    p.add_argument("--drift-eps", type=float, default=0.0, help="per-job drift budget")
    p.add_argument("--drift-mode", choices=["angle-jitter", "column-mix"])
    p.add_argument(
        "--coherent-leak", type=float, default=None, metavar="CHI",
        help="coherent leak angle per gate (three-level model)",
    )
    p.add_argument("--device", default="simulator", help="device label for the record")
    p.add_argument("--out", default="record.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze a record file")
    p.add_argument("record", help="record JSON file")
    p.add_argument("--out", help="per-job scatter CSV path")
    p.add_argument("--svg", help="per-job scatter SVG path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("audit-drift", help="stress the pooled-drift bound")
    p.add_argument("--config", required=True)
    p.add_argument("--drift-eps", type=float, required=True)
    p.add_argument("--jobs", type=int, default=10)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--drift-mode",
        choices=["both", "angle-jitter", "column-mix"],
        default="both",
    )
    p.add_argument("--out", help="audit summary CSV path")
    p.set_defaults(func=cmd_audit_drift)

    p = sub.add_parser("optimize", help="maximize |W| over d-dimensional strategies")
    p.add_argument("--dim", type=int, choices=[2, 3, 4], required=True)
    p.add_argument("--field", choices=["real", "complex"], default="complex")
    p.add_argument("--restarts", type=int, default=None, help="default: per-dim budget")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="search result JSON path")
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except RecordSchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: the run does not fit in memory", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
