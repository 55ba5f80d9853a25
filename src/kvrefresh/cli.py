"""Command-line interface.

Subcommands (also under `python -m kvrefresh`): run, compare and
self-check. `run` reads a JSON config document; any config field can be
overridden with a dotted flag mirroring the config key, e.g.

    kvrefresh run --config base.json --policy.kind refreshkv \
        --schedule.mode qc --schedule.qc-stride 5 --schedule.threshold 0.85

Exit codes: 0 success, 1 configuration error, 2 invariant violation,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, ContractViolation
from .harness import RunConfig, compare, format_comparison, run, self_check

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply --a.b-c VALUE pairs onto a nested config dict."""
    i = 0
    while i < len(overrides):
        flag = overrides[i]
        if not flag.startswith("--") or flag == "--":
            raise ConfigurationError(f"unrecognized argument {flag!r}")
        if "=" in flag:
            flag, raw = flag.split("=", 1)
        else:
            i += 1
            if i >= len(overrides):
                raise ConfigurationError(f"missing value for {flag!r}")
            raw = overrides[i]
        path = [part.replace("-", "_") for part in flag[2:].split(".")]
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"cannot override non-section {part!r} in {flag!r}")
        node[path[-1]] = _parse_override_value(raw)
        i += 1
    return config


def _cmd_run(args: argparse.Namespace, overrides: list[str]) -> int:
    config_dict: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                config_dict = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"{args.config} is not a JSON document: {exc}") from exc
        if not isinstance(config_dict, dict):
            raise ConfigurationError(f"{args.config} must hold a JSON object, got {type(config_dict).__name__}")
    _apply_overrides(config_dict, overrides)
    config = RunConfig.from_dict(config_dict)
    summary = run(config, out_dir=args.out)
    result = summary["result"]
    metric = result.get("perplexity", result.get("chain_score"))
    print(f"task={summary['task']} policy={config.policy.kind} metric={metric:.6g} "
          f"steps={summary['n_steps']} bytes={summary['totals']['kv_bytes_moved']}")
    print(f"artifacts in {args.out or config.out_dir}")
    return EXIT_OK


def _run_self_check(seed: int) -> int:
    ok = True
    for name, passed, detail in self_check(seed):
        print(f"[{'PASS' if passed else 'FAIL'}] {name} ({detail})")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare(args.run_dirs, nll_csv=args.nll_csv)
    print(format_comparison(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, sort_keys=True, indent=2)
            f.write("\n")
        print(f"comparison written to {args.out}")
    if args.nll_csv:
        print(f"per-step NLL table written to {args.nll_csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvrefresh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment run")
    p_run.add_argument("--config", help="JSON run-config document")
    p_run.add_argument("--out", help="output directory (overrides config out_dir)")

    p_cmp = sub.add_parser("compare", help="compare finished runs")
    p_cmp.add_argument("run_dirs", nargs="+", help="run output directories")
    p_cmp.add_argument("--out", help="write comparison JSON here")
    p_cmp.add_argument("--nll-csv", help="write per-step NLL ratio CSV here (lm runs)")

    p_check = sub.add_parser("self-check", help="run the equivalence ladder")
    p_check.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args, overrides = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, overrides)
        if overrides:
            raise ConfigurationError(f"unrecognized arguments: {overrides}")
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "self-check":
            return _run_self_check(args.seed)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
