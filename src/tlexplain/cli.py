"""Command-line entry point: run orchestration and result export.

Subcommands::

    tlexplain search    --config run.yaml [--out DIR] [--seed N]
    tlexplain oracle    --config run.yaml [--out DIR] [--seed N]
    tlexplain enumerate --config run.yaml [--list]
    tlexplain eval      --config run.yaml [--seed N] "F(...) & G(...)"
    tlexplain trace-dot TRACE.jsonl [--out FILE]

Exit statuses: 0 ok (also when the reader closes stdout), 2 config/IO
error, 3 guarded operation refused, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import yaml

from . import formula as fm
from . import rl
from .config import (SCHEMA_VERSION, ConfigError, RunConfig, build_env, build_predicates,
                     build_runtime, load_config, read_utf8)
from .envs import StateSpaceTooLargeError
from .search import brute_force_oracle, multi_start

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

RESULT_COLUMNS = ("rank", "explanation", "wkl", "utility", "mean_return",
                  "filtered", "searched_specs_pct", "restart_id", "seed")
# the trace node fields trace-dot reads, with the JSON types search writes
TRACE_FIELDS = {
    "node_id": ((int,), "an integer"),
    "restart": ((int,), "an integer"),
    "key": ((str,), "a string"),
    "utility": ((int, float, type(None)), "a number or null"),
    "filtered": ((bool,), "a boolean"),
    "parent": ((str, type(None)), "a string or null"),
    "move": ((str,), "a string"),
}


class MalformedTraceError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.output = args.out
    return cfg


def _output_dir(cfg: RunConfig) -> Path:
    """``cfg.output``, made before the solve, so that a bad path fails first."""
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_manifest(cfg: RunConfig, out_dir: Path) -> None:
    manifest = yaml.safe_dump(cfg.to_dict(), sort_keys=True)
    (out_dir / "manifest.yaml").write_text(manifest)


def _shortcut_summary(evaluator) -> str:
    """How many evaluations the evaluator's exact shortcuts left untrained."""
    return (f"{len(evaluator.cache)} evaluations: {evaluator.n_unreachable} without "
            f"training (acceptance unreachable), {evaluator.n_product_hits} reused "
            "a trained product")


def _print_row_classes(evaluator) -> None:
    """Under soft VI, how many row classes it trained on, of how many rows."""
    if evaluator.cfg.trainer.mode == rl.EXACT_SOFT_VI:
        print(f"soft VI on {evaluator.product_model.n_rows} row classes of "
              f"{evaluator.model.n_rows} rows")


def cmd_search(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    runtime = build_runtime(cfg)
    out_dir = _output_dir(cfg)
    result = multi_start(runtime.evaluator, cfg.search)
    _write_manifest(cfg, out_dir)

    with (out_dir / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for rank, res in enumerate(result.results, start=1):
            rec = res.record
            writer.writerow([
                rank, res.key or "", _fmt(rec.wkl if rec else None),
                _fmt(res.utility), _fmt(rec.mean_return if rec else None),
                _fmt(rec is None),
                _fmt(100.0 * res.searched_frac), res.restart, cfg.seed,
            ])

    with (out_dir / "trace.jsonl").open("w") as fh:
        for node in result.traces:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION, **asdict(node)},
                                sort_keys=True) + "\n")

    print(f"searched {100.0 * result.overall_searched_frac:.2f}% of "
          f"{result.denominator} explanations over {cfg.search.n_search} restarts")
    print(f"{'rank':>4}  {'wKL':>12}  {'searched%':>9}  explanation")
    for rank, res in enumerate(result.results, start=1):
        wkl = res.record.wkl if res.record else None
        key = res.key or "(no unfiltered explanation)"
        print(f"{rank:>4}  {_fmt(wkl):>12}  {100.0 * res.searched_frac:>9.2f}  {key}")
    _print_row_classes(runtime.evaluator)
    print(_shortcut_summary(runtime.evaluator))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    runtime = build_runtime(cfg)
    out_dir = _output_dir(cfg)
    ranked, filtered = brute_force_oracle(runtime.evaluator)
    with (out_dir / "oracle.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("rank", "explanation", "wkl", "utility", "mean_return"))
        for rank, rec in enumerate(ranked, start=1):
            writer.writerow([rank, rec.key, _fmt(rec.wkl), _fmt(rec.utility),
                             _fmt(rec.mean_return)])
        fh.write(f"# filtered: {len(filtered)}\n")
    for rank, rec in enumerate(ranked[:10], start=1):
        print(f"{rank:>4}  {_fmt(rec.wkl):>12}  {rec.key}")
    print(f"({len(ranked)} ranked, {len(filtered)} filtered)")
    _print_row_classes(runtime.evaluator)
    print(_shortcut_summary(runtime.evaluator))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cfg = load_config(args.config)
    predicates = build_predicates(cfg, build_env(cfg))
    canons = fm.enumerate_all(predicates, cap=cfg.search.enumeration_cap)  # checks the cap
    print(fm.class_size(len(predicates)))
    if args.list:
        for key in sorted(fm.render(canon, predicates) for canon in canons):
            print(key)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    # parse before build_runtime, which trains the target: bad text fails fast
    canon = fm.parse_explanation(args.explanation, build_predicates(cfg, build_env(cfg)))
    evaluator = build_runtime(cfg).evaluator
    rec = evaluator.evaluate(canon)
    _print_row_classes(evaluator)
    print(f"explanation:  {rec.key}")
    print(f"mean return:  {_fmt(rec.mean_return)}")
    if rec.filtered:
        unreachable = evaluator.n_unreachable > 0
        why = "acceptance unreachable" if unreachable else "failed the return filter"
        print(f"filtered:     true ({why})")
    else:
        print(f"wKL:          {_fmt(rec.wkl)}")
        print(f"utility:      {_fmt(rec.utility)}")
    return EXIT_OK


def _trace_node(line: str) -> tuple:
    """The ``TRACE_FIELDS`` of one trace line, in order; ValueError if the
    line is not a node ``cmd_search`` could have written."""
    node = json.loads(line)
    if not isinstance(node, dict):
        raise ValueError(f"a trace node must be a JSON object, got {node!r}")
    for field, (types, kind) in TRACE_FIELDS.items():
        if field not in node:
            raise ValueError(f"missing field {field!r}")
        value = node[field]
        # JSON true/false load as bool, which is an int subclass
        if not isinstance(value, types) or isinstance(value, bool) != (bool in types):
            raise ValueError(f"{field} must be {kind}, got {value!r}")
    if not node["filtered"] and node["utility"] is None:
        raise ValueError("an unfiltered node needs a numeric utility")
    return tuple(node[field] for field in TRACE_FIELDS)


def _dot_escape(text: str) -> str:
    """``text`` inside a DOT quoted string: each backslash, then each
    double quote, escaped with a backslash."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def cmd_trace_dot(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        raise ConfigError(f"trace file not found: {trace_path}")
    nodes = []
    for lineno, line in enumerate(read_utf8(trace_path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            # json.JSONDecodeError is a ValueError; RecursionError is json's
            # answer to arrays or objects nested too deep to decode
            nodes.append(_trace_node(line))
        except (ValueError, RecursionError) as exc:
            raise MalformedTraceError(f"{trace_path}:{lineno}: {exc}") from exc

    # extension edges are dashed, expansion edges dotted
    styles = {"flip": "solid", "expansion": "dotted", "extension": "dashed"}
    lines = ["digraph search_trace {", "  node [shape=box, fontsize=10];"]
    last_node_for = {}
    for node_id, restart, key, utility, filtered, parent, move in nodes:
        score = "filtered" if filtered else f"wKL {-utility:.3g}"
        lines.append(f'  n{node_id} [label="{_dot_escape(key)}\\n{score}"];')
        if parent is not None and (restart, parent) in last_node_for:
            style = styles.get(move, "solid")
            lines.append(f"  n{last_node_for[(restart, parent)]} -> n{node_id} "
                         f'[style={style}, label="{_dot_escape(move)}"];')
        last_node_for[(restart, key)] = node_id
    lines.append("}")
    dot = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer, as ``RunConfig.seed`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlexplain", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration YAML")
        p.add_argument("--seed", type=_seed, help="global seed override")

    p = sub.add_parser("search", help="run the multi-start greedy search")
    common(p)
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="rank every explanation by brute force")
    common(p)
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("enumerate", help="count canonical explanations")
    p.add_argument("--config", required=True)
    p.add_argument("--list", action="store_true", help="print every explanation")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", help="score one explanation against the target")
    common(p)
    p.add_argument("explanation", help='rendered form, e.g. "F(psi0) & G(!psi1)"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace-dot", help="convert a trace JSONL to a DOT graph")
    p.add_argument("trace", help="trace.jsonl produced by the search command")
    p.add_argument("--out", help="write the DOT graph here instead of stdout")
    p.set_defaults(func=cmd_trace_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (``--list | head``): not an error.  Point
        # stdout at devnull, so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (fm.CapExceededError, StateSpaceTooLargeError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ConfigError, MalformedTraceError, fm.ExplanationParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except rl.NoConvergenceError as exc:
        print(f"error: {exc}\nhint: raise trainer.tau or trainer.max_iterations",
              file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - invariant violations get status 4
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
