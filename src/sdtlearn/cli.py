"""Command-line entry points: gen-tree, sample, corrupt, find, regress, eval, sweep."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict
from typing import get_type_hints

import numpy as np

from . import data, evaluation, harness, polynomials, regression, trees
from .find import find


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_gen_tree(args: argparse.Namespace) -> int:
    tree = trees.random_tree(args.n, args.size, args.stoch_fraction, _rng(args.seed))
    _write(args.out, trees.dump_tree(tree))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    tree = trees.load_tree(_read(args.tree))
    harness.check_draw_budget(tree.n, args.samples)
    ds = data.draw_clean(tree, args.samples, _rng(args.seed))
    _write(args.out, data.dump_dataset(ds))
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    tree = trees.load_tree(_read(args.tree))
    ds = data.load_dataset(_read(args.data))
    out = data.corrupt(ds, args.eta, data.Adversary(args.adversary), tree, _rng(args.seed))
    _write(args.out, data.dump_dataset(out))
    return 0


def cmd_find(args: argparse.Namespace) -> int:
    ds = data.load_dataset(_read(args.data))
    start = time.perf_counter()
    result = find(ds, args.depth)
    wall_time = time.perf_counter() - start
    _write(args.out, trees.dump_tree(result.tree))
    stats = {
        "empirical_error": result.empirical_error,
        "error_count": result.error_count,
        "nodes_expanded": result.stats.nodes_expanded,
        "cache_hits": result.stats.cache_hits,
        "wall_time": wall_time,
    }
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    ds = data.load_dataset(_read(args.data))
    degree = regression.degree_budget(args.size_hint, args.eps, ds.n)
    hyp = regression.learn_pipeline(ds, args.norm, degree)
    _write(args.out, polynomials.dump_polynomial(hyp.poly))
    print(json.dumps({"mode": hyp.mode, "degree": hyp.poly.degree}, sort_keys=True))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    tree = trees.load_tree(_read(args.tree))
    # The experiment the report describes; building it checks the arguments'
    # ranges, the depth budget's as max_depth.  A tree over no variables is
    # still evaluated.
    cfg = harness.ExperimentConfig(
        n=max(tree.n, 1), s=tree.size, m=args.samples, eps=args.eps, method=args.method,
        eta=args.eta, adversary=args.adversary, seed=args.seed, max_depth=args.depth_budget or 0,
    )
    if args.method == "find":
        hypothesis: evaluation.Hypothesis = trees.load_tree(_read(args.hypothesis))
        depth_budget, degree_budget = args.depth_budget, None
    else:
        poly = polynomials.load_polynomial(_read(args.hypothesis))
        hypothesis = regression.TruncatedPolyHypothesis(poly, regression.MODES[args.method])
        depth_budget, degree_budget = None, poly.d
    report = harness.report(cfg, tree, hypothesis, depth_budget, degree_budget, _rng(args.seed))
    print(report.to_json())
    if args.out:
        with open(args.out, "w") as fh:
            list(harness.csv_rows([report], fh))
    return 0


def _load_config(path: str | None, overrides: argparse.Namespace) -> harness.ExperimentConfig:
    values: dict = {}
    if path:
        for line in _read(path).splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, raw = map(str.strip, line.partition("="))
            if key in values:
                raise ValueError(f"config key {key!r} appears twice")
            values[key] = raw
    # Coerce by field type, so `eta=0` and `eta=0.0` give the same config.
    known = get_type_hints(harness.ExperimentConfig)
    parsed: dict = {}
    for key, raw in values.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed[key] = known[key](raw)
        except ValueError:
            raise ValueError(f"config key {key!r} needs a {known[key].__name__}, got {raw!r}") from None
    # Every parsed argument named after a config field overrides the file.
    for key in known:
        value = getattr(overrides, key, None)
        if value is not None:
            parsed[key] = value
    try:
        return harness.ExperimentConfig(**parsed)
    except TypeError as exc:
        raise ValueError(f"incomplete sweep config: {exc}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args.config, args)
    etas = [float(e) for e in args.etas.split(",")] if args.etas else [base.eta]
    configs = harness.sweep_grid(base, etas, args.trials)
    reports = (harness.run_experiment(cfg) for cfg in configs)
    # Opened before the first experiment, so an unwritable path fails first;
    # each row is written as its experiment ends, and no report is kept.
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        aggregates = harness.aggregate(harness.csv_rows(reports, out) if out else reports)
    for agg in aggregates:
        print(json.dumps(asdict(agg), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdtlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="generate a random stochastic tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--stoch-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_tree)

    p = sub.add_parser("sample", help="draw uniform labeled samples from a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("corrupt", help="apply an adversary to a clean sample")
    p.add_argument("--data", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--adversary", default="label_flip_random",
                   choices=[a.value for a in data.Adversary])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("find", help="fit the optimal depth-bounded tree")
    p.add_argument("--data", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("regress", help="fit a low-degree polynomial")
    p.add_argument("--data", required=True)
    p.add_argument("--norm", choices=("l1", "l2"), required=True)
    p.add_argument("--size-hint", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("eval", help="guarantee accounting for a hypothesis")
    p.add_argument("--tree", required=True, help="ground-truth tree file")
    p.add_argument("--hypothesis", required=True, help="tree or polynomial file")
    p.add_argument("--method", choices=harness.METHODS, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--adversary", default="none", choices=[a.value for a in data.Adversary])
    p.add_argument("--depth-budget", type=int, default=None)
    p.add_argument("--out", default=None, help="also write a CSV row here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a seeded experiment grid")
    p.add_argument("--config", default=None, help="flat key=value file")
    p.add_argument("--etas", default=None, help="comma-separated eta grid")
    p.add_argument("--trials", type=int, default=1, help="seeded trials per eta")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--method", choices=harness.METHODS, default=None)
    p.add_argument("--adversary", default=None,
                   choices=[a.value for a in data.Adversary])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stoch-fraction", type=float, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, regression.L1SolverError) as exc:
        raise SystemExit(f"sdtlearn {args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
