"""Command-line front end.

Subcommands expose the library operations on graphs given as files in the
edge-list format or as built-in names (prism, k33, bihexagon, bipentagon,
csl:R). Exit codes: 0 success, 1 failed check or unseparated pair, 2 usage
or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import discriminate, gnn, spectral, tables, wl
from .gnn import FilterParams, StochasticConfig
from .graphs import Graph, GraphError, corpus_graph, load_graph, save_graph

CONFIG_ENV_VAR = "SPECTRAWL_CONFIG"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(float(x)) for x in v) + "]"


def resolve_graph(spec: str) -> Graph:
    """A graph argument: corpus name, 'csl:R', or a path to an edge-list file."""
    try:
        return corpus_graph(spec)
    except KeyError:
        pass
    if spec.startswith("csl:"):
        return discriminate.csl_base_graph(41, int(spec.split(":", 1)[1]))
    return load_graph(spec)


def load_config(path: str | None) -> dict:
    """JSON config file; --config beats the SPECTRAWL_CONFIG env var."""
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise GraphError(f"config file {path} must hold a JSON object")
    return cfg


def _setting(args, cfg: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _parse_filter(text) -> FilterParams:
    if isinstance(text, (list, tuple)):
        return FilterParams(tuple(float(x) for x in text))
    return FilterParams(tuple(float(tok) for tok in str(text).split(",")))


def _pair_config(args, cfg: dict) -> discriminate.PairConfig:
    filt = _setting(args, cfg, "filter", None)
    sigma = _setting(args, cfg, "sigma", "relu")
    tol = _setting(args, cfg, "tol", 1e-6)
    return discriminate.PairConfig(
        filter=_parse_filter(filt) if filt is not None else discriminate.PAIR_FILTER,
        sigma=gnn.as_nonlinearity(sigma),
        tol=float(tol),
    )


def _csl_spec(cfg: dict, seed=None) -> discriminate.CslSpec:
    raw = cfg.get("csl", {})
    return discriminate.CslSpec(
        n=int(raw.get("n", 41)),
        skips=tuple(raw.get("skips", discriminate.DEFAULT_CSL_SKIPS)),
        copies_per_class=int(raw.get("copies_per_class", 15)),
        seed=int(seed if seed is not None else raw.get("seed", 0)),
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_wl(args, cfg: dict) -> int:
    g1 = resolve_graph(args.graph)
    if args.graph2 is None:
        coloring = wl.wl_refine(g1, init=args.init)
        print(f"graph: {g1.name or args.graph} (n={g1.n})")
        for t, colors in enumerate(coloring.colors):
            print(f"iteration {t}: {list(colors)}")
        print(f"stable_at: {coloring.stable_at}")
        print(f"classes: {coloring.num_classes}")
        return 0
    g2 = resolve_graph(args.graph2)
    verdict = wl.wl_distinguish(g1, g2, init=args.init)
    print(verdict)
    return 0 if verdict == "distinguished" else 1


def cmd_spectral(args, cfg: dict) -> int:
    g1 = resolve_graph(args.graph)
    s1 = spectral.eigendecompose(g1)
    print(f"graph: {g1.name or args.graph} (n={g1.n})")
    print("grouped spectrum (value x multiplicity):")
    for grp in s1.groups:
        print(f"  {_fmt(grp.value)} x {grp.multiplicity}")
    print(f"|u^T 1|: {_fmt_vec(spectral.eigenvector_one_products(s1))}")
    if args.graph2 is None:
        return 0
    g2 = resolve_graph(args.graph2)
    tol = float(_setting(args, cfg, "tol", 1e-6))
    witness = spectral.spectra_differ(s1, g2, tol)
    if witness is None:
        print("spectra match: no witness")
        return 1
    print(f"witness eigenvalue: {_fmt(witness)}")
    return 0


def cmd_features(args, cfg: dict) -> int:
    g = resolve_graph(args.graph)
    depth = int(_setting(args, cfg, "depth", 10))
    x = gnn.diag_powers(g, depth)
    lines = [",".join(f"k{k}" for k in range(depth))]
    lines += [",".join(_fmt(v) for v in row) for row in x]
    _emit("\n".join(lines), args.out or cfg.get("out"))
    return 0


def cmd_discriminate(args, cfg: dict) -> int:
    g1 = resolve_graph(args.graph)
    g2 = resolve_graph(args.graph2)
    config = _pair_config(args, cfg)
    fmt = _setting(args, cfg, "format", "json")
    if fmt == "csv":
        summary = discriminate.run_benchmark([(g1, g2)], config)
        _emit(summary.to_csv(), args.out or cfg.get("out"))
        return 0 if summary.rows[0].overall == "separable" else 1
    report = discriminate.discriminate_pair(g1, g2, config)
    _emit(report.to_json(), args.out or cfg.get("out"))
    return 0 if report.overall == "separable" else 1


def cmd_csl(args, cfg: dict) -> int:
    spec = _csl_spec(cfg, seed=args.seed)
    if args.generate:
        os.makedirs(args.generate, exist_ok=True)
        dataset = discriminate.csl_generate(spec)
        for g, label in dataset:
            save_graph(g, os.path.join(args.generate, f"class{label:02d}_{g.name}.txt"))
        print(f"wrote {len(dataset)} graphs to {args.generate}")
        return 0
    # classify: labels are parsed from the classNN_ filename prefix
    names = sorted(f for f in os.listdir(args.classify) if f.endswith(".txt"))
    if not names:
        print(f"no .txt graphs under {args.classify}", file=sys.stderr)
        return 2
    dataset = []
    for fname in names:
        label = int(fname.split("_", 1)[0].removeprefix("class"))
        dataset.append((load_graph(os.path.join(args.classify, fname)), label))
    accuracy, scores = discriminate.csl_classify(dataset, spec)
    print(f"graphs: {len(dataset)}")
    print(f"distinct scores: {sorted(set(round(s, 6) for s in scores))}")
    print(f"accuracy: {accuracy:.4f}")
    return 0 if accuracy == 1.0 else 1


def cmd_reproduce(args, cfg: dict) -> int:
    diffs = tables.compare_table(args.table)
    bad = [d for d in diffs if not d.ok]
    for d in diffs:
        if not d.ok or args.verbose:
            print(d)
    print(f"table {args.table}: {len(diffs) - len(bad)}/{len(diffs)} values match")
    print("MATCH" if not bad else "MISMATCH")
    return 0 if not bad else 1


def cmd_stochastic(args, cfg: dict) -> int:
    g = resolve_graph(args.graph)
    filt = _setting(args, cfg, "filter", None)
    h = _parse_filter(filt) if filt is not None else discriminate.PAIR_FILTER
    scfg = StochasticConfig(
        variance=float(_setting(args, cfg, "variance", 1.0)),
        samples=int(_setting(args, cfg, "samples", 100_000)),
        seed=int(_setting(args, cfg, "seed", 0)),
        distribution=str(_setting(args, cfg, "distribution", "gaussian")),
    )
    estimate, stderr = gnn.stochastic_variance(g, h, scfg)
    closed = gnn.diagonal_module(g, gnn.self_convolve(h, scfg.variance), gnn.LINEAR)
    print(f"graph: {g.name or args.graph}  samples: {scfg.samples}  "
          f"distribution: {scfg.distribution}  seed: {scfg.seed}")
    print(f"monte-carlo: {_fmt_vec(estimate)}")
    print(f"stderr:      {_fmt_vec(stderr)}")
    print(f"closed form: {_fmt_vec(closed)}")
    worst = float(np.max(np.abs(estimate - closed) / np.maximum(stderr, 1e-300)))
    print(f"worst deviation: {worst:.3f} standard errors")
    return 0 if worst <= 3.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrawl",
        description="Graph expressivity toolkit: color refinement, spectra, closed-walk modules.",
    )
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, pair=False):
        p.add_argument("graph", help="corpus name, csl:R, or edge-list file")
        if pair:
            p.add_argument("graph2", nargs="?", help="optional second graph")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("wl", help="color refinement history or pair verdict")
    add_common(p, pair=True)
    p.add_argument("--init", choices=("uniform", "degree"), default="uniform")
    p.set_defaults(func=cmd_wl)

    p = sub.add_parser("spectral", help="grouped spectrum, |u^T 1|, pair witness")
    add_common(p, pair=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("features", help="closed-walk feature matrix as CSV")
    add_common(p)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("discriminate", help="full pair report as JSON")
    p.add_argument("graph")
    p.add_argument("graph2")
    p.add_argument("--filter", default=None, help="comma-separated coefficients h0,h1,...")
    p.add_argument("--sigma", choices=("relu", "linear", "leaky", "square"), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("csl", help="generate or classify the 150-graph benchmark")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generate", metavar="DIR")
    group.add_argument("--classify", metavar="DIR")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_csl)

    p = sub.add_parser("reproduce", help="recompute a reference table and diff it")
    p.add_argument("--table", type=int, choices=(1, 2, 4, 5), required=True)
    p.add_argument("--verbose", action="store_true", help="print matching values too")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("stochastic", help="monte-carlo variance vs closed form")
    p.add_argument("graph")
    p.add_argument("--filter", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variance", type=float, default=None)
    p.add_argument("--distribution", choices=("gaussian", "rademacher"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stochastic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
