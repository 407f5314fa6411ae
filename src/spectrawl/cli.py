"""Command-line front end.

Subcommands expose the library operations on graphs given as files in the
edge-list format or as built-in names (prism, k33, bihexagon, bipentagon,
csl:R). Each cmd_* returns its output lines and exit code, and main writes
the lines to --out or stdout. Exit codes: 0 success, 1 failed check or
unseparated pair, 2 usage or I/O error, or an eigensolver failure
(spectral.ConvergenceFailure), which says nothing about the pair.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import discriminate, gnn, spectral, tables, wl
from .gnn import FilterParams, StochasticConfig
from .graphs import Graph, GraphError, _check_int, corpus_graph, load_graph, save_graph

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
        try:
            skip = int(spec.split(":", 1)[1])
        except ValueError:
            raise GraphError(f"graph {spec!r}: expected csl:R with an integer skip R") from None
        return discriminate.csl_base_graph(41, skip)
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


def _parse_filter(text) -> FilterParams:
    return FilterParams(text if isinstance(text, (list, tuple)) else str(text).split(","))


def _settings(args, cfg: dict, *keys: str) -> dict:
    """The keys that a flag or the config file sets, a flag first.

    Values go to the library as given (a filter parsed to FilterParams), so it
    checks them and defaults every key left out.
    """
    given = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key)
        if value is not None:
            given[key] = _parse_filter(value) if key == "filter" else value
    return given


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_wl(args, cfg: dict) -> tuple[list[str], int]:
    g1 = resolve_graph(args.graph)
    if args.graph2 is None:
        coloring = wl.wl_refine(g1, init=args.init)
        lines = [f"graph: {g1.name or args.graph} (n={g1.n})"]
        lines += [f"iteration {t}: {list(colors)}" for t, colors in enumerate(coloring.colors)]
        lines += [f"stable_at: {coloring.stable_at}", f"classes: {coloring.num_classes}"]
        return lines, 0
    verdict = wl.wl_distinguish(g1, resolve_graph(args.graph2), init=args.init)
    return [verdict], 0 if verdict == "distinguished" else 1


def cmd_spectral(args, cfg: dict) -> tuple[list[str], int]:
    g1 = resolve_graph(args.graph)
    s1 = spectral.eigendecompose(g1)
    lines = [f"graph: {g1.name or args.graph} (n={g1.n})", "grouped spectrum (value x multiplicity):"]
    lines += [f"  {_fmt(grp.value)} x {grp.multiplicity}" for grp in s1.groups]
    lines.append(f"|u^T 1|: {_fmt_vec(spectral.eigenvector_one_products(s1))}")
    code = 0
    if args.graph2 is not None:
        witness = spectral.spectra_differ(s1, resolve_graph(args.graph2), **_settings(args, cfg, "tol"))
        if witness is None:
            lines.append("spectra match: no witness")
            code = 1
        else:
            lines.append(f"witness eigenvalue: {_fmt(witness)}")
    return lines, code


def cmd_features(args, cfg: dict) -> tuple[list[str], int]:
    g = resolve_graph(args.graph)
    x = gnn.diag_powers(g, **_settings(args, cfg, "depth"))
    lines = [",".join(f"k{k}" for k in range(x.shape[1]))]
    lines += [",".join(_fmt(v) for v in row) for row in x]
    return lines, 0


def cmd_discriminate(args, cfg: dict) -> tuple[list[str], int]:
    g1, g2 = resolve_graph(args.graph), resolve_graph(args.graph2)
    config = discriminate.PairConfig(**_settings(args, cfg, "filter", "sigma", "tol"))
    start = time.perf_counter()
    report = discriminate.discriminate_pair(g1, g2, config)
    row = discriminate.BenchmarkRow.from_report(report, (time.perf_counter() - start) * 1e3)
    code = 0 if report.overall == "separable" else 1
    if (args.format or cfg.get("format")) == "csv":
        return [discriminate.BenchmarkSummary((row,)).to_csv().removesuffix("\n")], code
    return [report.to_json()], code


def cmd_csl(args, cfg: dict) -> tuple[list[str], int]:
    raw = cfg.get("csl", {})
    spec = discriminate.CslSpec(**_settings(args, raw, "n", "skips", "copies_per_class", "seed"))
    if args.generate:
        os.makedirs(args.generate, exist_ok=True)
        dataset = discriminate.csl_generate(spec)
        for g, label in dataset:
            save_graph(g, os.path.join(args.generate, f"class{label:02d}_{g.name}.txt"))
        return [f"wrote {len(dataset)} graphs to {args.generate}"], 0
    # classify: labels are parsed from the classNN_ filename prefix
    names = sorted(f for f in os.listdir(args.classify) if f.endswith(".txt"))
    if not names:
        raise GraphError(f"no .txt graphs under {args.classify}")
    dataset = []
    for fname in names:
        label = re.match(r"class(\d+)_", fname)
        if label is None:
            raise GraphError(f"{fname}: expected a classNN_ prefix naming the label, as --generate writes")
        dataset.append((load_graph(os.path.join(args.classify, fname)), int(label[1])))
    accuracy, scores = discriminate.csl_classify(dataset, spec)
    lines = [f"graphs: {len(dataset)}", f"distinct scores: {sorted(set(round(s, 6) for s in scores))}"]
    return [*lines, f"accuracy: {accuracy:.4f}"], 0 if accuracy == 1.0 else 1


def cmd_reproduce(args, cfg: dict) -> tuple[list[str], int]:
    diffs = tables.compare_table(args.table)
    bad = [d for d in diffs if not d.ok]
    lines = [str(d) for d in diffs if not d.ok or args.verbose]
    lines.append(f"table {args.table}: {len(diffs) - len(bad)}/{len(diffs)} values match")
    return [*lines, "MATCH" if not bad else "MISMATCH"], 0 if not bad else 1


def cmd_stochastic(args, cfg: dict) -> tuple[list[str], int]:
    g = resolve_graph(args.graph)
    given = _settings(args, cfg, "filter", "variance", "samples", "seed", "distribution")
    h = given.pop("filter", discriminate.PAIR_FILTER)
    scfg = StochasticConfig(**given)
    # one sample has no standard error, so the agreement check would check nothing
    _check_int(scfg.samples, "samples", 2)
    estimate, stderr = gnn.stochastic_variance(g, h, scfg)
    closed, worst = gnn._closed_form_deviation(g, h, scfg, estimate, stderr)
    lines = [
        f"graph: {g.name or args.graph}  samples: {scfg.samples}  "
        f"distribution: {scfg.distribution}  seed: {scfg.seed}",
        f"monte-carlo: {_fmt_vec(estimate)}",
        f"stderr:      {_fmt_vec(stderr)}",
        f"closed form: {_fmt_vec(closed)}",
        f"worst deviation: {worst:.3f} standard errors",
    ]
    return lines, 0 if worst <= 3.0 else 1


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
        p.add_argument("--out", default=None)

    p = sub.add_parser("wl", help="color refinement history or pair verdict")
    add_common(p, pair=True)
    p.add_argument("--init", choices=("uniform", "degree"), default="uniform")
    p.set_defaults(func=cmd_wl)

    p = sub.add_parser("spectral", help="grouped spectrum, |u^T 1|, pair witness")
    add_common(p, pair=True)
    p.add_argument("--tol", type=float, default=None)
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
        lines, code = args.func(args, cfg)
        # commands without --out ignore a config "out" too
        _emit("\n".join(lines), (args.out or cfg.get("out")) if "out" in args else None)
        return code
    except (GraphError, OSError, json.JSONDecodeError, ValueError, spectral.ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
