"""Command-line interface.

Subcommands: ``compare`` (classical or fusion distance between two
structures), ``stats`` (encoding sizes), ``validate`` (cost model
checks), ``verify`` (oracle cross-checks), ``multilevel`` (two-pass
colored comparison) and ``compare-batch``.  Exit codes: 0 success,
1 verification mismatch, 2 parse error, 3 configuration error,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional

from . import cost_models
from .edit_distance import InternalError, PreparedTree, prepare, zs_distance
from .fusion_distance import FusionParams, compare_trees, fusion_dp, path_count_bound
from .rna_structures import SecondaryStructure, StructureError, parse_ct, parse_dotbracket
from .tree_model import Label, build, index, to_dot, to_parenthesized

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_structure(path: str, fmt: str, pairing: str) -> SecondaryStructure:
    text = _read_text(path)
    if fmt == "auto":
        suffix = Path(path).suffix.lower()
        if suffix == ".ct":
            fmt = "ct"
        elif suffix in (".db", ".dbn", ".dotbracket", ".fold"):
            fmt = "dotbracket"
        else:
            # content sniffing: CT starts with an integer record count
            first = text.lstrip().split(None, 1)
            fmt = "ct" if first and first[0].isdigit() else "dotbracket"
    parser = parse_ct if fmt == "ct" else parse_dotbracket
    s = parser(text, pairing=pairing)
    if not s.id:
        s = SecondaryStructure(s.sequence, s.pairs, Path(path).stem)
    return s


def _model_from_args(args: argparse.Namespace) -> cost_models.CostModel:
    name = args.model
    if name in ("unit", "structural"):
        return cost_models.named_model(name, args.t)
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"unknown model {name!r}: not a named model or a file")
    model = cost_models.parse_model_config(_read_text(name))
    if args.t is not None:
        model = model.with_t(args.t)
    return model


def _cap(args: argparse.Namespace) -> int:
    if not (0 <= args.l <= 3):
        raise ConfigError("l must be in [0, 3]")
    return args.l


def _fusion_params(args: argparse.Namespace) -> FusionParams:
    return FusionParams(cap=_cap(args), prune=not args.no_prune)


def _failure(exc: Exception) -> Optional[tuple[int, str]]:
    """Exit code and one-line message of an error the CLI reports, else None."""
    if isinstance(exc, StructureError):
        code, message = EXIT_PARSE, f"parse error: {exc}"
    elif isinstance(exc, MemoryError):
        code, message = EXIT_CONFIG, ("out of memory: the comparison needs more memory "
                                      "than is available")
    elif isinstance(exc, ValueError):  # ConfigError and InvalidTError among them
        code, message = EXIT_CONFIG, f"configuration error: {exc}"
    elif isinstance(exc, RecursionError):
        code, message = EXIT_INTERNAL, f"internal invariant failure: recursion limit reached: {exc}"
    elif isinstance(exc, (InternalError, AssertionError)):
        code, message = EXIT_INTERNAL, f"internal invariant failure: {exc}"
    else:
        return None
    return code, " ".join(message.split())


def _compare_pair(a: SecondaryStructure, b: SecondaryStructure,
                  rep: str, model: cost_models.CostModel,
                  params: FusionParams) -> dict:
    """Distance, audited script and group mapping of one pair at its
    representation (see ``compare_trees``), with the time they took."""
    ta, tb = index(build(a, rep)), index(build(b, rep))
    started = time.perf_counter()
    distance, script, mapping, _ = compare_trees(ta, tb, model, params)
    return {
        "a": ta, "b": tb, "distance": distance, "script": script,
        "mapping": mapping, "elapsed": time.perf_counter() - started,
    }


def _meta(args: argparse.Namespace, model: cost_models.CostModel,
          inputs: list[str]) -> dict:
    meta = {"inputs": inputs, "l": args.l, "prune": not args.no_prune,
            "format": args.format}
    meta.update(model.describe())
    return meta


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str],
          dot_text: Optional[str] = None) -> None:
    if args.emit == "json":
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.emit == "dot":
        rendered = dot_text or ""
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


def _mapping_dot(result: dict) -> str:
    ta, tb = result["a"], result["b"]
    lines = ["digraph comparison {", "  rankdir=TB;"]
    lines.append("  subgraph cluster_a { label=\"T\";")
    lines.extend("  " + ln for ln in to_dot(ta.tree, "a").splitlines()[1:-1])
    lines.append("  }")
    lines.append("  subgraph cluster_b { label=\"T'\";")
    lines.extend("  " + ln for ln in to_dot(tb.tree, "b").splitlines()[1:-1])
    lines.append("  }")
    # postorder ids map to dot preorder ids via the preorder walk
    pre_a = {node: k for k, node in enumerate(ta.preorder())}
    pre_b = {node: k for k, node in enumerate(tb.preorder())}
    for src, dst in result["mapping"]:
        lines.append(f"  a{pre_a[src[0]]} -> b{pre_b[dst[0]]} "
                     "[style=dashed constraint=false color=gray];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    params = _fusion_params(args)
    a = _load_structure(args.inputs[0], args.format, args.pairing)
    b = _load_structure(args.inputs[1], args.format, args.pairing)
    result = _compare_pair(a, b, args.rep, model, params)
    counts = result["script"].counts()
    meta = _meta(args, model, args.inputs) | {"rep": args.rep}
    payload = {
        "meta": meta,
        "distance": result["distance"],
        "operations": counts,
        "script": result["script"].to_json(),
        "mapping": [[list(s), list(d)] for s, d in result["mapping"]],
    }
    lines = [f"distance: {result['distance']!r}"]
    lines.append("operations: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())) if counts else "operations: none")
    lines.append(f"elapsed: {result['elapsed']:.3f}s")
    lines.append("parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    _emit(args, payload, lines, _mapping_dot(result))
    return EXIT_OK


def cmd_compare_batch(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    pairs = []
    for line_no, line in enumerate(_read_text(args.pairs_file).splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        # Tab-separated when the line has a tab (as this command prints
        # its pairs), so a path may hold spaces; else any whitespace.
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise ConfigError(f"pairs file line {line_no}: expected two paths")
        pairs.append((parts[0], parts[1]))
    jobs = min(args.jobs, len(pairs))
    if jobs <= 1:
        results = _run_batch(args, pairs)
    else:
        from concurrent.futures import ProcessPoolExecutor
        n = len(pairs)
        chunks = [pairs[k * n // jobs:(k + 1) * n // jobs] for k in range(jobs)]
        with ProcessPoolExecutor(jobs) as pool:
            results = [r for chunk in pool.map(_run_batch, [args] * jobs, chunks)
                       for r in chunk]
    worst = EXIT_OK
    for (pa, pb), (code, text) in zip(pairs, results):
        print(f"{pa}\t{pb}\t{text}")
        worst = max(worst, code)
    return worst


def _run_batch(args: argparse.Namespace, pairs: list[tuple[str, str]]
               ) -> list[tuple[int, str]]:
    """The compare-batch engine, for the whole run or one worker's chunk:
    per pair in order, (0, repr of the distance) or a failure as
    (exit code, ``error<TAB><code>: <reason>``).

    The model and params are built once.  Each distinct path is loaded,
    built, indexed and prepared once; a load that fails is kept as its
    exception, so the file is read once too.  At a fusion cap each
    prepared tree keeps its sides, one per role.  A role's side is
    dropped after the last pair that uses it in that role, and a tree
    after the last pair that names it: for memory only (a side forms no
    cycle with its tree), which follows the structures still to come.
    """
    model, params = _model_from_args(args), _fusion_params(args)
    last: dict = {}
    for k, (pa, pb) in enumerate(pairs):
        last[pa] = last[pb] = last[pa, True] = last[pb, False] = k
    trees: dict = {}
    results = []

    def tree(path: str) -> PreparedTree:
        if path not in trees:
            try:
                trees[path] = prepare(index(build(
                    _load_structure(path, args.format, args.pairing), args.rep)), model)
            except Exception as exc:
                trees[path] = exc
        found = trees[path]
        if isinstance(found, Exception):
            raise found.with_traceback(None)
        return found

    for k, (pa, pb) in enumerate(pairs):
        try:
            result = EXIT_OK, repr(compare_trees(tree(pa), tree(pb), model, params)[0])
        except Exception as exc:
            failure = _failure(exc)
            if failure is None:
                raise
            result = failure[0], f"error\t{failure[0]}: {failure[1]}"
        for path, left in ((pa, True), (pb, False)):
            found = trees.get(path)
            if last[path, left] == k and isinstance(found, PreparedTree):
                found.sides.pop((left, params), None)
        for path in (pa, pb):
            if last[path] == k:
                trees.pop(path, None)
        results.append(result)
    return results


def cmd_stats(args: argparse.Namespace) -> int:
    cap = _cap(args)
    s = _load_structure(args.inputs[0], args.format, args.pairing)
    lines = [f"structure: {s.id or args.inputs[0]} length={s.length} pairs={len(s.pairs)}"]
    for rep in "bcde":
        t = index(build(s, rep))
        bound = path_count_bound(max(2, t.max_degree), cap)
        lines.append(f"rep {rep}: nodes={t.n} leaves={t.leaf_count} "
                     f"height={t.height} max_degree={t.max_degree} "
                     f"path_bound(l={cap})={bound}")
    print("\n".join(lines))
    return EXIT_OK


_SAMPLE_LABELS = [
    (Label("hairpin", (3,)), Label("helix", (4,))),
    (Label("hairpin", (7,)), Label("helix", (2,))),
    (Label("internal", (4,)), Label("helix", (1,))),
    (Label("bulge", (2,)), Label("helix", (6,))),
    (Label("multiloop", (5,)), Label("helix", (3,))),
    (Label("root"), None),
]


def cmd_validate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    report = cost_models.validate(model, _SAMPLE_LABELS)
    print(report.summary())
    print("parameters: " + ", ".join(
        f"{k}={v}" for k, v in sorted(model.describe().items())))
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle
    if args.max_nodes > oracle.MAX_ORACLE_NODES:
        raise ConfigError(
            f"--max-nodes above the oracle budget ({oracle.MAX_ORACLE_NODES})")
    for flag, value in (("--max-nodes", args.max_nodes), ("--samples", args.samples)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    model = _model_from_args(args)
    rng = random.Random(args.seed)
    failures = run_verification(model, rng, exhaustive_max=args.max_nodes,
                                samples=args.samples)
    if failures:
        for f in failures:
            print(f"MISMATCH: {f}")
        return EXIT_MISMATCH
    print("verify: all oracle cross-checks and metric axioms passed")
    return EXIT_OK


def run_verification(model: cost_models.CostModel, rng: random.Random,
                     exhaustive_max: int = 5, samples: int = 200) -> list[str]:
    """Oracle cross-checks and the metric sampler; returns failure notes."""
    from . import generators, oracle
    failures: list[str] = []
    alphabet = [Label("a"), Label("b")]
    prepared = [prepare(index(t), model) for n in range(1, exhaustive_max + 1)
                for t in generators.labeled_trees(n, alphabet)]
    cache = oracle.MappingOracleCache()
    for a in prepared:
        for b in prepared:
            d, _ = zs_distance(a, b, model)
            ref = cache.distance(a, b, model)
            if d != ref:
                failures.append(
                    f"classical {to_parenthesized(a.tree)} vs "
                    f"{to_parenthesized(b.tree)}: dp={d} oracle={ref}")
                if len(failures) > 3:
                    return failures
    node_labels = [Label("h", (1,)), Label("i", (9,))]
    edge_labels = [Label("x", (2,))]
    for _ in range(samples):
        a = index(generators.random_tree(rng, rng.randint(1, 8), 3,
                                         node_labels, edge_labels))
        b = index(generators.random_tree(rng, rng.randint(1, 8), 3,
                                         node_labels, edge_labels))
        d, _ = zs_distance(a, b, model)
        ref = oracle.mapping_oracle(a, b, model)
        if d != ref:
            failures.append(
                f"classical/random {to_parenthesized(a.tree)} vs "
                f"{to_parenthesized(b.tree)}: dp={d} oracle={ref}")
    for _ in range(max(20, samples // 10)):
        a = index(generators.random_tree(rng, rng.randint(1, 5), 3,
                                         node_labels, edge_labels))
        b = index(generators.random_tree(rng, rng.randint(1, 5), 3,
                                         node_labels, edge_labels))
        d, _ = fusion_dp(a, b, model, FusionParams(cap=1))
        ref = oracle.script_search_oracle(a, b, model,
                                          oracle.SearchBudget(fusion_cap=1))
        if d != ref:
            failures.append(
                f"fusion {to_parenthesized(a.tree)} vs "
                f"{to_parenthesized(b.tree)}: dp={d} oracle={ref}")
    # metric axioms on sampled trees
    trees = [prepare(index(generators.random_tree(rng, rng.randint(1, 6), 3,
                                                  node_labels, edge_labels)), model)
             for _ in range(24)]
    report = cost_models.validate(model, _SAMPLE_LABELS)
    if not report.ok:
        failures.extend(f"cost model: {c.condition} [{c.witness}]"
                        for c in report.failures())
    for i, a in enumerate(trees):
        d_self, _ = fusion_dp(a, a, model, FusionParams(cap=1))
        if d_self != 0:
            failures.append(f"identity violated: d(T,T)={d_self}")
        b = trees[(i + 1) % len(trees)]
        c = trees[(i + 2) % len(trees)]
        dab, _ = fusion_dp(a, b, model, FusionParams(cap=1))
        dba, _ = fusion_dp(b, a, model, FusionParams(cap=1))
        if dab != dba:
            failures.append(f"symmetry violated: {dab} != {dba}")
        dbc, _ = fusion_dp(b, c, model, FusionParams(cap=1))
        dac, _ = fusion_dp(a, c, model, FusionParams(cap=1))
        if dac > dab + dbc + 1e-9:
            failures.append(f"triangle violated: {dac} > {dab} + {dbc}")
    return failures


def cmd_multilevel(args: argparse.Namespace) -> int:
    if args.emit == "dot":
        raise ConfigError("--emit dot is not available for multilevel; use text or json")
    from . import multilevel
    model = _model_from_args(args)
    params = _fusion_params(args)
    a = _load_structure(args.inputs[0], args.format, args.pairing)
    b = _load_structure(args.inputs[1], args.format, args.pairing)
    result = multilevel.multilevel_compare(a, b, model, params, args.coarse_rep)
    payload = {
        "meta": _meta(args, model, args.inputs) | {"coarse_rep": args.coarse_rep},
        "distance": result.fine_distance,
        "colors": {
            "count": result.colors.n_colors,
            "a": {str(k): v for k, v in sorted(result.colors.colors_a.items())},
            "b": {str(k): v for k, v in sorted(result.colors.colors_b.items())},
        },
        "coarse_mapping": [[list(s), list(d)] for s, d in result.coarse_mapping],
        "fine_mapping": [[i, j] for i, j in sorted(result.fine_mapping)],
    }
    lines = [
        f"coarse colors: {result.colors.n_colors}",
        f"fine distance: {result.fine_distance!r}",
        f"fine mapping size: {len(result.fine_mapping)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _add_input(p: argparse.ArgumentParser, inputs: int) -> None:
    if inputs:
        p.add_argument("inputs", nargs=inputs, help="structure file(s)")
    p.add_argument("--format", choices=["auto", "dotbracket", "ct"],
                   default="auto", help="input format")
    p.add_argument("--strict-pairs", dest="pairing", action="store_const",
                   const="strict", default="wobble",
                   help="reject wobble pairs on input")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="structural",
                   help="cost model name (unit|structural) or config file")
    p.add_argument("--t", type=float, default=None, help="fusion tuning parameter")


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l", type=int, default=1, help="consecutive fusion cap (0-3)")


def _add_common(p: argparse.ArgumentParser, inputs: int = 2) -> None:
    """The options of the commands that compare structures."""
    _add_input(p, inputs)
    _add_model(p)
    _add_cap(p)
    p.add_argument("--no-prune", action="store_true",
                   help="disable the node-then-edge fusion pruning rule")


def _add_rep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rep", choices=list("bcde"), default="d",
                   help="tree representation")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit", choices=["text", "json", "dot"], default="text",
                   help="output format")
    p.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnatreedit",
        description="Compare RNA secondary structures as ordered labeled trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="distance between two structures")
    _add_common(p, inputs=2)
    _add_rep(p)
    _add_output(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("compare-batch", help="compare many pairs from a file")
    p.add_argument("pairs_file", help="file with two structure paths per line")
    _add_common(p, inputs=0)
    _add_rep(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, each running a contiguous chunk of the pairs")
    p.set_defaults(func=cmd_compare_batch)

    p = sub.add_parser("stats", help="encoding statistics for one structure")
    _add_input(p, inputs=1)
    _add_cap(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="check cost model distance conditions")
    _add_model(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="run oracle cross-checks")
    _add_model(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampling")
    p.add_argument("--max-nodes", type=int, default=5,
                   help="exhaustive enumeration size (hard limit 8)")
    p.add_argument("--samples", type=int, default=200,
                   help="random sample count")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("multilevel", help="two-pass colored comparison")
    _add_common(p, inputs=2)
    _add_output(p)
    p.add_argument("--coarse-rep", choices=["c", "d"], default="c",
                   help="representation for the coarse pass")
    p.set_defaults(func=cmd_multilevel)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``rnatreedit stats s.db | head -1``).
        # Point stdout at devnull, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:
        failure = _failure(exc)
        if failure is None:
            raise
        code, message = failure
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
