"""Command-line front end.

Subcommands: analyze, cheeger, verify, perturb, gen.  Each writes its
JSON as one compact line with sorted keys (:func:`_dumps`; every output
dict is built in key order and encoded as given), to stdout or
to -o FILE (the same bytes, ending in a newline); analyze --format text
and verify --format csv are the human-readable forms.  Exit codes: 0 on
success (verify: all records hold), 1 on a verification violation (or a
check that could not run), 2 on input errors (an invalid graph or option,
a file that cannot be read or written), including a `cheeger` request
beyond the exact engine's work policy, refused before any work.  All
randomness is controlled by --seed, so repeated invocations emit identical
bytes.
"""

import argparse
import functools
import json
import sys

from .bounds import (
    CHECK_NAMES,
    CorpusConfig,
    Report,
    _checked_spectrum,
    _distinct,
    run_checks_on_graph,
    run_corpus,
)
from .cheeger import rho_exact, rho_upper_nodal_sweep
from .graph import (
    GraphFormatError,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    load_graph,
    to_json_dict,
)
from .perturb import _require_eps, genericity_frequency
from .rng import DEFAULT_SEED
from .spectral import adjacency_eta, laplacian_spectrum


def _dumps(obj) -> str:
    """The one JSON writer of every subcommand: compact, keys in order.

    Every dict that reaches it is built in sorted key order, so it is
    encoded as given: the bytes equal json.dumps(obj, sort_keys=True)
    without the encoder sorting each dict's items again.  Every output is
    a tree of dicts, lists and scalars (a dict may appear in it twice, as
    the nodal records share one meta), so no cycle can occur and the
    encoder's circular-reference check is skipped.  Every output is strict
    (RFC 8259) JSON: a NaN or an infinity raises ValueError rather than
    being written as a bare `NaN` or `Infinity`.
    """
    return json.dumps(obj, check_circular=False, allow_nan=False)


def _emit(text: str, path: str | None) -> None:
    """Write text, ending in a newline, to stdout ("-" or None) or a file."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    cls = classify(g)
    prof = degree_profile(g)
    # The spectrum the checks read: the BLAS-independent Jacobi values with
    # the LAPACK functions.
    spectrum = _checked_spectrum(g, functions=True)
    eta = None if g.is_signed() else adjacency_eta(g).to_json_dict()
    out = {
        "classification": cls.to_json_dict(),
        "cyclomatic": cyclomatic(g),
        "degrees": list(prof.d),
        "edge_count": g.m,
        "eta": eta,
        "kappa": list(g.kappa),
        "mu": list(g.mu),
        "n": g.n,
        "signed": g.is_signed(),
        "spectrum": spectrum.to_json_dict(),
        "tau": prof.tau,
        "tau_min": prof.tau_min,
    }
    if args.format == "text":
        lines = [
            f"vertices: {g.n}   edges: {g.m}   signed: {g.is_signed()}",
            f"connected: {cls.is_connected}   components: {cls.component_count}   "
            f"tree: {cls.is_tree}   bipartite: {cls.is_bipartite}",
            f"cyclomatic number: {out['cyclomatic']}",
            f"tau: {prof.tau!r}   tau_min: {prof.tau_min!r}",
            "eigenvalues: " + " ".join(f"{v:.10g}" for v in spectrum.values),
            "clusters (start, mult): " + " ".join(f"({s},{m})" for s, m in spectrum.clusters),
        ]
        if eta is not None:
            lines.append(f"eta: {eta['eta']:.10g}")
        _emit("\n".join(lines), args.output)
    else:
        _emit(_dumps(out), args.output)
    return 0


def cmd_cheeger(args) -> int:
    g = load_graph(args.graph)
    # Fetch the eigenfunction first, so a signed graph or a bad J exits 2
    # before any subset table is built.
    f = None
    if args.sweep_from_eig is not None:
        if g.is_signed():
            raise ValueError("nodal sweep is defined for unsigned graphs")
        f = laplacian_spectrum(g).function(args.sweep_from_eig)
    cert = rho_exact(g, args.k)
    # Every certificate is exact; the key stays for readers of the format.
    out = {"budget_exceeded": False, "certificate": cert.to_json_dict()}
    if f is not None:  # "sweep" sorts last
        sweep = rho_upper_nodal_sweep(g, f)
        out["sweep"] = {"bound": sweep.value, "certificate": sweep.to_json_dict(), "m": sweep.k}
    _emit(_dumps(out), args.output)
    return 0


def cmd_verify(args) -> int:
    # Checked up front: --eps reaches only the checks that perturb, and a
    # corpus JSON's own "eps" wins over the flag.
    _require_eps(args.eps)
    checks = tuple(s for s in args.checks.split(",") if s)
    for name in checks:
        if name not in CHECK_NAMES and name != "product":
            raise GraphFormatError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}, product")
    if not _distinct(checks):
        raise GraphFormatError(f"--checks {args.checks!r} names a check more than once")
    if args.corpus is not None:
        if "product" in checks:
            raise GraphFormatError(
                "the product check needs an explicit pair: verify GRAPH --checks product "
                "--with-graph FILE --product-k K"
            )
        corpus_text = args.corpus
        if corpus_text.startswith("@"):
            with open(corpus_text[1:], "r", encoding="utf-8") as fh:
                corpus_text = fh.read()
        try:
            data = json.loads(corpus_text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"bad corpus config: malformed JSON: {exc}") from None
        if isinstance(data, dict):  # from_json_dict refuses anything else
            # The corpus JSON's own keys win over the flags.
            data = {"seed": args.seed, "eps": args.eps, "checks": list(checks), **data}
        report = run_corpus(CorpusConfig.from_json_dict(data))
    else:
        # Checked here only: a corpus JSON's "checks" wins over the flag.
        if not checks:
            raise GraphFormatError(f"--checks {args.checks!r} names no check")
        g = load_graph(args.graph)
        g2 = None
        if "product" in checks:
            if args.with_graph is None:
                raise GraphFormatError("--checks product needs --with-graph FILE (and --product-k)")
            g2 = load_graph(args.with_graph)
            if not 1 <= args.product_k < g.n:
                raise GraphFormatError(f"--product-k must be in [1, {g.n - 1}], got {args.product_k}")
        rows, errors = run_checks_on_graph("graph", g, checks, args.eps, args.seed, g2, args.product_k)
        report = Report(rows=rows, errors=errors)
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
    else:
        _emit(_dumps(report.to_json_dict()), args.output)
    summary = report.summary()
    if summary["skipped"]:
        print(f"warning: {summary['skipped']} record(s) skipped on hypothesis grounds", file=sys.stderr)
    for instance, message in report.errors:
        print(f"error [{instance}]: {message}", file=sys.stderr)
    return 0 if report.all_hold() else 1


def cmd_perturb(args) -> int:
    g = load_graph(args.graph)
    rep = genericity_frequency(g, args.eps, args.trials, args.seed)
    _emit(_dumps(rep.to_json_dict()), args.output)
    return 0


def cmd_gen(args) -> int:
    # The gen parser sets only the options given, so generate's own defaults
    # stand for the rest.
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "output")}
    _emit(_dumps(to_json_dict(generate(**options))), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args keeps no state between calls (each returns a fresh
    namespace), so every main() call shares the one parser; callers must
    not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="cheegerlab",
        description="Graph spectra, nodal domains, exact multi-way Cheeger constants, "
        "and verification of the spectral bounds they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="spectrum, classification, tau, eta of a graph")
    pa.add_argument("graph")
    pa.add_argument("-o", "--output", default=None)
    pa.add_argument("--format", choices=("json", "text"), default="json")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("cheeger", help="exact k-way (signed) Cheeger constant")
    pc.add_argument("graph")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--signed", action="store_true",
                    help="ignored, to be removed: a signed graph is scored by beta, an unsigned one by Phi")
    pc.add_argument("--sweep-from-eig", type=int, default=None, metavar="J",
                    help="also report the nodal-sweep upper bound from eigenfunction J (1-based)")
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=cmd_cheeger)

    pv = sub.add_parser("verify", help="run inequality checks on a graph or corpus")
    source = pv.add_mutually_exclusive_group(required=True)
    source.add_argument("graph", nargs="?", default=None)
    source.add_argument("--corpus", default=None, metavar="JSON|@FILE",
                        help='corpus config, e.g. \'{"families":["random_tree"],"sizes":[5,6],"count":10}\'')
    pv.add_argument("--checks", default=",".join(CorpusConfig.checks))
    pv.add_argument("--eps", type=float, default=CorpusConfig.eps)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--with-graph", default=None, help="second factor for the product check")
    pv.add_argument("--product-k", type=int, default=1)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("-o", "--output", default=None)
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("perturb", help="genericity frequency experiment")
    pp.add_argument("graph")
    pp.add_argument("--eps", type=float, default=CorpusConfig.eps)
    pp.add_argument("--trials", type=int, default=100)
    pp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pp.add_argument("-o", "--output", default=None)
    pp.set_defaults(func=cmd_perturb)

    pg = sub.add_parser("gen", help="emit a generated graph as canonical JSON",
                        argument_default=argparse.SUPPRESS)
    pg.add_argument("--family", required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--a", type=float)
    pg.add_argument("--p", type=float)
    pg.add_argument("--w-low", type=float)
    pg.add_argument("--w-high", type=float)
    pg.add_argument("--mu")
    pg.add_argument("--seed", type=int)
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
