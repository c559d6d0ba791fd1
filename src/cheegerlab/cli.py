"""Command-line front end.

Subcommands: analyze, cheeger, verify, perturb, gen.  Exit codes: 0 on
success (verify: all records hold), 1 on a verification violation, 2 on
input errors, 3 on search-budget overflow.  All randomness is controlled
by --seed, so repeated invocations emit identical bytes.
"""

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .bounds import (
    CHECK_NAMES,
    CheckRecord,
    CorpusConfig,
    HypothesisViolation,
    NonGenericError,
    Report,
    check_product_theorem,
    run_checks_on_graph,
    run_corpus,
)
from .cheeger import (
    BudgetExceededError,
    SearchBudget,
    rho_exact,
    rho_signed_exact,
    rho_upper_nodal_sweep,
)
from .graph import (
    GraphFormatError,
    classify,
    cyclomatic,
    degree_profile,
    generate,
    load_graph,
    to_json_dict,
)
from .perturb import genericity_frequency
from .rng import DEFAULT_SEED
from .spectral import adjacency_eta, laplacian_spectrum, with_functions


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


_LEAVES = {
    str: encode_basestring_ascii,
    float: _float,
    int: int.__repr__,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _encode(o, nl: str) -> str:
    """A container, or an instance of a subclass of a leaf type; `nl` is
    the newline plus the indent that `o` is nested at.  Leaf children are
    dispatched here on their exact type, saving a call each."""
    get = _LEAVES.get
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = []
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            value = o[key]
            leaf = get(type(value))
            text = leaf(value) if leaf is not None else _encode(value, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        items = [leaf(v) if (leaf := get(type(v))) is not None else _encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2).

    With an indent the json module drops its C encoder for a pure-Python
    one; joining strings directly writes the same text in about 60% of
    its time.  Leaves are dispatched on their exact type, anything else
    (containers, subclasses such as numpy.float64) through `_encode`.
    Dict keys must be str.
    """
    leaf = _LEAVES.get(type(obj))
    return leaf(obj) if leaf is not None else _encode(obj, "\n")


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
    # The graph's own eigenvalues are the BLAS-independent Jacobi values.
    spectrum = with_functions(g, laplacian_spectrum(g, functions=False))
    eta = None
    if not g.is_signed() and g.kappa_is_zero() and g.n >= 3:
        eta = adjacency_eta(g).to_json_dict()
    out = {
        "n": g.n,
        "edge_count": g.m,
        "signed": g.is_signed(),
        "classification": cls.to_json_dict(),
        "cyclomatic": cyclomatic(g),
        "degrees": list(prof.d),
        "tau": prof.tau,
        "tau_min": prof.tau_min,
        "mu": list(g.mu),
        "kappa": list(g.kappa),
        "spectrum": spectrum.to_json_dict(),
        "eta": eta,
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
    # before any search.
    f = None
    if args.sweep_from_eig is not None:
        if g.is_signed():
            raise ValueError("nodal sweep is defined for unsigned graphs")
        f = laplacian_spectrum(g).function(args.sweep_from_eig)
    budget = SearchBudget(max_states=args.budget)
    try:
        if args.signed:
            cert = rho_signed_exact(g, args.k, budget)
        else:
            cert = rho_exact(g, args.k, budget)
    except BudgetExceededError as exc:
        if exc.best is None:
            raise
        cert = exc.best
    exceeded = not cert.exact
    out = {"certificate": cert.to_json_dict(), "budget_exceeded": exceeded}
    if f is not None:
        out["sweep"] = rho_upper_nodal_sweep(g, f).to_json_dict()
    _emit(_dumps(out), args.output)
    return 3 if exceeded else 0


def _require_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise GraphFormatError("--eps must be a finite number >= 0")


def cmd_verify(args) -> int:
    _require_eps(args.eps)
    checks = tuple(s for s in args.checks.split(",") if s)
    for name in checks:
        if name not in CHECK_NAMES and name != "product":
            raise GraphFormatError(f"unknown check {name!r}; known: {CHECK_NAMES + ('product',)}")
    budget = SearchBudget(max_states=args.budget)
    if args.corpus:
        if "product" in checks:
            raise GraphFormatError(
                "the product check needs an explicit pair: verify GRAPH --checks product "
                "--with-graph FILE --product-k K"
            )
        corpus_text = args.corpus
        if corpus_text.startswith("@"):
            with open(corpus_text[1:], "r", encoding="utf-8") as fh:
                corpus_text = fh.read()
        data = json.loads(corpus_text)
        if isinstance(data, dict):  # from_json_dict refuses anything else
            data = {
                "seed": args.seed,
                "eps": args.eps,
                "budget": {"max_states": args.budget},
                **data,
                "checks": list(checks),
            }
        report = run_corpus(CorpusConfig.from_json_dict(data))
    else:
        if args.graph is None:
            raise GraphFormatError("verify needs a graph file or --corpus")
        g = load_graph(args.graph)
        plain = tuple(c for c in checks if c != "product")
        rows, errors = run_checks_on_graph("graph", g, plain, args.eps, args.seed, budget)
        if "product" in checks:
            if args.with_graph is None:
                raise GraphFormatError("--checks product needs --with-graph FILE (and --product-k)")
            g2 = load_graph(args.with_graph)
            try:
                rows.append(
                    ("graph", check_product_theorem(g, g2, args.product_k, args.eps, args.seed, budget))
                )
            except HypothesisViolation as exc:
                rows.append(("graph", CheckRecord.skipped("product", str(exc))))
            except (NonGenericError, BudgetExceededError) as exc:
                errors.append(("graph", f"product: {exc}"))
        report = Report(rows=rows, errors=errors)
        report.sort()
    text = report.to_csv() if args.format == "csv" else _dumps(report.to_json_dict())
    _emit(text, args.output)
    summary = report.summary()
    if summary["skipped"]:
        print(f"warning: {summary['skipped']} record(s) skipped on hypothesis grounds", file=sys.stderr)
    for instance, message in report.errors:
        print(f"error [{instance}]: {message}", file=sys.stderr)
    return 0 if report.all_hold() else 1


def cmd_perturb(args) -> int:
    if args.trials < 1:
        raise GraphFormatError("--trials must be >= 1")
    _require_eps(args.eps)
    g = load_graph(args.graph)
    rep = genericity_frequency(g, args.eps, args.trials, args.seed)
    _emit(_dumps(rep.to_json_dict()), args.output)
    return 0


def cmd_gen(args) -> int:
    g = generate(
        args.family,
        args.n,
        args.seed,
        a=args.a,
        p=args.p,
        w_low=args.w_low,
        w_high=args.w_high,
        mu=args.mu,
    )
    _emit(_dumps(to_json_dict(g)), args.output)
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
    pc.add_argument("--signed", action="store_true")
    pc.add_argument("--sweep-from-eig", type=int, default=None, metavar="J",
                    help="also report the nodal-sweep upper bound from eigenfunction J (1-based)")
    pc.add_argument("--budget", type=int, default=SearchBudget().max_states,
                    help="search state budget; applies only beyond the DP sizes "
                    "(n > 15, signed n > 14)")
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=cmd_cheeger)

    pv = sub.add_parser("verify", help="run inequality checks on a graph or corpus")
    pv.add_argument("graph", nargs="?", default=None)
    pv.add_argument("--corpus", default=None, metavar="JSON|@FILE",
                    help='corpus config, e.g. \'{"families":["random_tree"],"sizes":[5,6],"count":10}\'')
    pv.add_argument("--checks", default="main,basics")
    pv.add_argument("--eps", type=float, default=0.05)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--budget", type=int, default=SearchBudget().max_states)
    pv.add_argument("--with-graph", default=None, help="second factor for the product check")
    pv.add_argument("--product-k", type=int, default=1)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("-o", "--output", default=None)
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("perturb", help="genericity frequency experiment")
    pp.add_argument("graph")
    pp.add_argument("--eps", type=float, default=0.05)
    pp.add_argument("--trials", type=int, default=100)
    pp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pp.add_argument("-o", "--output", default=None)
    pp.set_defaults(func=cmd_perturb)

    pg = sub.add_parser("gen", help="emit a generated graph as canonical JSON")
    pg.add_argument("--family", required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--a", type=float, default=1.1)
    pg.add_argument("--p", type=float, default=0.3)
    pg.add_argument("--w-low", type=float, default=None)
    pg.add_argument("--w-high", type=float, default=None)
    pg.add_argument("--mu", default="degree")
    pg.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
