"""The four benchmark workloads: inputs, one operation, and output checks.

Every workload is a fixed cycle of operation kinds; the workload seed only
picks the random graphs and perturbation seeds inside each kind.  A run
executes whole cycles, so every run has the same mix of kinds and the
spread between seeds comes from the graphs, not from the mix.

Each workload has ``cycle`` (ops per cycle), ``cycle_s`` (a cycle's op
time at the reference pace, see README.md; it fixes how many cycles a
run makes), ``tail_pct`` (the percentile of latency_tail_ms)
and provides
  * ``make_ops(seed, c, workdir)``: the inputs of cycle c (cycle 0 is part
    of ``setup_s``, later cycles are made between cycles, outside the op
    time); graph files for CLI operations are written to workdir;
  * ``run(op)``: one closed-loop operation (timed), returning its raw
    output;
  * ``digest(op, raw, full)``: the compact output kept after the op
    (``full`` keeps the values expected.json holds; first cycle only);
  * ``check(op, digest)``: the correctness check, run after the timed
    window; returns None or a failure message;
  * ``compare(op, digest, want)``: the same for the expected.json entry.
"""

import contextlib
import functools
import importlib
import io
import json
import math
import os

from cheegerlab import (
    EigenOptions,
    WeightedGraph,
    generate,
    load_graph,
    perturb,
    product,
    rho_profile,
    rho_signed_profile,
    with_random_signature,
)
from cheegerlab.cheeger import beta_signed, conductance
from cheegerlab.graph import dumps_graph
from cheegerlab.rng import derive_seed

# cheegerlab re-exports a function named `perturb`, which shadows the
# submodule attribute, so the modules are fetched from the import system.
bounds = importlib.import_module("cheegerlab.bounds")
cli = importlib.import_module("cheegerlab.cli")

# Documented tolerances: the signed profile DP agrees with the signed DFS
# and with the canonical beta evaluation to 1e-12; spectra are accurate to
# the eigensolver's residual tolerance.  Unsigned rho is compared bit for bit.
SIGNED_TOL = 1e-12
SPECTRAL_TOL = EigenOptions().residual_tol


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _cli_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write_graph(g: WeightedGraph, workdir: str, name: str) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))
    return path


def _check_parts(cert: dict, n: int) -> str | None:
    parts = [tuple(p) for p in cert["parts"]]
    units = (
        [parts[2 * i] + parts[2 * i + 1] for i in range(cert["k"])] if cert["signed"] else parts
    )
    if len(units) != cert["k"] or any(len(u) == 0 for u in units):
        return "certificate has an empty or missing part"
    flat = [v for u in units for v in u]
    if len(flat) != len(set(flat)) or not all(0 <= v < n for v in flat):
        return "certificate parts overlap or leave the vertex range"
    return None


def _recompute(g: WeightedGraph, cert: dict) -> float:
    parts = cert["parts"]
    if cert["signed"]:
        return max(beta_signed(g, parts[2 * i], parts[2 * i + 1]) for i in range(cert["k"]))
    return max(conductance(g, p) for p in parts)


def check_certificate(g: WeightedGraph, cert: dict) -> str | None:
    """Disjoint nonempty parts, and a value that its parts reproduce."""
    problem = _check_parts(cert, g.n)
    if problem:
        return problem
    again = _recompute(g, cert)
    ok = _close(again, cert["value"], SIGNED_TOL) if cert["signed"] else again == cert["value"]
    if not ok:
        return f"certificate value {cert['value']!r} but its parts give {again!r}"
    return None


def _rho_close(a: float, b: float, signed: bool) -> bool:
    return _close(a, b, SIGNED_TOL) if signed else a == b


# ---------------------------------------------------------------------------
# corpus: the paper's real traffic, one small instance per verify call

CORPUS_CHECKS = "main,basics,lower,nodal,nodal_cheeger"


def refused(d: dict) -> bool:
    """A corpus op whose only fault is the nodal check's documented
    NonGenericError ("try another seed").

    Roughly 1 instance in 10^4 at p = 0.3 trips it: two pendant leaves on
    one vertex give a localized eigenfunction whose far entries fall
    below the fixed 1e-10 zero tolerance.  The op counts as failed; since
    the report is a refusal rather than a wrong value, run.py keeps
    `correct` true for it and prints how many failed ops it covers.
    """
    errors = d.get("errors")
    return (
        d.get("rc") == 1 and bool(errors) and not d["summary"]["violations"]
        and d["summary"]["holds"]
        and all(e.startswith("nodal: perturbed instance is not generic") for e in errors)
    )


class Corpus:
    """One op is `cheegerlab verify --corpus` on a one-instance corpus.

    The cycle visits n = 4..10 with every fourth instance signed; 28 ops
    cover each (n, signed) pair in the ratio 3:1.
    """

    name = "corpus"
    cycle = 28
    cycle_s = 0.64
    tail_pct = 95

    def make_ops(self, seed: int, c: int, workdir: str) -> list:
        ops = []
        for i in range(c * self.cycle, (c + 1) * self.cycle):
            n = 4 + i % 7
            signed = i % 4 == 3
            cfg = {
                "families": ["random_connected"],
                "sizes": [n],
                "count": 1,
                "seed": derive_seed(seed, i),
                "p": 0.3,
                "w_low": 0.5,
                "w_high": 2.0,
                "signed": signed,
            }
            argv = ["verify", "--corpus", json.dumps(cfg, sort_keys=True), "--checks", CORPUS_CHECKS]
            ops.append({"kind": f"{'S' if signed else 'U'}{n}", "argv": argv, "signed": signed})
        return ops

    def run(self, op):
        return _cli_call(op["argv"])

    def digest(self, op, raw, full: bool) -> dict:
        rc, text = raw
        report = json.loads(text)
        out = {"rc": rc, "summary": report["summary"], "errors": [e[1] for e in report["errors"]]}
        if full:
            # Skipped records carry NaN sides; None keeps the digest comparable.
            out["records"] = [
                [r["name"], r["k"], None, None, None, None] if r["holds"] is None else
                [r["name"], r["k"], r["lhs"], r["rhs"], r["holds"],
                 r["meta"].get("certificate", {}).get("value")]
                for r in report["records"]
            ]
        return out

    def check(self, op, d) -> str | None:
        s = d["summary"]
        if d["rc"] != 0 or s["violations"] or s["errors"] or not s["holds"]:
            return f"exit {d['rc']}, summary {s}, errors {d['errors']}"
        return None

    def compare(self, op, d, want) -> str | None:
        if d["summary"] != want["summary"] or len(d["records"]) != len(want["records"]):
            return "summary differs from the stored expectation"
        for got, exp in zip(d["records"], want["records"]):
            name, k, lhs, rhs, holds, rho = got
            if [name, k, holds] != exp[0:2] + [exp[4]]:
                return f"record {exp[0]} k={exp[1]} differs"
            if holds is None:
                continue
            if not (_close(lhs, exp[2], SPECTRAL_TOL) and _close(rhs, exp[3], SPECTRAL_TOL)):
                return f"record {name} k={k} sides differ beyond {SPECTRAL_TOL}"
            if (rho is None) != (exp[5] is None) or (
                rho is not None and not _rho_close(rho, exp[5], op["signed"])
            ):
                return f"record {name} k={k} rho {rho!r} != {exp[5]!r}"
        return None


# ---------------------------------------------------------------------------
# frontier: all-k exact profiles at the top of the DP range

_P6 = generate("path", 6, mu="unit")
_K2 = generate("complete", 2, w_low=0.05, w_high=0.05, mu="unit")
PRODUCT_EPS = 0.05


class Frontier:
    """One op is `bounds.check_theorem_main(g)` (unsigned n = 12, 13 and
    signed n = 11, 12; p = 0.15 keeps the cyclomatic number below n so all
    k-records exist) or `check_product_theorem(path(6), K2(w=0.05), k,
    eps=0.05, seed)`, an n = 12 tree x bipartite product whose seed varies
    so the bounds caches cannot serve it."""

    name = "frontier"
    # Unsigned n = 12 twice puts the median op in the middle of one kind
    # rather than on the boundary between two.
    _kinds = (("U", 12), ("S", 11), ("U", 12), ("S", 12), ("P", 12), ("U", 13))
    cycle = len(_kinds)
    cycle_s = 2.4
    tail_pct = 75

    def make_ops(self, seed: int, c: int, workdir: str) -> list:
        ops = []
        for i in range(c * self.cycle, (c + 1) * self.cycle):
            sign, n = self._kinds[i % self.cycle]
            s = derive_seed(seed, i)
            if sign == "P":
                k = 1 + (i // self.cycle) % (_P6.n - 1)
                ops.append({"kind": "P12", "k": k, "seed": s, "signed": False})
                continue
            g = generate("random_connected", n, s, p=0.15, w_low=0.5, w_high=2.0)
            if sign == "S":
                g = with_random_signature(g, derive_seed(s, 1))
            ops.append({"kind": f"{sign}{n}", "graph": g, "signed": sign == "S"})
        return ops

    def run(self, op):
        if op["kind"] == "P12":
            return [bounds.check_product_theorem(_P6, _K2, op["k"], PRODUCT_EPS, op["seed"])]
        return bounds.check_theorem_main(op["graph"])

    def digest(self, op, raw, full: bool) -> dict:
        return {
            "records": [
                [r.k, r.lhs, r.rhs, r.holds, r.meta["certificate"]] for r in raw
            ]
        }

    def _graph(self, op) -> WeightedGraph:
        if op["kind"] == "P12":
            return product(perturb(_P6, PRODUCT_EPS, op["seed"]), _K2)
        return op["graph"]

    def check(self, op, d) -> str | None:
        records = d["records"]
        if not records:
            return "no records"
        g = self._graph(op)
        prev = -math.inf
        for k, lhs, rhs, holds, cert in records:
            if holds is not True:
                return f"record k={k} does not hold: {lhs!r} > {rhs!r}"
            if lhs != cert["value"]:
                return f"record k={k} lhs differs from its certificate"
            problem = check_certificate(g, cert)
            if problem:
                return f"k={k}: {problem}"
            if cert["value"] < prev - (SIGNED_TOL if op["signed"] else 0.0):
                return f"profile not monotone at k={k}"
            prev = cert["value"]
        return None

    def compare(self, op, d, want) -> str | None:
        got, exp = d["records"], want["records"]
        if len(got) != len(exp):
            return "record count differs from the stored expectation"
        for (k, lhs, rhs, holds, _), (ek, elhs, erhs, eholds, _) in zip(got, exp):
            if (k, holds) != (ek, eholds) or not _rho_close(lhs, elhs, op["signed"]):
                return f"k={k}: rho {lhs!r} != expected {elhs!r}"
            if not _close(rhs, erhs, SPECTRAL_TOL):
                return f"k={k}: spectral side {rhs!r} != expected {erhs!r}"
        return None


# ---------------------------------------------------------------------------
# search: the branch-and-bound DFS engines behind `cheegerlab cheeger`


_P4XP3 = product(generate("path", 4, mu="unit"), generate("path", 3, mu="unit"))


@functools.lru_cache(maxsize=64)
def _reference_profile(g: WeightedGraph, kmax: int, signed: bool):
    # The fixed P4xP3 graph recurs every cycle; its reference is computed once.
    return (rho_signed_profile if signed else rho_profile)(g, kmax)


class Search:
    """One op is `cheegerlab cheeger FILE --k K` (unsigned) or with
    `--signed`; the k = 2 unsigned ops on random graphs add
    `--sweep-from-eig 2`.

    Dense graphs keep the number of search states nearly the same from
    graph to graph (p = 0.6 unsigned: ~2% spread; p = 0.8 signed: ~10%),
    so a run's cost does not hinge on which graphs the seed drew.
    Unsigned n = 11, k = 3 and signed n = 8, k = 2 are left out: each
    would be ~40% of a cycle on its own, with 20-50% spread between
    sparse graphs.  The fixed product path(4) x path(3) at k = 2 is the
    deep unsigned search (~300k states) and the costliest op.

    The cycle is ordered by cost so that each reported percentile falls
    in the middle of one kind's band of ranks: four kinds lie below
    U9k3, which runs twice and holds the median (ranks 5-6 of 10);
    P4xP3 alone holds p94 (rank 10), 1.3x above the next kind and the
    same graph for every seed.  Unsigned n = 10, k = 3 cost within 5%
    of P4xP3 and blurred that band, so it is left out; U11k2 runs twice
    to keep four kinds above the median."""

    name = "search"
    # (family, n, k, signed, sweep, p)
    _kinds = (
        ("random_connected", 7, 1, True, False, 0.8),
        ("random_connected", 9, 2, False, True, 0.6),
        ("random_connected", 8, 1, True, False, 0.8),
        ("random_connected", 10, 2, False, True, 0.6),
        ("random_connected", 9, 3, False, False, 0.6),
        ("random_connected", 9, 3, False, False, 0.6),
        ("random_connected", 11, 2, False, True, 0.6),
        ("random_connected", 11, 2, False, True, 0.6),
        ("random_connected", 7, 2, True, False, 0.8),
        ("P4xP3", 12, 2, False, False, None),
    )
    cycle = len(_kinds)
    cycle_s = 1.35
    tail_pct = 94

    def make_ops(self, seed: int, c: int, workdir: str) -> list:
        ops = []
        fixed_path = _write_graph(_P4XP3, workdir, "p4xp3")
        for i in range(c * self.cycle, (c + 1) * self.cycle):
            family, n, k, signed, sweep, p = self._kinds[i % self.cycle]
            if family == "P4xP3":
                path = fixed_path
            else:
                s = derive_seed(seed, i)
                g = generate(family, n, s, p=p, w_low=0.5, w_high=2.0)
                if signed:
                    g = with_random_signature(g, derive_seed(s, 1))
                path = _write_graph(g, workdir, f"search{i:05d}")
            argv = ["cheeger", path, "--k", str(k)]
            if signed:
                argv.append("--signed")
            if sweep:
                argv += ["--sweep-from-eig", "2"]
            tag = "P4xP3" if family == "P4xP3" else f"{'S' if signed else 'U'}{n}"
            ops.append({"kind": f"{tag}k{k}", "argv": argv, "path": path, "k": k, "signed": signed})
        return ops

    def run(self, op):
        return _cli_call(op["argv"])

    def digest(self, op, raw, full: bool) -> dict:
        rc, text = raw
        out = json.loads(text)
        return {"rc": rc, "exceeded": out["budget_exceeded"], "certificate": out["certificate"],
                "sweep": out.get("sweep")}

    def check(self, op, d) -> str | None:
        if d["rc"] != 0 or d["exceeded"]:
            return f"exit {d['rc']}, budget exceeded {d['exceeded']}"
        g = load_graph(op["path"])
        cert = d["certificate"]
        problem = check_certificate(g, cert)
        if problem:
            return problem
        k = op["k"]
        kmax = max(k, d["sweep"]["m"]) if d["sweep"] else k
        profile = _reference_profile(g, kmax, op["signed"])
        if not _rho_close(cert["value"], profile[k - 1].value, op["signed"]):
            return f"DFS value {cert['value']!r} != profile DP {profile[k - 1].value!r}"
        if d["sweep"]:
            sweep = d["sweep"]
            problem = check_certificate(g, dict(sweep["certificate"], value=sweep["bound"]))
            if problem:
                return f"sweep: {problem}"
            if sweep["bound"] < profile[sweep["m"] - 1].value:
                return "sweep bound below the exact rho_m"
        return None

    def compare(self, op, d, want) -> str | None:
        got, exp = d["certificate"]["value"], want["certificate"]["value"]
        if not _rho_close(got, exp, op["signed"]):
            return f"rho {got!r} != expected {exp!r}"
        if (d["sweep"] is None) != (want["sweep"] is None):
            return "sweep presence differs"
        if d["sweep"] and not _close(d["sweep"]["bound"], want["sweep"]["bound"], SPECTRAL_TOL):
            return "sweep bound differs"
        return None


# ---------------------------------------------------------------------------
# genericity: many small eigensolves on perturbed graphs


class Genericity:
    """One op is `cheegerlab perturb FILE --eps 0.05 --trials T`.

    T is set per graph so that each op costs about the same (~80 ms at
    the reference pace); the random_connected graphs and the perturbation seed come
    from the workload seed."""

    name = "genericity"
    EPS = "0.05"
    # (family, n, trials)
    _kinds = (
        ("gn", 4, 20),
        ("cycle", 6, 60),
        ("star", 5, 80),
        ("random_connected", 8, 30),
        ("random_connected", 12, 12),
    )
    cycle = len(_kinds)
    cycle_s = 0.4
    tail_pct = 90

    def make_ops(self, seed: int, c: int, workdir: str) -> list:
        ops = []
        for i in range(c * self.cycle, (c + 1) * self.cycle):
            family, n, trials = self._kinds[i % self.cycle]
            s = derive_seed(seed, i)
            if family == "random_connected":
                g = generate(family, n, s, p=0.3, w_low=0.5, w_high=2.0)
                path = _write_graph(g, workdir, f"gen{i:05d}")
            else:
                path = _write_graph(generate(family, n), workdir, family)
            argv = ["perturb", path, "--eps", self.EPS, "--trials", str(trials),
                    "--seed", str(s)]
            ops.append({"kind": f"{family}{n}", "argv": argv})
        return ops

    def run(self, op):
        return _cli_call(op["argv"])

    def digest(self, op, raw, full: bool) -> dict:
        rc, text = raw
        return {"rc": rc, "report": json.loads(text)}

    def check(self, op, d) -> str | None:
        rep = d["report"]
        if d["rc"] != 0 or rep["fraction_simple"] != 1.0 or rep["fraction_zero_free"] != 1.0:
            return f"exit {d['rc']}, fractions {rep['fraction_simple']}, {rep['fraction_zero_free']}"
        return None

    def compare(self, op, d, want) -> str | None:
        got, exp = d["report"], want["report"]
        for key in ("fraction_simple", "fraction_zero_free", "trials"):
            if got[key] != exp[key]:
                return f"{key} {got[key]!r} != expected {exp[key]!r}"
        for key in ("worst_gap", "worst_entry"):
            if not _close(got[key], exp[key], SPECTRAL_TOL):
                return f"{key} {got[key]!r} != expected {exp[key]!r}"
        return None


WORKLOADS = {w.name: w for w in (Corpus(), Frontier(), Search(), Genericity())}
