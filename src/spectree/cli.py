"""Command-line interface.

Exit codes: 0 completed with no violations, 1 completed with violations,
2 usage error or an output that cannot be written, 3 budget/cap error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    BudgetExceededError,
    CapExceededError,
    Graph6Error,
    HypothesisViolationError,
    ParameterError,
)
from .graphs import (
    Broom,
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    GeneralizedBroom,
    Path,
    Spider,
    Star,
    build_family,
    decode_graph6,
    encode_graph6,
    write_edge_list,
)
from .spectral import lemma1_certificate, spectral_radius
from .embed import DEFAULT_BUDGET, all_trees_of_order, contains_tree
from .enumeration import all_graphs
from .harness import (
    CampaignSpec,
    Source,
    SCHEMA_VERSION,
    VerificationReport,
    _ROW_FIELDS,
    render_report,
    run_campaign,
)

USAGE_ERROR = 2
CAP_ERROR = 3


# family tokens sized by --n and --k
_SPLIT_FAMILIES = {
    "s": CompleteSplit,
    "complete-split": CompleteSplit,
    "s+": CompleteSplitPlus,
    "complete-split-plus": CompleteSplitPlus,
}
# family tokens with parameters after the colon, and how many they take
_PARAM_FAMILIES = {
    "path": (Path, 1),
    "star": (Star, 1),
    "complete": (Complete, 1),
    "broom": (Broom, 2),
    "genbroom": (GeneralizedBroom, 3),
}


def parse_family(text, n=None, k=None):
    """Family spec from a CLI token like 'S', 'S+', 'path:6', 'spider:1,1,3'.
    S and S+ take --n and --k; path, star and complete default to --n."""
    name, _, args = text.partition(":")
    try:
        params = [int(x) for x in args.split(",")] if args else []
    except ValueError:
        raise ParameterError(f"family {text!r}: parameters must be integers") from None
    name = name.lower()
    if name in _SPLIT_FAMILIES:
        if n is None or k is None:
            raise ParameterError(f"family {text!r} needs --n and --k")
        return _SPLIT_FAMILIES[name](n, k)
    if name == "spider":
        return Spider(*params)
    if name not in _PARAM_FAMILIES:
        raise ParameterError(f"unknown family {text!r}")
    cls, arity = _PARAM_FAMILIES[name]
    if not params and arity == 1:
        if n is None:
            raise ParameterError(f"family {text!r} needs a parameter or --n")
        params = [n - 1 if name == "star" else n]
    if len(params) != arity:
        raise ParameterError(f"family {text!r}: expected {arity} parameter(s)")
    return cls(*params)


def _read_graph(arg):
    if arg == "-":
        arg = sys.stdin.readline().strip()
    return decode_graph6(arg)


def build_parser():
    p = argparse.ArgumentParser(prog="spectree", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("family", help="emit a family graph as graph6/edge-list")
    f.add_argument("spec", help="family token, e.g. S, S+, path:6, spider:1,1,3")
    f.add_argument("--n", type=int)
    f.add_argument("--k", type=int)
    f.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    f.add_argument("--out")

    m = sub.add_parser("mu", help="spectral radius of a graph6 input")
    m.add_argument("graph", help="graph6 string, or - for stdin")

    c = sub.add_parser("contains", help="tree containment verdict/witness")
    c.add_argument("host", help="graph6 string, family token, or - for stdin")
    c.add_argument("tree", help="family token for the tree pattern")
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    q = sub.add_parser("certify", help="quotient certificate (integer column sums)")
    q.add_argument("graph", help="graph6 string, family token, or - for stdin")
    q.add_argument("--n", type=int)
    q.add_argument("--k", type=int)
    q.add_argument("--a", type=int)
    q.add_argument("--b", type=int)

    e = sub.add_parser("enumerate", help="spool graphs or trees as graph6")
    e.add_argument("what", choices=("graphs", "trees"))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--connected", action="store_true")
    e.add_argument("--out")

    v = sub.add_parser("verify", help="run a campaign")
    v.add_argument("campaign", nargs="?", help="campaign id (or use --config)")
    v.add_argument("--config", help="key=value config file")
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--n", type=int, default=8)
    v.add_argument("--n-max", type=int)
    v.add_argument("--source", default="exhaustive")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--radius", type=int, default=1)
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out")

    r = sub.add_parser("report", help="re-render a stored JSON report")
    r.add_argument("path")
    r.add_argument("--format", choices=("json", "csv"), default="csv")
    r.add_argument("--out")
    return p


def _check_out(path):
    """Fail before any work when --out cannot be written.  The probe creates
    nothing, so a command rejected later leaves no file behind."""
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        folder = os.path.dirname(path) or "."
        writable = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if not writable:
        raise ParameterError(f"cannot write {path}")


def _emit(text, out=None):
    """Write text to the file `out`, or to standard output.  A failed
    write is an output that cannot be written: on standard output the
    unwritten text is dropped, by pointing the descriptor at os.devnull
    and flushing, so that the exit-time flush does not fail again."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc}") from exc
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stdout.flush()
        raise ParameterError(f"cannot write standard output: {exc}") from exc


def _graph_or_family(arg, n, k):
    """A graph6 string, standard input for "-", or else a family token:
    no family token is valid graph6.  An argument that names no family
    fails with the graph6 reader's error."""
    if arg == "-":
        return _read_graph(arg)
    try:
        return decode_graph6(arg)
    except Graph6Error:
        name = arg.partition(":")[0].lower()
        if name not in (*_SPLIT_FAMILIES, *_PARAM_FAMILIES, "spider"):
            raise
        return build_family(parse_family(arg, n=n, k=k))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code in (0, None) else USAGE_ERROR
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return _dispatch(args)
    except (ParameterError, Graph6Error, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CapExceededError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR


def _dispatch(args):
    if args.command == "family":
        g = build_family(parse_family(args.spec, n=args.n, k=args.k))
        text = encode_graph6(g) + "\n" if args.format == "graph6" else write_edge_list(g)
        _emit(text, args.out)
        return 0
    if args.command == "mu":
        g = _read_graph(args.graph)
        res = spectral_radius(g)
        _emit(f"mu {res.mu:.12f} residual {res.residual:.3e}\n")
        return 0
    if args.command == "contains":
        host = _graph_or_family(args.host, args.n, args.k)
        pattern = parse_family(args.tree, n=args.n, k=args.k)
        emb = contains_tree(host, pattern, budget=args.budget)
        if emb is None:
            _emit("not-contained\n")
            return 0
        _emit("contained " + " ".join(f"{p}->{h}" for p, h in emb.pairs()) + "\n")
        return 0
    if args.command == "certify":
        g = _graph_or_family(args.graph, args.n, args.k)
        a = args.a if args.a is not None else (args.k - 1 if args.k else None)
        b = args.b if args.b is not None else (args.k * (g.n - args.k) if args.k else None)
        if a is None or b is None:
            raise ParameterError("give --a/--b or --k to derive them")
        cert = lemma1_certificate(g, a, b)
        _emit(
            f"verdict {cert.verdict} mu_prime {cert.mu_prime:.12f} "
            f"column_sums {list(cert.column_sums)}\n"
        )
        return 0
    if args.command == "enumerate":
        if args.what == "graphs":
            graphs = all_graphs(args.n, connected_only=args.connected)
        else:
            graphs = all_trees_of_order(args.n)
        text = "".join(encode_graph6(g) + "\n" for g in graphs)
        _emit(text, args.out)
        return 0
    if args.command == "verify":
        spec = _campaign_spec_from_args(args)
        report = run_campaign(spec)
        _emit(render_report(report, args.format), args.out)
        print(
            f"campaign {spec.campaign}: scanned {report.totals['graphs_scanned']}, "
            f"violations {report.totals['violations']}",
            file=sys.stderr,
        )
        return 1 if report.totals["violations"] else 0
    if args.command == "report":
        try:
            with open(args.path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read report {args.path}: {exc}") from exc
        version = data.get("schema_version") if isinstance(data, dict) else None
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ParameterError(
                f"{args.path}: schema_version {version!r} is not {SCHEMA_VERSION}"
            )
        rows = data.get("verdicts")
        if not isinstance(rows, list) or not all(
            isinstance(v, dict)
            and all(f in v and type(v[f]) in _ROW_TYPES[f] for f in _ROW_FIELDS)
            and all(type(name) is str for name in v["missing"])
            for v in rows
        ):
            raise ParameterError(f"{args.path}: verdicts are not rows of {', '.join(_ROW_FIELDS)}")
        try:
            report = VerificationReport(**data)
        except TypeError as exc:
            raise ParameterError(f"{args.path}: not a report: {exc}") from exc
        _emit(render_report(report, args.format), args.out)
        return 0
    raise ParameterError(f"unknown command {args.command!r}")


# the JSON types of each verdict row field, matched exactly, since a bool
# is also an int
_ROW_TYPES = {
    "n": (int,), "index": (int,), "key": (str,), "classification": (str,),
    "mu": (int, float, type(None)), "conclusion_holds": (bool, type(None)),
    "missing": (list,), "violation": (bool,),
}


# config-file keys and their value types
CONFIG_KEYS = {"campaign": str, "source": str} | dict.fromkeys(
    ("k", "n", "n_max", "seed", "count", "radius", "budget"), int
)


def _read_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    cfg = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}: bad config line {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{path}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ParameterError(f"{path}: bad value {value!r} for config key {key!r}") from None
    return cfg


def _campaign_spec_from_args(args):
    # the config keys are the argument names, and the config's values win
    if args.config:
        vars(args).update(_read_config(args.config))
    if not args.campaign:
        raise ParameterError("campaign id required (positional or config)")
    kind = args.source
    if kind == "exhaustive":
        source = Source("exhaustive")
    elif kind == "random":
        source = Source("random", count=args.count, seed=args.seed)
    elif kind in ("perturbation", "perturbation-plus"):
        base = (CompleteSplit if kind == "perturbation" else CompleteSplitPlus)(args.n, args.k)
        source = Source(
            "perturbation", count=args.count, seed=args.seed, base=base, radius=args.radius
        )
    else:
        raise ParameterError(f"unknown source {kind!r}")
    n_max = args.n if args.n_max is None else args.n_max
    return CampaignSpec(
        args.campaign, args.k, n_min=args.n, n_max=n_max, source=source, budget=args.budget
    )


if __name__ == "__main__":
    sys.exit(main())
