"""Command-line interface.

Subcommands: gen-ng, coreset, solve, verify, experiment, lowerbound,
sparsity.  Settings arrive as flags, and every JSON output embeds them with
the values worked out from them (such as the effective loss exponent), so a
result can always be traced back to the seeds and flags that produced it.
Exit codes: 0 success, 1 invalid input, 2 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .conditioning import p_conditioned_basis
from .coreset import Coreset, _check_drawn_from, build_coreset, sample_size, verify_coreset
from .errors import TheoremInapplicableError
from .experiments import (
    ExperimentConfig,
    canonical_json,
    emit_report,
    generate_ng_matrix,
    generate_response,
    ng_draws,
    run_relative_error_experiment,
    run_sparsity_experiment,
)
from .linalg import (
    RegressionInstance,
    augment,
    base64_slices,
    check_count,
    check_fraction,
    check_keys,
    check_lambda,
    encode_array,
)
from .lowerbound import demonstrate_violation
from .objective import FAMILIES, ObjectiveSpec
from .seeding import mix_seed
from .sensitivity import (
    lp_lp_sensitivity_bounds,
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
    uniform_scores,
)
from .solvers import (
    solve_lasso,
    solve_lp_lp,
    solve_modified_lasso,
    solve_rlad,
    solve_ridge,
)

_TAG_QUERIES = 0x06  # the seed tag of verify's queries

# --scheme -> (its scores of (instance, args), the flags they do not read) and
# --family -> (its solve of (instance, args), the flags it does not read).  Each
# entry calls its function by name when it runs, so a wrapper on that name sees it.
_SCHEMES = {
    "uniform": (lambda instance, args: uniform_scores(instance.n), ("lam", "p")),
    "ridge-leverage": (lambda instance, args: ridge_leverage_scores(instance, args.lam), ("p",)),
    "lp-lp": (lambda instance, args: lp_lp_sensitivity_bounds(
        p_conditioned_basis(augment(instance), args.p), args.lam), ()),
    "rlad": (lambda instance, args: rlad_sensitivity_bounds(
        p_conditioned_basis(augment(instance), 1.0), args.lam), ("p",)),
}
_SOLVERS = {
    "ridge": (lambda instance, args: solve_ridge(instance, args.lam), ("tol",)),  # closed form
    "lasso": (lambda instance, args: solve_lasso(instance, args.lam, tol=args.tol), ()),
    "modified_lasso": (
        lambda instance, args: solve_modified_lasso(instance, args.lam, tol=args.tol), ()),
    "rlad": (lambda instance, args: solve_rlad(instance, args.lam, tol=args.tol), ()),
    "lp_lp": (lambda instance, args: solve_lp_lp(instance, args.p, args.lam, tol=args.tol), ()),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write(doc, out: str | None) -> None:
    """Write a document, given as its text or as its text's pieces in order."""
    pieces = [doc] if isinstance(doc, str) else doc
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
            fh.write("\n")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


def _load_object(path: str, what: str, required=()) -> dict:
    with open(path, encoding="utf-8") as fh:
        return check_keys(json.load(fh), required, f"{what} file {path}")


def _load_instance(path: str) -> RegressionInstance:
    doc = _load_object(path, "instance", ("design", "response"))
    return RegressionInstance(doc["design"], doc["response"])


def _load_coreset(path: str) -> Coreset:
    """Read a bare or provenance-wrapped coreset document."""
    doc = _load_object(path, "coreset")
    return Coreset.from_dict(doc.get("coreset", doc))


def _config(args, *ignored, **worked_out) -> dict:
    """The command's arguments less the ignored ones, with the values it worked out."""
    config = {
        "lambda" if key == "lam" else key: value
        for key, value in vars(args).items()
        if key not in ("command", "func", "out", *ignored)
    }
    config.update(worked_out, subcommand=args.command)
    return config


# Stands in for the design's base64 text in gen-ng's document.  No flag the
# document echoes can hold it: a command-line argument cannot contain a NUL.
_DESIGN_TEXT = "\x00"


def _cmd_gen_ng(args) -> int:
    data_seed, x_true, noise_seed = ng_draws(args.seed, args.d)
    A = generate_ng_matrix(args.n, args.d, args.alpha, data_seed)
    b = generate_response(A, x_true, args.noise_scale, noise_seed)
    payload = {
        "config": _config(args),
        "n": args.n,
        "d": args.d,
        "design": encode_array(A, text=_DESIGN_TEXT),
        "response": encode_array(b),
        "x_true": encode_array(x_true),
    }
    # The design's text is written a slice at a time, never held whole.
    head, tail = canonical_json(payload).split(canonical_json(_DESIGN_TEXT))
    _write(itertools.chain([head, '"'], base64_slices(A), ['"', tail]), args.out)
    return 0


def _cmd_coreset(args) -> int:
    check_lambda(args.lam)
    if (args.size is None) == (args.epsilon is None):
        raise ValueError("give exactly one of --size or --epsilon")
    if args.epsilon is not None:
        check_fraction(args.epsilon, "epsilon")
    instance = _load_instance(args.instance)
    score, unread = _SCHEMES[args.scheme]
    scores = score(instance, args)
    if args.size is not None:
        r = args.size
        unread += ("epsilon", "delta")  # only --epsilon sizing reads them
    else:
        r = sample_size(scores.total, args.epsilon, args.delta, instance.d + 1)
    core = build_coreset(instance, scores, r, args.seed)
    payload = {"config": _config(args, *unread), "coreset": core.to_dict()}
    _write(canonical_json(payload), args.out)
    return 0


def _cmd_solve(args) -> int:
    if (args.instance is None) == (args.coreset is None):
        raise ValueError("give exactly one of --instance or --coreset")
    spec = ObjectiveSpec.for_family(args.family, args.lam, p=args.p)
    if args.instance is not None:
        instance = _load_instance(args.instance)
    else:
        instance = _load_coreset(args.coreset).as_instance(spec.p)
    solve, unread = _SOLVERS[args.family]
    result = solve(instance, args)
    payload = {"config": _config(args, *unread, p=spec.p), **result.to_dict()}
    _write(canonical_json(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    check_fraction(args.epsilon, "epsilon")
    check_count(args.queries, "--queries")
    spec = ObjectiveSpec.for_family(args.family, args.lam, p=args.p)
    instance = _load_instance(args.instance)
    core = _load_coreset(args.coreset)
    rng = np.random.default_rng(mix_seed(args.seed, _TAG_QUERIES))
    queries = list(rng.standard_normal((args.queries, instance.d)))
    report = verify_coreset(instance, core, spec, queries, args.epsilon)
    payload = {"config": _config(args, p=spec.p), **asdict(report)}
    _write(canonical_json(payload), args.out)
    return 0


# The ExperimentConfig fields an experiment flag sets, each with the type of its
# value: --master-seed sets master_seed.  A list field, [kind], takes values of
# that kind separated by commas, converted after parsing so that an error names
# the field.  normalize is set only through --config; sparsity has fewer flags.
_EXPERIMENT_FLAGS = {
    "n": int, "d": int, "master_seed": int, "trials_per_cell": int,
    "objective_family": str, "ng_alpha": float, "noise_scale": float,
    "lambda_grid": [float], "sample_sizes": [int], "schemes": [str],
    "csv_path": str, "target_column": str,
}


def _experiment_config(args) -> ExperimentConfig:
    doc = _load_object(args.config, "config") if args.config else {}
    for field, kind in _EXPERIMENT_FLAGS.items():
        value = getattr(args, field, None)  # sparsity lacks some of the flags
        if value is None:
            continue
        if isinstance(kind, list):
            try:
                value = [kind[0](v) for v in value.split(",")]
            except ValueError as exc:
                raise ValueError(f"{field}: {exc}") from None
        doc[field] = value
    doc.setdefault("sample_sizes", [50])
    return ExperimentConfig.from_dict(doc)


def _cmd_table(args) -> int:
    config = _experiment_config(args)
    table = args.runner(config)
    if args.format == "csv":
        _write(emit_report(table, "csv"), args.out)
    else:
        payload = {"config": config.to_dict(), "table": table.to_dict()}
        _write(canonical_json(payload), args.out)
    return 0


def _cmd_lowerbound(args) -> int:
    check_fraction(args.epsilon, "epsilon")
    spec = ObjectiveSpec(args.p, args.q, args.r, args.s, lam=args.lam)
    instance, aprime = None, np.eye(2)  # canonical demonstration matrix
    if args.instance is not None:
        instance = _load_instance(args.instance)
        aprime = augment(instance)
    if args.coreset is not None:
        core = _load_coreset(args.coreset)
        if instance is not None:
            _check_drawn_from(core, instance)
    else:
        core = Coreset(rows=[[1.0, 0.0]], weights=[1.0], source_indices=[0], seed=0,
                       scheme="identity", n_source=2)
    payload = {"config": _config(args)}
    try:
        witness = demonstrate_violation(aprime, core, spec, args.epsilon, seed=args.seed)
    except TheoremInapplicableError as exc:
        payload.update(status="theorem-inapplicable", detail=str(exc))
    else:
        payload.update(
            status="violation" if witness is not None else "no-violation",
            witness=witness.to_dict() if witness is not None else None,
        )
    _write(canonical_json(payload), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="regcoreset", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    g = sub.add_parser("gen-ng", help="generate a nearly-degenerate instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--alpha", type=float, default=ExperimentConfig.ng_alpha)
    g.add_argument("--noise-scale", type=float, default=ExperimentConfig.noise_scale)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen_ng)

    c = sub.add_parser("coreset", help="sample a coreset from an instance")
    c.add_argument("--instance", required=True)
    c.add_argument("--scheme", required=True, choices=list(_SCHEMES))
    c.add_argument("--lambda", dest="lam", type=float, default=0.0)
    c.add_argument("--size", type=int, default=None)
    c.add_argument("--epsilon", type=float, default=None)
    c.add_argument("--delta", type=float, default=0.1)
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_coreset)

    s = sub.add_parser("solve", help="solve an objective on an instance or coreset")
    s.add_argument("--instance", default=None)
    s.add_argument("--coreset", default=None)
    s.add_argument("--family", required=True, choices=list(_SOLVERS))
    s.add_argument("--lambda", dest="lam", type=float, default=0.0)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--tol", type=float, default=1e-7,
                   help="lasso families: relative gap bound at lambda > 0, KKT "
                        "residual at lambda = 0; rlad: gap bound at lambda > 0, "
                        "else stall tolerance; lp_lp: stall tolerance")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="check a coreset against its instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--coreset", required=True)
    v.add_argument("--family", default="ridge", choices=list(FAMILIES))
    v.add_argument("--lambda", dest="lam", type=float, default=0.0)
    v.add_argument("--p", type=float, default=2.0)
    v.add_argument("--epsilon", type=float, required=True)
    v.add_argument("--queries", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    # sparsity solves three fixed families on the full data: it has no flag for
    # the fields it does not read.
    for name, runner, unread in (
        ("experiment", run_relative_error_experiment, ()),
        ("sparsity", run_sparsity_experiment,
         ("objective_family", "sample_sizes", "schemes", "trials_per_cell")),
    ):
        e = sub.add_parser(name, help=f"run the {name} protocol")
        e.add_argument("--config", default=None)
        for field, kind in _EXPERIMENT_FLAGS.items():
            if field in unread:
                continue
            e.add_argument("--" + field.replace("_", "-"), default=None,
                           type=str if isinstance(kind, list) else kind)
        e.add_argument("--format", choices=["json", "csv"], default="json")
        e.add_argument("--out", default=None)
        e.set_defaults(func=_cmd_table, runner=runner)

    lb = sub.add_parser("lowerbound", help="emit a mismatched-exponent witness")
    lb.add_argument("--instance", default=None)
    lb.add_argument("--coreset", default=None)
    lb.add_argument("--p", type=float, default=2.0)
    lb.add_argument("--q", type=float, default=1.0)
    lb.add_argument("--r", type=float, default=2.0)
    lb.add_argument("--s", type=float, default=1.0)
    lb.add_argument("--lambda", dest="lam", type=float, default=1.0)
    lb.add_argument("--epsilon", type=float, default=0.1)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--out", default=None)
    lb.set_defaults(func=_cmd_lowerbound)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    if getattr(args, "func", None) is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
