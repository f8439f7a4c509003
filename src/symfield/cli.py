"""Command-line surface for the symmetry-discovery pipeline.

One subcommand per stage so experiments compose as shell scripts: generate
data, fit a function / level set / density, find annihilating vector
fields, extract invariants and flow parameters, integrate flows, score
similarity, fit discrete symmetries, pull back metrics, and export
transformed coordinates or gridded function values.

Exit codes: 0 success, 2 validation error (a malformed vector or --param is a
usage error; an output that would hold NaN is refused), 3 numerical failure
(a non-finite similarity or memory exhaustion, say).  Any option takes a
negative value after a space; SYMFIELD_SEED overrides every configured seed.
main turns numpy's floating-point warnings off, even under -W error, so an
overflow or a 0/0 warns nothing and the refusals above set the exit code.
An option that the command line's path leaves unread, as the table
UNREAD_OPTIONS names path by path, exits 2 before any work.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import datasets, discrete, geometry, model_fit, vfield
from .features import monomial_basis, trig_extend
from .manifold import OptimizerConfig
from .model_fit import (
    EmptyLevelSetError,
    KdeModel,
    LevelSetModel,
    ScalarFunctionModel,
)
from .serialize import (
    load_json,
    load_model,
    model_from_dict,
    model_to_dict,
    read_csv,
    save_json,
    save_model,
    write_csv,
    _write_table,
)
from .similarity import IntegrationDomain, domain_from_data, similarity
from .vfield import VectorFieldModel

# numerical failures (exit 3), among them memory exhaustion and an exponent
# past a C long; EmptyLevelSetError and LinAlgError are ValueErrors, so main
# catches this tuple before ValueError
NUMERICAL_ERRORS = (EmptyLevelSetError, np.linalg.LinAlgError,
                    FloatingPointError, MemoryError, OverflowError)

NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _effective_seed(args, config_seed: int | None = None) -> int:
    env = os.environ.get("SYMFIELD_SEED")
    if env is not None:
        return int(env)
    if getattr(args, "seed", None) is not None:
        return args.seed
    return config_seed if config_seed is not None else 0


def _opt_config(args) -> OptimizerConfig:
    if getattr(args, "opt_config", None):
        cfg = OptimizerConfig.from_dict(load_json(args.opt_config))
    else:
        cfg = OptimizerConfig()
    return replace(cfg, seed=_effective_seed(args, cfg.seed))


def _basis_for(args, n: int, include_constant: bool = True):
    basis = monomial_basis(n, args.degree, include_constant=include_constant)
    if getattr(args, "trig", False):
        basis = trig_extend(basis)
    return basis


def _load_model(path: str, *kinds):
    model = load_model(path)
    if not isinstance(model, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{path} holds a {type(model).__name__}, not a {names}")
    return model


def _load_member(path: str, key: str, kind=object):
    """The value at key of the JSON object in path, which must be a kind."""
    spec = load_json(path)
    if not (isinstance(spec, dict) and isinstance(spec.get(key), kind)):
        raise ValueError(f"{path} is not an object holding {key!r}")
    return spec[key]


def vector(text: str) -> np.ndarray:
    """The numbers of a comma-separated list; the library checks them."""
    return np.array([float(tok) for tok in text.split(",")])


def name_value(text: str) -> tuple[str, float]:
    """("k", 7.0) from "k=7"; the generator checks the name and value."""
    name, _, value = text.partition("=")
    return name, float(value)


def cmd_gen(args) -> None:
    spec = datasets.GeneratorSpec(
        args.name, args.size, _effective_seed(args), dict(args.param or [])
    )
    data, targets = datasets.generate(spec)
    write_csv(args.out, data, targets)
    save_json(spec.to_dict(), os.path.splitext(args.out)[0] + ".json")


def cmd_fit_fn(args) -> None:
    data, targets = read_csv(args.data)
    if targets is None:
        raise ValueError("fit-fn needs a CSV with a target column")
    model = model_fit.fit_regression(
        data, targets, _basis_for(args, data.shape[1])
    )
    out = model_to_dict(model)
    out["residual"] = model.residual
    out["rank_deficient"] = model.rank_deficient
    save_json(out, args.out)


def _elbow_fit(data, basis, args, config):
    """(model, trace-dict-or-None) with elbow or explicit component count."""
    if args.k is not None:
        model, loss = model_fit.fit_level_set(data, basis, args.k, config)
        return model, None
    k_max = args.k_max if args.k_max is not None else min(len(basis), 8)
    trace = model_fit.select_components_elbow(data, basis, k_max, config)
    return trace.model, trace.to_dict()


def cmd_fit_levelset(args) -> None:
    data, _ = read_csv(args.data)
    config = _opt_config(args)
    outputs = {}  # file name -> model, table or JSON object

    if args.strategy == "project-affine":
        affine, outputs["affine_elbow.json"] = _elbow_fit(
            data, monomial_basis(data.shape[1], 1), args, config
        )
        outputs["affine_model.json"] = affine
        reduced, frame = model_fit.project_onto_affine(data, affine)
        outputs["frame.json"] = {
            "origin": frame.origin.tolist(),
            "axes": [col.tolist() for col in frame.axes.T],
        }
        if reduced.shape[1] > 0:  # else the data lie on a point
            outputs["reduced.csv"] = reduced
            basis = _basis_for(args, reduced.shape[1])
            outputs["reduced_model.json"], outputs["reduced_elbow.json"] = (
                _elbow_fit(reduced, basis, args, config))
    else:
        basis = _basis_for(args, data.shape[1])
        if args.strategy == "extend-columns":
            known = [_load_model(p, ScalarFunctionModel) for p in args.known or []]
            basis = model_fit.extend_degenerate_columns(basis, known, args.degree)
        model, outputs["elbow.json"] = _elbow_fit(data, basis, args, config)
        if args.strategy == "extend-columns":
            outputs["model_full.json"] = model
            model = model.strip_artificial()
        outputs["model.json"] = model

    # nothing is written until every fit has passed
    os.makedirs(args.out, exist_ok=True)
    for name, value in outputs.items():
        path = os.path.join(args.out, name)
        if isinstance(value, np.ndarray):
            write_csv(path, value)
        elif isinstance(value, dict):
            save_json(value, path)
        elif value is not None:  # an elbow trace is None under --k
            save_model(value, path)


def cmd_fit_kde(args) -> None:
    data, targets = read_csv(args.data)
    weights = None
    if args.weights == "target":
        if targets is None:
            raise ValueError("--weights target needs a target column")
        power = 1.0 if args.weight_power is None else args.weight_power
        weights = targets**power
        weights = weights / weights.sum()
    save_model(model_fit.kde_fit(data, weights, args.bandwidth), args.out)


def cmd_find_vf(args) -> None:
    model = _load_model(args.model, ScalarFunctionModel, LevelSetModel, KdeModel)
    data, _ = read_csv(args.data)
    config = _opt_config(args)
    if args.escalate:
        fields, trace = vfield.escalate_vector_fields(
            model, data, args.c, config
        )
    else:
        degree = 1 if args.vf_degree is None else args.vf_degree
        basis = monomial_basis(data.shape[1], degree)
        fields, trace = vfield.estimate_vector_fields(
            model, data, basis, args.c, config
        )
    save_model(fields, args.out)
    if args.trace_out:
        save_json({"final_loss": trace.final_loss}, args.trace_out)


def cmd_find_invariants(args) -> None:
    fields = _load_model(args.vf, VectorFieldModel)
    data, _ = read_csv(args.data)
    basis = _basis_for(args, data.shape[1], include_constant=False)
    models, trace = vfield.estimate_invariants(
        fields, data, basis, args.q, _opt_config(args)
    )
    out = {
        "type": "invariants",
        "models": [model_to_dict(m) for m in models],
        "final_loss": trace.final_loss,
    }
    if len(models) > 1:
        if len(data) < 2:  # np.corrcoef warns on one row; errstate cannot silence it
            raise ValueError("value correlations need at least two rows")
        values = np.column_stack([m(data) for m in models])
        out["value_correlations"] = np.corrcoef(values.T).tolist()
    save_json(out, args.out)


def cmd_flow_param(args) -> None:
    fields = _load_model(args.vf, VectorFieldModel)
    data, _ = read_csv(args.data)
    basis = _basis_for(args, data.shape[1], include_constant=False)
    result = vfield.estimate_flow_parameter(fields, data, basis)
    out = model_to_dict(result.model)
    out["residual"] = result.residual
    out["no_polynomial_flow_parameter"] = result.flagged
    save_json(out, args.out)


def cmd_flow(args) -> None:
    field = _load_model(args.field, VectorFieldModel)
    write_csv(args.out, vfield.flow_integrate(field, args.x0, args.t, args.steps))


def cmd_sim(args) -> None:
    X = _load_model(args.truth, VectorFieldModel)
    X_hat = _load_model(args.estimate, VectorFieldModel)
    if args.data:
        domain = domain_from_data(read_csv(args.data)[0])
    elif args.lower is not None and args.upper is not None:
        domain = IntegrationDomain(args.lower, args.upper)
    else:
        raise ValueError("sim needs --data or both --lower and --upper")
    samples = {} if args.mc_samples is None else {"mc_samples": args.mc_samples}
    report = similarity(X, X_hat, domain, mc_seed=_effective_seed(args), **samples)
    save_json(report.to_dict(), args.out)


def cmd_discrete(args) -> None:
    bounds = None if args.lo is None and args.hi is None else (args.lo, args.hi)
    data, _ = read_csv(args.data)
    model = _load_model(args.model, ScalarFunctionModel, KdeModel)
    if isinstance(model, KdeModel) and args.opt_config is not None:
        raise ValueError("a KDE model reads no --opt-config: its fit is mean-absolute")
    if args.family == "reflection":
        family = discrete.reflection_family()
    elif args.family == "rotation":
        family = discrete.rotation_family(args.lo, args.hi)
    else:
        if args.entries is None:
            raise ValueError("user-linear needs --entries")
        family = discrete.user_linear_family(
            _load_member(args.entries, "entries"),
            1 if args.n_params is None else args.n_params,
            "unit-norm" if bounds is None else "interval", bounds)
    result = (discrete.fit_density(model, data, family)
              if isinstance(model, KdeModel)
              else discrete.fit_discrete(model, data, family, _opt_config(args)))
    save_json(result.to_dict(), args.out)


def cmd_pullback(args) -> None:
    source, _ = read_csv(args.source)
    image, _ = read_csv(args.image)
    map_model = geometry.fit_map(
        source, image, monomial_basis(source.shape[1], args.degree)
    )
    g = geometry.pullback_metric(map_model, args.point)
    save_json({"point": args.point.tolist(), "metric": g.tolist()}, args.out)


def cmd_transform(args) -> None:
    data, _ = read_csv(args.data)
    columns, header = [], []
    if args.invariants:
        for i, d in enumerate(_load_member(args.invariants, "models", list)):
            model = model_from_dict(d)
            if not isinstance(model, ScalarFunctionModel):
                raise ValueError(f"invariant {i + 1} is not a scalar model")
            columns.append(model(data))
            header.append(f"h{i + 1}")
    if args.angle:
        if data.shape[1] != 2:
            raise ValueError("--angle needs two-dimensional data")
        columns.append(np.arctan2(data[:, 1], data[:, 0]))
        header.append("theta")
    elif args.flow_param:
        model = _load_model(args.flow_param, ScalarFunctionModel)
        columns.append(model(data))
        header.append("theta")
    if not columns:
        raise ValueError("transform needs invariants, --flow-param, or --angle")
    _write_table(args.out, np.column_stack(columns), header)


def cmd_grid(args) -> None:
    model = _load_model(args.model, ScalarFunctionModel, LevelSetModel,
                        KdeModel, VectorFieldModel)
    box = IntegrationDomain(args.lower, args.upper)
    if args.resolution < 1:
        raise ValueError("resolution must be >= 1")
    axes = [np.linspace(lo, hi, args.resolution)
            for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    if isinstance(model, KdeModel):
        values = model_fit.kde_eval(model, points)
    else:
        values = model(points)
    values = values.reshape(len(points), -1)  # one column per output
    k = values.shape[1]
    header = [f"x{i + 1}" for i in range(points.shape[1])] + (
        ["value"] if k == 1 else [f"value{j + 1}" for j in range(k)])
    _write_table(args.out, np.column_stack([points, values]), header)


def _add_common(p, seed=True, opt=True):
    if seed:
        p.add_argument("--seed", type=int, default=None)
    if opt:
        p.add_argument("--opt-config", default=None,
                       help="JSON optimizer configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfield",
        description="Symmetry discovery for functions fitted to tabular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--name", required=True, choices=datasets.GENERATOR_NAMES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--param", type=name_value, action="append")
    p.add_argument("--out", required=True)
    _add_common(p, opt=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit-fn", help="regress targets over a dictionary")
    p.add_argument("--data", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trig", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_fn)

    p = sub.add_parser("fit-levelset", help="constrained level-set estimation")
    p.add_argument("--data", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trig", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument(
        "--strategy",
        choices=("plain", "project-affine", "extend-columns"),
        default="plain",
    )
    p.add_argument("--known", action="append",
                   help="scalar model JSON for extend-columns")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_fit_levelset)

    p = sub.add_parser("fit-kde", help="weighted kernel density estimation")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", choices=("none", "target"), default="none")
    p.add_argument("--weight-power", type=float, default=None, help="default 1")
    p.add_argument("--bandwidth", default="scott")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_kde)

    p = sub.add_parser("find-vf", help="estimate annihilating vector fields")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vf-degree", type=int, default=None, help="default 1")
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--escalate", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_find_vf)

    p = sub.add_parser("find-invariants", help="estimate invariant features")
    p.add_argument("--vf", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trig", action="store_true")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_find_invariants)

    p = sub.add_parser("flow-param", help="fit a flow parameter")
    p.add_argument("--vf", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trig", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow_param)

    p = sub.add_parser("flow", help="integrate a vector-field flow")
    p.add_argument("--field", required=True)
    p.add_argument("--x0", type=vector, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("sim", help="score two vector fields")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--lower", type=vector, default=None)
    p.add_argument("--upper", type=vector, default=None)
    p.add_argument("--mc-samples", type=int, default=None, help="default 100000")
    p.add_argument("--out", required=True)
    _add_common(p, opt=False)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("discrete", help="fit a discrete parametric symmetry")
    p.add_argument("--model", required=True,
                   help="scalar model JSON, or KDE JSON (fitted under the "
                   "mean-absolute loss)")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--family",
        choices=("reflection", "rotation", "user-linear"),
        required=True,
    )
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--entries", default=None,
                   help="user-linear matrix entries JSON")
    p.add_argument("--n-params", type=int, default=None, help="default 1")
    p.add_argument("--out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("pullback", help="pull back the ambient metric")
    p.add_argument("--source", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--point", type=vector, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("transform", help="export invariant/flow coordinates")
    p.add_argument("--data", required=True)
    p.add_argument("--invariants", default=None)
    theta = p.add_mutually_exclusive_group()
    theta.add_argument("--flow-param", default=None)
    theta.add_argument("--angle", action="store_true",
                       help="append the polar angle of 2-D data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("grid", help="gridded function-value CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--lower", type=vector, required=True)
    p.add_argument("--upper", type=vector, required=True)
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    return parser


# command -> [(a path, whether the parsed arguments take it, the options that
# path leaves unread)]; main refuses any such option that the command line set,
# which it sees as a parsed value other than None
UNREAD_OPTIONS = {
    "fit-levelset": [
        ("with --k", lambda a: a.k is not None, ("--k-max",)),
        ("off --strategy extend-columns", lambda a: a.strategy != "extend-columns",
         ("--known",))],
    "fit-kde": [("off --weights target", lambda a: a.weights != "target",
                 ("--weight-power",))],
    "find-vf": [("with --escalate", lambda a: a.escalate, ("--vf-degree",))],
    "sim": [("with --data", lambda a: a.data is not None, ("--lower", "--upper"))],
    "discrete": [
        ("off --family user-linear", lambda a: a.family != "user-linear",
         ("--entries", "--n-params")),
        ("with --family reflection", lambda a: a.family == "reflection",
         ("--lo", "--hi"))],
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--t -1e-3" as "--t=-1e-3": no option starts with "-<digit>" or
    "-." and no command takes a positional argument."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    for path, takes, options in UNREAD_OPTIONS.get(args.command, ()):
        given = [o for o in options if getattr(args, o[2:].replace("-", "_")) is not None]
        if given and takes(args):
            print(f"error: {args.command} {path} reads no {given[0]}", file=sys.stderr)
            return 2
    try:
        with np.errstate(all="ignore"):  # the refusals below set the exit code
            args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
