"""Command-line front end: verification suites, simulation, curvature, rank.

Subcommands
-----------
verify          randomized Poisson-algebra verification (sl2z, casimirs,
                so4, lrl, or all); exit 0 iff every residual is below the
                threshold, 1 on residual failure, 2 on invalid input.
simulate        integrate a family Hamiltonian, write a trajectory CSV and a
                drift summary; exit 3 when a chart singularity ends the run
                early (the partial CSV is still written).
curvature       numeric-vs-closed-form curvature scan over a regular grid.
rank            functional-independence rank histogram over random states.
export-presets  dump the named (kappa1, kappa2) presets.

A flat key=value config file (UTF-8) can preload any long option (flags
win); one that cannot be read or decoded exits 2.  The seed is ``--seed``
(or the config file's ``seed = N``), else 0, so identical invocations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import struct
import sys

import numpy as np

from . import coalgebra, dynamics, spaces, symmetry
from .kernel import DomainError
from .phase import Chart, ChartSingularityError, PhaseState

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


def _load_config(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise DomainError(f"{path}: not UTF-8 text: {err}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _space_params(args):
    if getattr(args, "preset", None):
        params = spaces.SpaceParams.preset(args.preset, gamma=args.gamma)
    else:
        if args.z is None or args.kappa2 is None:
            raise DomainError("provide --preset or both --z and --kappa2")
        params = spaces.SpaceParams(z=args.z, kappa2=args.kappa2,
                                    gamma=args.gamma)
    return params


def _seed(args):
    return 0 if args.seed is None else int(args.seed)


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_ENCODE_STR = json.encoder.encode_basestring_ascii
_SCALAR_JSON = {str: _ENCODE_STR, int: int.__repr__, type(None): lambda _: "null",
                bool: lambda b: "true" if b else "false",
                float: lambda x: float.__repr__(x) if -math.inf < x < math.inf
                else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"}


@functools.lru_cache(maxsize=256)
def _dict_layout(keys, pad):
    """Sorted keys, each with the text before its value: brace or comma, indent, key."""
    return tuple((k, ("," if i else "{") + pad + "  " + _ENCODE_STR(k) + ": ")
                 for i, k in enumerate(sorted(keys)))


def _json_text(doc):
    """``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte (str keys
    only), without the pure-Python encoder that ``indent`` selects.  Scalars
    go by exact type, then in json's ``isinstance`` order (``np.float64`` is a
    float); other types raise TypeError.  Dicts follow a cached key layout; a
    list of exact floats is one join of reprs, once per indent and bit pattern."""
    float_lists = {}

    def write(o, pad):
        inner = pad + "  "
        if isinstance(o, dict):         # no type is both a container and a scalar
            return "".join([pre + (w(v) if (w := _SCALAR_JSON.get(type(v := o[k])))
                                   else write(v, inner)) for k, pre in
                            _dict_layout(tuple(o), pad)]) + pad + "}" if o else "{}"
        if isinstance(o, (list, tuple)):
            sep = "," + inner
            if set(map(type, o)) != {float}:    # or empty
                text = sep.join([w(v) if (w := _SCALAR_JSON.get(type(v))) else write(v, inner)
                                 for v in o])
                return "[" + inner + text + pad + "]" if o else "[]"
            key = pad, struct.pack(f"{len(o)}d", *o)
            if (text := float_lists.get(key)) is None:
                text = sep.join(map(float.__repr__, o))
                if "n" in text:         # only inf and nan reprs hold an n
                    text = sep.join(map(_SCALAR_JSON[float], o))
                text = float_lists[key] = "[" + inner + text + pad + "]"
            return text
        w = _SCALAR_JSON.get(type(o)) or next(
            (_SCALAR_JSON[t] for t in (str, int, float) if isinstance(o, t)), None)
        if w is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        return w(o)

    return write(doc, "\n")


def _dump_json(doc, path):
    _emit(_json_text(doc), path)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

_COALGEBRA_GENS = frozenset(("jminus", "jplus", "jthree"))
_SO4_GENS = frozenset(("j01", "j02", "j03", "j12", "j13", "j23"))


def _route_perturb(suite, perturb):
    """Split a --perturb name between the coalgebra and so(4) suites."""
    if perturb is None:
        return None, None
    if perturb not in _COALGEBRA_GENS | _SO4_GENS:
        raise DomainError(f"unknown generator {perturb!r}; coalgebra suites "
                          f"take {sorted(_COALGEBRA_GENS)}, polar suites "
                          f"{sorted(_SO4_GENS)}")
    coalgebra_gen = perturb in _COALGEBRA_GENS
    if suite != "all" and coalgebra_gen != (suite in ("sl2z", "casimirs")):
        raise DomainError(f"{perturb!r} does not name a generator of the {suite} suite")
    return (perturb, None) if coalgebra_gen else (None, perturb)


def _run_suites(suite, params, samples, seed, perturb):
    """sl2z (one and three sites), casimirs, so4, lrl: one batch per sampler."""
    cperturb, sperturb = _route_perturb(suite, perturb)
    beltrami, polar = [], []
    if suite in ("sl2z", "all"):
        beltrami += [coalgebra._sl2z_job(r, cperturb) for r in
                     (coalgebra.one_site(params.z), coalgebra.three_site(params.z))]
    if suite in ("casimirs", "all"):
        beltrami.append(coalgebra._casimirs_job(params.z, cperturb))
    if suite in ("so4", "all"):
        polar.append(symmetry._so4_job(params, sperturb))
    if suite in ("lrl", "all"):
        polar.append(symmetry._lrl_job(params, sperturb))
    batches = ((beltrami, coalgebra.sample_beltrami), (polar, symmetry._polar_sampler(params)))
    return [report for jobs, sampler in batches if jobs
            for report in coalgebra.run_tables(jobs, sampler, samples, seed)]


def _cmd_verify(args):
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise DomainError(f"--threshold must be finite and > 0, got {args.threshold!r}")
    if args.suite in ("sl2z", "casimirs") and not args.preset \
            and args.kappa2 is None:
        args.kappa2 = 1.0  # these suites depend on z only
    params = _space_params(args)
    seed = _seed(args)
    reports = [r.as_dict() for r in
               _run_suites(args.suite, params, args.samples, seed, args.perturb)]
    worst = float(np.max([r["max_residual"] for r in reports]))  # NaN wins
    passed = worst < args.threshold
    doc = {
        "schema": 1,
        "suite": args.suite,
        "params": {"z": params.z, "kappa2": params.kappa2,
                   "gamma": params.gamma},
        "samples": args.samples,
        "seed": seed,
        "threshold": args.threshold,
        "max_residual": worst,
        "passed": passed,
        "reports": reports,
    }
    _dump_json(doc, args.out)
    return EXIT_OK if passed else EXIT_FAIL


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _parse_state(text):
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 6:
        raise DomainError("--state needs 6 comma-separated numbers")
    coords = tuple(float(p) for p in parts)
    if not all(math.isfinite(c) for c in coords):
        raise DomainError(f"--state coordinates must be finite, got {text!r}")
    return coords


def _family_of(args):
    if not getattr(args, "family", None):
        raise DomainError("--family is required")
    try:
        family = spaces.Family(args.family)
    except ValueError:
        raise DomainError(f"unknown family {args.family!r}") from None
    if family is spaces.Family.CUSTOM:
        raise DomainError("the CLI drives the four named families")
    return family


def _cmd_simulate(args):
    params = _space_params(args)
    family = _family_of(args)
    if not args.state:
        raise DomainError("--state is required")
    spec = spaces.HamiltonianSpec(family, params)
    polar = family.polar_chart
    chart = _chart_of(args) if args.chart else polar
    state = PhaseState(chart, _parse_state(args.state))
    if chart is Chart.BELTRAMI:
        state = spaces.to_polar(state, params, polar)
    elif chart is not polar:
        raise DomainError(f"{family.value} integrates on {polar.value}")

    h = spaces.hamiltonian(spec, polar)
    monitors = dict(symmetry.constants(spec, polar))
    monitors["H"] = h
    cfg = dynamics.IntegratorConfig(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, t_end=args.t_end,
        max_step=args.max_step, sample_stride=args.stride,
        method=args.method, fixed_step=args.fixed_step)
    guard = spaces.chart_guard(polar, params)
    code = EXIT_OK
    try:
        tr = dynamics.integrate(h, state, cfg, monitors=monitors,
                                domain_guard=guard)
    except dynamics.StepUnderflowError as err:
        tr = err.trajectory
        code = EXIT_SINGULAR
    if tr.terminated_early:
        code = EXIT_SINGULAR
    _emit(dynamics.trajectory_csv(tr), args.csv)
    summary = {
        "schema": 1,
        "family": family.value,
        "params": {"z": params.z, "kappa2": params.kappa2,
                   "gamma": params.gamma},
        "t_end": args.t_end,
        "samples": len(tr.times),
        "terminated_early": tr.terminated_early,
        "termination_reason": tr.termination_reason,
        "drift": dynamics.drift_report(tr),
        "stats": tr.stats.as_dict(),
    }
    if args.summary:
        _dump_json(summary, args.summary)
    else:
        print(_json_text(summary), file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def _parse_grid(text):
    axes = text.split(",")
    if len(axes) != 3:
        raise DomainError("--grid needs three ranges lo:hi:n")
    out = []
    for axis in axes:
        bits = axis.split(":")
        if len(bits) != 3:
            raise DomainError(f"bad grid axis {axis!r}; want lo:hi:n")
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"grid bounds must be finite, got {axis!r}")
        if n < 1:
            raise DomainError("grid axis needs n >= 1")
        out.append(np.linspace(lo, hi, n))
    return out

def _chart_of(args):
    if not getattr(args, "chart", None):
        raise DomainError("--chart is required")
    try:
        return Chart(args.chart)
    except ValueError:
        raise DomainError(f"unknown chart {args.chart!r}") from None


def _cmd_curvature(args):
    params = _space_params(args)
    chart = _chart_of(args)
    if not args.grid:
        raise DomainError("--grid is required")
    if args.kind not in ("nc", "cc"):
        raise DomainError("--kind must be nc or cc")
    if not (math.isfinite(args.step) and args.step > 0):
        raise DomainError(f"--step must be finite and > 0, got {args.step!r}")
    axes = _parse_grid(args.grid)
    guard = spaces.chart_guard(chart, params)
    lines = ["x1,x2,x3,K12,K13,K23,K,closed_K,abs_err"]
    errs = []
    for x1 in axes[0]:
        for x2 in axes[1]:
            for x3 in axes[2]:
                where = f"grid point ({x1:g}, {x2:g}, {x3:g})"
                reason = guard((x1, x2, x3, 0.0, 0.0, 0.0))
                if reason is not None:
                    raise ChartSingularityError(f"{where}: {reason}")
                try:
                    res = spaces.curvature(chart, args.kind, (x1, x2, x3),
                                           params, h=args.step)
                except (ValueError, ArithmeticError) as exc:
                    name = "" if isinstance(exc, ValueError) else f"{type(exc).__name__}: "
                    raise DomainError(f"{where}: {name}{exc}") from None
                closed = res.closed["kscalar"]
                err = abs(res.kscalar - closed)
                errs.append(err)
                row = [x1, x2, x3, res.k12, res.k13, res.k23, res.kscalar, closed, err]
                lines.append(",".join(f"{v:.17g}" for v in row))
    max_err = float(np.max(errs, initial=0.0))  # NaN if any row's is NaN
    lines.append(f"max_abs_err,,,,,,,,{max_err:.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# rank
# --------------------------------------------------------------------------

def _cmd_rank(args):
    params = _space_params(args)
    family = _family_of(args)
    if args.samples < 1:
        raise DomainError("samples must be >= 1")
    spec = spaces.HamiltonianSpec(family, params)
    polar = family.polar_chart
    consts = symmetry.constants(spec, polar)
    obs = [consts["C2"], consts["C2mid"], consts["C3"],
           spaces.hamiltonian(spec, polar)]
    expected = 4
    if args.append_lrl != "none":
        if family is not spaces.Family.KEPLER_CC:
            raise DomainError("--append-lrl applies to kepler-cc only")
        obs.append(consts[args.append_lrl])
        expected = 5
    rng = np.random.default_rng(_seed(args))
    states = symmetry.sample_polar(params, rng, chart=polar, n=args.samples)
    histogram = {}
    for r in symmetry.independence_ranks(obs, states):
        histogram[r] = histogram.get(r, 0) + 1
    modal = max(sorted(histogram), key=lambda k: histogram[k])
    doc = {
        "schema": 1,
        "family": family.value,
        "observables": [getattr(o, "name", "") for o in obs],
        "expected_rank": expected,
        "observed_ranks": {str(k): v for k, v in sorted(histogram.items())},
        "modal_rank": modal,
        "passed": modal == expected,
        "samples": args.samples,
        "seed": _seed(args),
    }
    _dump_json(doc, args.out)
    return EXIT_OK if modal == expected else EXIT_FAIL


def _cmd_export_presets(args):
    doc = {
        "schema": 1,
        "presets": {name: {"kappa1": k1, "kappa2": k2}
                    for name, (k1, k2) in sorted(spaces.PRESETS.items())},
    }
    _dump_json(doc, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _add_space_args(p, gamma_default=0.0):
    p.add_argument("--preset", choices=sorted(spaces.PRESETS), default=None,
                   help="named constant-curvature space (sets z and kappa2)")
    p.add_argument("--z", type=float, default=None,
                   help="deformation parameter z = kappa1")
    p.add_argument("--kappa2", type=float, default=None,
                   help="signature label kappa2 (nonzero)")
    p.add_argument("--gamma", type=float, default=gamma_default,
                   help="Kepler coupling gamma (k = 2 sqrt(2) gamma)")


def _add_common(p, out=True):
    p.add_argument("--config", default=None,
                   help="flat key = value file preloading any long option")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default 0)")
    if out:     # simulate writes --csv and --summary instead
        p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvkepler",
        description="Superintegrable free/Kepler systems on 3D curved "
                    "spaces: verification, simulation, curvature, rank.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="randomized Poisson-algebra checks")
    p.add_argument("--suite", choices=("sl2z", "casimirs", "so4", "lrl", "all"),
                   default="all")
    _add_space_args(p, gamma_default=0.5)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="pass/fail residual threshold")
    p.add_argument("--perturb", default=None,
                   help="scale one generator by 1.01 (negative control)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="integrate a family Hamiltonian")
    p.add_argument("--family", default=None,
                   help="free-nc | free-cc | kepler-nc | kepler-cc")
    _add_space_args(p)
    p.add_argument("--state", default=None,
                   help="6 comma-separated phase coordinates")
    p.add_argument("--chart", choices=sorted(c.value for c in Chart), default=None,
                   help="chart of --state (default: the family's polar chart)")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--max-step", type=float, default=math.inf)
    p.add_argument("--stride", type=int, default=1,
                   help="record every N-th accepted step")
    p.add_argument("--method", choices=("dopri54", "implicit-midpoint"),
                   default="dopri54")
    p.add_argument("--fixed-step", type=float, default=0.0)
    p.add_argument("--csv", default=None, help="trajectory CSV path")
    p.add_argument("--summary", default=None, help="drift summary JSON path")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curvature", help="curvature scan over a grid")
    p.add_argument("--kind", default=None, help="nc | cc")
    p.add_argument("--chart", default=None,
                   help="beltrami | polar-variable | polar-constant")
    _add_space_args(p)
    p.add_argument("--grid", default=None, help="lo:hi:n,lo:hi:n,lo:hi:n")
    p.add_argument("--step", type=float, default=1e-4,
                   help="finite-difference step for the Riemann pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("rank", help="functional-independence rank histogram")
    p.add_argument("--family", default=None,
                   help="free-nc | free-cc | kepler-nc | kepler-cc")
    _add_space_args(p, gamma_default=0.5)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--append-lrl", choices=("none", "L1", "L2", "L3"),
                   default="none")
    _add_common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("export-presets", help="dump named space presets")
    _add_common(p)
    p.set_defaults(func=_cmd_export_presets)

    parser.command_parsers = tuple(sub.choices.values())
    return parser


def _extract_config_path(argv):
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


# The parser of calls without --config, built on first use; parsing leaves
# it unchanged.  A --config call changes its parser's defaults, so it builds
# its own.
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    cfg_path = _extract_config_path(argv)
    parser = build_parser() if cfg_path else _shared_parser()
    if cfg_path:
        try:
            # Strings, which argparse converts with each option's own type.
            overrides = _load_config(cfg_path)
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        # A key may name an option of another subcommand, so one file can
        # serve several; a key that names no option at all is a typo.
        known = {a.dest for sub in parser.command_parsers for a in sub._actions
                 if a.option_strings and a.default is not argparse.SUPPRESS}
        unknown = sorted(set(overrides) - known)
        if unknown:
            names = ", ".join(map(repr, unknown))
            print(f"error: {cfg_path}: no option is named {names}",
                  file=sys.stderr)
            return EXIT_CONFIG
        for sub in parser.command_parsers:
            sub.set_defaults(**overrides)
    args = parser.parse_args(argv)  # argparse exits with code 2 on bad flags
    try:
        # numpy overflow and invalid operations raise instead of warning
        # their way into a NaN.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as err:
        # Arithmetic that breaks down, or a size numpy cannot allocate, is named by its class.
        name = "" if isinstance(err, (ValueError, OSError)) else (
            "MemoryError: " if isinstance(err, MemoryError) else f"{type(err).__name__}: ")
        print(f"error: {name}{err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
