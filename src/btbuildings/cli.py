"""Command-line surface: ball generation, projections, subdivisions,
automorphism analysis, rigid-point queries, verification suites, export.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 budget.
All numeric output is exact (integers and fraction strings); identical
seed and flags produce byte-identical artifacts.

Each flag is read and checked by its reader in `_FLAGS`, which sees the
flags read before it; `main` reports a reader's ValueError as an input
error that names the flag.
"""

import argparse
import json
import sys
from fractions import Fraction

from .autdecomp import (AutWord, _int_list, _square_matrix, decompose_hom,
                        normal_form)
from .building import (BuildingDescriptor, PolyVertex, ball, involution_lambda,
                       labelling_C, project_apartment)
from .drinfeld import (Poly, RigidPoint, _assignment_for, deform, eval_abs,
                       membership_depth, omega_membership, tau_coordinates)
from .errors import BudgetError, WindowError
from .field import ExtensionDescriptor, LaurentModel, PAdicModel
from .gf import prime_power
from .lattice import canonical_form
from .subdivision import (_ETA_D_BOUND, _ETA_N_BOUND, Marking, eta_chambers,
                          nu_embed, subdivide_ball)
from .verify import SUITES, Config, run_suite


def _int(text, low=None, high=None):
    """The one integer of a flag value, in low..high."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None
    if high is not None and not low <= value <= high:
        raise ValueError(f"must be in {low}..{high}, got {value}")
    if low is not None and value < low:
        raise ValueError(f"must be at least {low}, got {value}")
    return value


def _ints(text):
    """The integers of a comma-separated flag value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError("must be a comma-separated list of integers, "
                         f"got {text!r}") from None


def parse_field(spec):
    kind, _, param = spec.partition(":")
    models = {"padic": (PAdicModel, "p"), "laurent": (LaurentModel, "q")}
    if kind not in models:
        raise ValueError(f"unknown field spec {spec!r}; use padic:p or laurent:q")
    model, size = models[kind]
    if not param.removeprefix("-").isdecimal():
        raise ValueError(f"{kind}:{size} must be an integer, got {param!r}")
    return model.get(int(param))


def parse_vertex(descriptor, text):
    obj = json.loads(text)
    if isinstance(obj, dict):
        if "matrix_per_factor" not in obj:
            raise ValueError("a vertex object needs a 'matrix_per_factor' field")
        obj = obj["matrix_per_factor"]
    if not isinstance(obj, list) or len(obj) != descriptor.r:
        raise ValueError(f"vertex must be a list of {descriptor.r} matrices, "
                         "one flat row-major list of strings per factor")
    comps = []
    for (model, d), flat in zip(descriptor.factors, obj):
        mat = _square_matrix(model, d + 1, flat)
        comps.append(canonical_form(model, [list(col) for col in zip(*mat)]))
    return PolyVertex(tuple(comps))


# flag readers: (text, the values read so far) -> value, or ValueError
_EXTENDING = ("extend", "omega", "retract")  # commands that build extensions


def _read_field(text, got):
    models = [parse_field(spec) for spec in text.split(",")]
    if got["command"] in _EXTENDING and isinstance(models[0], PAdicModel):
        raise ValueError(f"{got['command']} needs laurent:q, as extensions "
                         "are unsupported in the p-adic model")
    return models


def _read_d(text, got):
    """The one dimension of `eta` and `verify`; for the other commands the
    descriptor of the product of --field and --d."""
    command = got["command"]
    if command == "verify" and "d" in got["given"] and "q" not in got["given"]:
        raise ValueError("verify reads --d only with gaussian-binomials --q")
    dims = [_int(text)] if command in ("eta", "verify") else _ints(text)
    if min(dims) < 1:
        raise ValueError(f"must be at least 1, got {text!r}")
    if command in ("eta", "subdivide") and max(dims) > _ETA_D_BOUND:
        raise ValueError(f"must be at most {_ETA_D_BOUND} for {command}, "
                         f"got {text}")
    if command in ("eta", "verify"):
        return dims[0]
    if command in ("extend", "retract") and len(dims) != 1:
        raise ValueError(f"{command} operates on one factor, got {text!r}")
    fields = got["field"] * (len(dims) if len(got["field"]) == 1 else 1)
    if len(fields) != len(dims):
        raise ValueError(f"lists {len(dims)} factors and --field {len(fields)}")
    return BuildingDescriptor(list(zip(fields, dims)))


def _read_r(text, got):
    r = _int(text)
    if r != got["d"].r:
        raise ValueError(f"{r} does not match {got['d'].r} factors")
    return r


def _one_of(text, choices):
    if text not in choices:
        raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
    return text


def _per_factor(text, got, low, high):
    values = _ints(text)
    if len(values) != got["d"].r or not all(low <= v <= high for v in values):
        raise ValueError(f"must be one integer in {low}..{high} per factor "
                         f"({got['d'].r}), got {text!r}")
    return values


def _read_map(text, _got):  # the decomposition is the map's check
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("must be a JSON object")
    for key in ("sizes_in", "sizes_out", "map"):
        if key not in obj:
            raise ValueError(f"has no {key!r} field")
    sizes_in = tuple(_int_list(obj["sizes_in"], "sizes_in"))
    sizes_out = tuple(_int_list(obj["sizes_out"], "sizes_out"))
    pairs = obj["map"]
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ValueError("map must be a list of [vertex, image] pairs")
    f = {tuple(_int_list(u, "a map vertex")): tuple(_int_list(v, "a map vertex"))
         for u, v in pairs}
    if len(f) != len(pairs):
        raise ValueError("map lists a vertex more than once")
    return decompose_hom(f, sizes_in, sizes_out)


def _read_ext(text, got):
    """The field K at the top of the tower "e,f[;e,f..]" above factor 0's;
    every factor's field must lie on that tower."""
    models = got["d"].models
    model = models[0]
    for part in text.split(";"):
        e_s, _, f_s = part.partition(",")
        if not (e_s.isdecimal() and f_s.isdecimal()):
            raise ValueError(f"entry {part!r} is not two integers e,f")
        model = ExtensionDescriptor(model, e=int(e_s), f=int(f_s)).extension
    tower, below = [model], model
    while below.ext is not None:
        below = below.ext.base
        tower.append(below)
    for i, factor in enumerate(models):
        if not any(factor is m for m in tower):
            raise ValueError(
                f"K does not lie above factor {i}'s field "
                f"{factor.kind}:{factor.residue_size}; --ext builds K above "
                f"factor 0's field {models[0].kind}:{models[0].residue_size}")
    return model


def _read_point(text, got):
    descriptor, K = got["d"], got["ext"]
    coords, dims = json.loads(text), descriptor.dims
    if (not isinstance(coords, list) or len(coords) != len(dims)
            or not all(isinstance(row, list) and len(row) == d
                       and all(isinstance(x, str) for x in row)
                       for row, d in zip(coords, dims))):
        raise ValueError(f"point must be a list of {len(dims)} lists of "
                         f"{', '.join(map(str, dims))} strings")
    return RigidPoint(descriptor, K, [[K.elem_parse(c) for c in factor]
                                      for factor in coords])


def _read_poly(text, got):
    poly = json.loads(text)
    if not isinstance(poly, list) or not all(
            isinstance(term, dict) and isinstance(term.get("coeff"), str)
            and isinstance(term.get("monomial"), dict)
            and all(j.isdecimal() and type(n) is int and n >= 0
                    for j, n in term["monomial"].items())
            for term in poly):
        raise ValueError('must be a list of {"coeff": str, "monomial": '
                         '{"j": n}} objects, each key j the number of a '
                         'variable and n >= 0')
    K, terms = got["ext"], {}
    for term in poly:
        exps = tuple(sorted(((0, int(j)), n)
                            for j, n in term["monomial"].items()))
        coeff = K.elem_parse(term["coeff"])
        terms[exps] = terms[exps] + coeff if exps in terms else coeff
    p = Poly(K, terms)
    _assignment_for(got["point"], p)
    return p


def _read_t(text, _got):
    """(text, exponent) per t-exponent, each a rational >= 0 or inf."""
    out = []
    for t_s in text.split(","):
        try:
            t_exp = float("inf") if t_s == "inf" else Fraction(t_s)
        except (ValueError, ZeroDivisionError):
            raise ValueError("must be a comma-separated list of rationals "
                             f"or inf, got {t_s!r}") from None
        if t_exp < 0:
            raise ValueError(f"t-exponents must be >= 0, got {t_s!r}")
        out.append((t_s, t_exp))
    return out


def _read_q(text, got):
    if got["suite"] != "gaussian-binomials":
        raise ValueError("verify reads --q only with gaussian-binomials")
    # prime_power raises for a q that is not a prime power
    return tuple(q for q in _ints(text) if prime_power(q))


# flag -> (default, reader, help), in reading order: --field, --d and --r
# come first, so that the readers after them see the descriptor in
# got["d"], and --ext before --point and --poly, which read over its field
_FLAGS = {
    "field": ("padic:2", _read_field, "comma list of padic:p | laurent:q"),
    "d": ("1", _read_d, "comma list of factor dimensions"),
    "r": (None, _read_r, "factor count check"),
    "radius": ("2", lambda text, got: _int(
        text, got["d"].r if got["command"] == "normal-form" else 0),
        "window radius, for normal-form at least the factor count"),
    "depth": ("3", lambda text, _got: _int(text, 1), "filtration depth"),
    "seed": ("0", lambda text, _got: _int(text), "suite seed"),
    "budget": ("20000", lambda text, _got: _int(text, 0), "work budget"),
    "format": ("json", lambda text, got: _one_of(
        text, ("json", "dot") if got["command"] == "ball" else ("json",)),
        "json, or dot for ball"),
    "out": (None, lambda text, _got: text, "write the artifact to a file"),
    "vertex": (None, lambda text, got: parse_vertex(got["d"], text),
               "JSON flat row-major matrix strings per factor"),
    "detail": ("faces", lambda text, _got: _one_of(
        text, ("vertices", "edges", "faces")), "vertices | edges | faces"),
    "mask": (None, lambda text, got: _per_factor(text, got, 0, 1),
             "comma list of 0/1 per factor"),
    "marking": (None, lambda text, got: Marking(
        _per_factor(text, got, 1, _ETA_N_BOUND)), "comma list per factor"),
    "n": (None, lambda text, _got: _int(text, 1, _ETA_N_BOUND),
          "dilation of the simplex"),
    "e": ("1", lambda text, _got: _int(text, 1), "ramification index"),
    "f": ("1", lambda text, _got: _int(text, 1), "residue degree"),
    "map": (None, _read_map,
            'JSON {"sizes_in":[..],"sizes_out":[..],"map":[[u,v],..]}'),
    "word": (None, lambda text, got: AutWord.from_json_obj(
        got["d"], json.loads(text)), "AutWord JSON"),
    "ext": ("2,1", _read_ext, 'extension tower "e,f[;e,f..]" above --field'),
    "point": (None, _read_point, "JSON coords per factor"),
    "poly": (None, _read_poly, 'JSON [{"coeff": str, "monomial": {"j": n}}, ..]'),
    "t": ("0,1/2,1", _read_t, "comma list of t-exponents"),
    "q": (None, _read_q, "gaussian-binomials residue sizes"),
}


def emit(args, obj):
    """Write the artifact obj: text as it is, anything else as JSON."""
    text = (obj if isinstance(obj, str)
            else json.dumps(obj, sort_keys=True, indent=2) + "\n")
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


_ENC = json.encoder.encode_basestring_ascii


def _json_list(items, indent):
    """A JSON list at indent `indent` of items already written, as
    `json.dumps(indent=2)` writes it."""
    if not items:
        return "[]"
    sep = ",\n" + indent + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + indent + "]"


def _json_scalars(obj, indent):
    """A JSON object of str and int values at indent `indent`, with sorted
    keys, as `json.dumps(sort_keys=True, indent=2)` writes it."""
    inner = indent + "  "
    items = [f"{inner}{_ENC(k)}: {_ENC(v) if isinstance(v, str) else v}"
             for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


_EDGE = ('{\n      "directed": %s,\n      "factor": %d,\n      "from": %d,'
         '\n      "length": %s,\n      "to": %d\n    }')
_VERTEX = ('{\n      "id": %d,\n      "label": %s,'
           '\n      "matrix_per_factor": %s\n    }')


def ball_json(obj):
    """The text of `json.dumps(obj, sort_keys=True, indent=2) + "\n"` for
    the dict of `Ball.to_json_obj`, written from its fixed schema."""
    fields = {
        "center": str(obj["center"]),
        "descriptor": _json_list([_json_scalars(d, "    ")
                                  for d in obj["descriptor"]], "  "),
        "edges": _json_list([_EDGE % ("true" if e["directed"] else "false",
                                      e["factor"], e["from"],
                                      _ENC(e["length"]), e["to"])
                             for e in obj["edges"]], "  "),
        "radius": str(obj["radius"]),
        "vertices": _json_list([_VERTEX % (
            v["id"], _json_list(list(map(str, v["label"])), "      "),
            _json_list([_json_list(list(map(_ENC, m)), "        ")
                        for m in v["matrix_per_factor"]], "      "))
            for v in obj["vertices"]], "  "),
    }
    if "chambers" in obj:
        fields["chambers"] = _json_list(
            [_json_list(list(map(str, ch)), "    ") for ch in obj["chambers"]],
            "  ")
    return "{\n" + ",\n".join(f'  "{k}": {fields[k]}'
                               for k in sorted(fields)) + "\n}\n"


# commands: each receives the values of the flags it reads, already checked,
# and returns its exit code, None for 0
def cmd_ball(args):
    b = ball(args.d, args.vertex or args.d.origin(), args.radius,
             detail=args.detail, budget=args.budget)
    emit(args, b.to_dot() if args.format == "dot"
         else ball_json(b.to_json_obj()))


def cmd_project(args):
    pt = project_apartment(args.vertex)
    emit(args, {"exponents": [[str(e) for e in pt.exponents(i)]
                              for i in range(args.d.r)]})


def cmd_label(args):
    emit(args, {"label": list(labelling_C(args.vertex))})


def cmd_involution(args):
    img = involution_lambda(args.vertex, args.mask or [1] * args.d.r)
    emit(args, {"image": [c.serialize() for c in img.components],
                "label": list(labelling_C(img))})


def cmd_subdivide(args):
    b = ball(args.d, args.d.origin(), args.radius, detail="faces",
             budget=args.budget)
    emit(args, subdivide_ball(b, args.marking).to_json_obj())


def cmd_eta(args):
    charts = eta_chambers(args.d, args.n)
    emit(args, {"d": args.d, "n": args.n, "count": len(charts),
                "charts": [{"sigma": list(c.sigma), "a": list(c.a),
                            "vertices": [list(v) for v in c.vertices()]}
                           for c in charts]})


def cmd_extend(args):
    ext = ExtensionDescriptor(args.d.models[0], e=args.e, f=args.f)
    img = nu_embed((args.vertex or args.d.origin()).components[0], ext)
    emit(args, {"e": args.e, "f": args.f, "image": img.serialize(),
                "extension_field": {"q": ext.extension.q, "var": ext.extension.var},
                "image_label": img.label()})


def cmd_decompose_aut(args):
    dec = args.map
    emit(args, {"mu": list(dec.mu), "gs": [list(g) for g in dec.gs],
                "constants": {str(k): v for k, v in sorted(dec.consts.items())}})


def cmd_normal_form(args):
    b = ball(args.d, args.d.origin(), args.radius, budget=args.budget)
    g, r, mu, report = normal_form(args.word, b)
    emit(args, {"g_matrices": [[model.elem_str(x) for row in gi for x in row]
                               for gi, model in zip(g, args.d.models)],
                "r_mask": r, "mu": mu, "report": report})
    return 0 if report["passed"] else 1


def cmd_omega(args):
    x = args.point
    results = [{"n": n,
                "closed": omega_membership(x, n, closed=True, budget=args.budget),
                "open": omega_membership(x, n, closed=False, budget=args.budget)}
               for n in range(1, args.depth + 1)]
    first = membership_depth(x, max_n=args.depth, budget=args.budget)
    tau = tau_coordinates(x)
    emit(args, {"memberships": results, "first_depth": first,
                "tau_exponents": [[str(e) for e in tau.exponents(i)]
                                  for i in range(args.d.r)]})


def cmd_retract(args):
    x, p = args.point, args.poly
    out = [{"t_exponent": t_s, "value_exponent": deform(x, t_exp, p).serialize()}
           for t_s, t_exp in args.t]
    emit(args, {"path": out, "evaluation": eval_abs(x, p).serialize()})


def cmd_verify(args):
    kwargs = {"qs": args.q, "dmax": args.d} if args.q else {}
    report = run_suite(args.suite, Config(budget=args.budget, seed=args.seed),
                       **kwargs)
    emit(args, report)
    return 0 if report["passed"] else 1


# command -> (function, help, the flags it reads besides --format and
# --out; a flag marked ! is required)
_COMMANDS = {
    "ball": (cmd_ball, "window of the building around a vertex",
             "field d r radius budget vertex detail"),
    "project": (cmd_project, "norm-formula apartment projection",
                "field d r vertex!"),
    "label": (cmd_label, "labelling C of a vertex", "field d r vertex!"),
    "involution": (cmd_involution, "dual-lattice involution lambda",
                   "field d r vertex! mask"),
    "subdivide": (cmd_subdivide, "subdivide the chambers of a window",
                  "field d r radius budget marking!"),
    "eta": (cmd_eta, "alcove charts of the dilated simplex", "d n!"),
    "extend": (cmd_extend, "embed a vertex along a field extension",
               "field d r vertex e f"),
    "decompose-aut": (cmd_decompose_aut, "decompose a product-graph map",
                      "map!"),
    "normal-form": (cmd_normal_form, "normal form of a generator word",
                    "field d r radius budget word!"),
    "omega": (cmd_omega, "Schneider-Stuhler membership of a point",
              "field d r depth budget ext point!"),
    "retract": (cmd_retract, "deformation rho_t toward the skeleton",
                "field d r ext point! poly! t"),
    "verify": (cmd_verify, "run a named invariant suite", "d seed budget q"),
}


def _reads(command):
    """flag -> whether it is required, for the flags `command` reads."""
    row = _COMMANDS[command][2] + " format out"
    return {flag.rstrip("!"): flag.endswith("!") for flag in row.split()}


class _Parser(argparse.ArgumentParser):
    """argparse for tokens and --help only; `main` reports its errors."""

    def error(self, message):
        raise ValueError(message)


def make_parser():
    """Every flag is a string accepted before or after the command, and
    listed in the help of the commands that read it."""
    def add_flags(parser, reads):
        for flag, (_default, _read, text) in _FLAGS.items():
            shown = (text + (" (required)" if reads.get(flag) else "")
                     if flag in reads else argparse.SUPPRESS)
            parser.add_argument(f"--{flag}", default=argparse.SUPPRESS,
                                help=shown)

    p = _Parser(prog="btb", allow_abbrev=False, exit_on_error=False,
                description=__doc__.partition("\n\n")[0])
    add_flags(p, dict.fromkeys(_FLAGS, False))
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_func, text, _row) in _COMMANDS.items():
        s = sub.add_parser(command, help=text, allow_abbrev=False,
                           exit_on_error=False)
        if command == "verify":
            s.add_argument("suite", choices=sorted(SUITES), metavar="suite")
        add_flags(s, _reads(command))
    return p


def main(argv=None):
    name = "btb"  # what an input error names: the flag read, or the line
    try:
        ns = make_parser().parse_args(argv)
        reads = _reads(ns.command)
        given = {k: v for k, v in vars(ns).items() if k in _FLAGS}
        for flag in given:
            if flag not in reads:
                name = f"--{flag}"
                raise ValueError(f"{ns.command} does not read {name}")
        got = {"command": ns.command, "suite": getattr(ns, "suite", None),
               "given": given}
        for flag, (default, read, _help) in _FLAGS.items():
            if flag in reads:
                name = f"--{flag}"
                text = given.get(flag, default)
                if text is None and reads[flag]:
                    raise ValueError("is required")
                got[flag] = None if text is None else read(text, got)
        name = None  # the values are checked: a later ValueError is a fault
        return _COMMANDS[ns.command][0](argparse.Namespace(**got)) or 0
    except BudgetError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except WindowError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 1
    except argparse.ArgumentError as ex:
        name, message = ex.argument_name, ex.message
    except OSError as ex:
        name, message = "--out", ex
    except ValueError as ex:
        if name is None:
            raise
        message = ex
    print(f"input error: {name}: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
