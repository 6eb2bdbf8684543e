"""Command-line surface: ball generation, projections, subdivisions,
automorphism analysis, rigid-point queries, verification suites, export.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 budget.
All numeric output is exact (integers and fraction strings); identical
seed and flags produce byte-identical artifacts.
"""

import argparse
import json
import sys
from fractions import Fraction

from .autdecomp import (AutWord, _int_list, _square_matrix, decompose_hom,
                        normal_form)
from .building import (BuildingDescriptor, PolyVertex, ball, involution_lambda,
                       labelling_C, project_apartment)
from .drinfeld import (Poly, RigidPoint, deform, eval_abs, membership_depth,
                       omega_membership, tau_coordinates)
from .errors import BudgetError, WindowError
from .field import ExtensionDescriptor, LaurentModel, PAdicModel
from .lattice import canonical_form
from .subdivision import (_ETA_D_BOUND, _ETA_N_BOUND, Marking, eta_chambers,
                          nu_embed, subdivide_ball)
from .verify import Config, run_suite


def _flag_ints(flag, text, form="a comma-separated list of integers"):
    """The integers of a comma-separated flag value; the error names the
    flag and the form it expects."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be {form}, got {text!r}") from None


def _flag_int(flag, text):
    """The one integer of a flag value."""
    values = _flag_ints(flag, text, "an integer")
    if len(values) != 1:
        raise ValueError(f"{flag} must be an integer, got {text!r}")
    return values[0]


def _flag_d(text):
    """The one dimension of a --d flag value, at least 1 as in every
    building."""
    d = _flag_int("--d", text)
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {text!r}")
    return d


def parse_field(spec):
    kind, _, param = spec.partition(":")
    models = {"padic": (PAdicModel, "p"), "laurent": (LaurentModel, "q")}
    if kind not in models:
        raise ValueError(f"unknown field spec {spec!r}; use padic:p or laurent:q")
    model, size = models[kind]
    return model.get(_flag_int(f"--field {kind}:{size}", param))


def build_descriptor(args):
    fields = [parse_field(s) for s in args.field.split(",")]
    dims = _flag_ints("--d", args.d)
    if len(fields) == 1 and len(dims) > 1:
        fields = fields * len(dims)
    if len(fields) != len(dims):
        raise ValueError("--field and --d lists must have matching lengths")
    if args.r is not None and args.r != len(dims):
        raise ValueError(f"--r {args.r} does not match {len(dims)} factors")
    return BuildingDescriptor(list(zip(fields, dims)))


def _string_lists(obj, sizes, what):
    """obj, checked to be a list of len(sizes) lists of strings, the k-th
    of length sizes[k]."""
    if (not isinstance(obj, list) or len(obj) != len(sizes)
            or not all(isinstance(row, list) and len(row) == size
                       and all(isinstance(x, str) for x in row)
                       for row, size in zip(obj, sizes))):
        raise ValueError(f"{what} must be a list of {len(sizes)} lists of "
                         f"{', '.join(map(str, sizes))} strings")
    return obj


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


def emit(args, obj):
    """Write the JSON artifact obj; a command with DOT output writes it
    through `_write` instead."""
    if args.format == "dot":
        raise ValueError("this command has no DOT output")
    _write(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_ball(args):
    descriptor = build_descriptor(args)
    center = (parse_vertex(descriptor, args.vertex) if args.vertex
              else descriptor.origin())
    b = ball(descriptor, center, args.radius, detail=args.detail,
             budget=args.budget)
    if args.format == "dot":
        _write(args, b.to_dot())
    else:
        emit(args, b.to_json_obj())
    return 0


def cmd_project(args):
    descriptor = build_descriptor(args)
    x = parse_vertex(descriptor, args.vertex)
    pt = project_apartment(x)
    emit(args, {"exponents": [[str(e) for e in pt.exponents(i)]
                              for i in range(descriptor.r)]})
    return 0


def cmd_label(args):
    descriptor = build_descriptor(args)
    x = parse_vertex(descriptor, args.vertex)
    emit(args, {"label": list(labelling_C(x))})
    return 0


def cmd_involution(args):
    descriptor = build_descriptor(args)
    x = parse_vertex(descriptor, args.vertex)
    mask = _flag_ints("--mask", args.mask) if args.mask else [1] * descriptor.r
    if len(mask) != descriptor.r or any(b not in (0, 1) for b in mask):
        raise ValueError(f"--mask must list {descriptor.r} entries, each 0 or 1")
    img = involution_lambda(x, mask)
    emit(args, {"image": [c.serialize() for c in img.components],
                "label": list(labelling_C(img))})
    return 0


def cmd_subdivide(args):
    descriptor = build_descriptor(args)
    b = ball(descriptor, descriptor.origin(), args.radius, detail="faces",
             budget=args.budget)
    marking = Marking(_flag_ints("--marking", args.marking))
    sub = subdivide_ball(b, marking)
    emit(args, sub.to_json_obj())
    return 0


def cmd_eta(args):
    d = _flag_d(args.d)
    if d > _ETA_D_BOUND:
        raise ValueError(f"--d must be at most {_ETA_D_BOUND} for eta, got {d}")
    if not 1 <= args.n <= _ETA_N_BOUND:
        raise ValueError(f"--n must be in 1..{_ETA_N_BOUND}, got {args.n}")
    charts = eta_chambers(d, args.n)
    emit(args, {"d": d, "n": args.n, "count": len(charts),
                "charts": [{"sigma": list(c.sigma), "a": list(c.a),
                            "vertices": [list(v) for v in c.vertices()]}
                           for c in charts]})
    return 0


def cmd_extend(args):
    descriptor = build_descriptor(args)
    if descriptor.r != 1:
        raise ValueError("extend operates on a single factor")
    model, d = descriptor.factors[0]
    for flag, value in (("--e", args.e), ("--f", args.f)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    ext = ExtensionDescriptor(model, e=args.e, f=args.f)
    x = (parse_vertex(descriptor, args.vertex) if args.vertex
         else descriptor.origin())
    img = nu_embed(x.components[0], ext)
    emit(args, {"e": args.e, "f": args.f,
                "extension_field": {"q": ext.extension.q, "var": ext.extension.var},
                "image": img.serialize(),
                "image_label": img.label()})
    return 0


def cmd_decompose_aut(args):
    obj = json.loads(args.map)
    if not isinstance(obj, dict):
        raise ValueError("--map must be a JSON object")
    for key in ("sizes_in", "sizes_out", "map"):
        if key not in obj:
            raise ValueError(f"--map has no {key!r} field")
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
    dec = decompose_hom(f, sizes_in, sizes_out)
    emit(args, {"mu": list(dec.mu), "gs": [list(g) for g in dec.gs],
                "constants": {str(k): v for k, v in sorted(dec.consts.items())}})
    return 0


def cmd_normal_form(args):
    descriptor = build_descriptor(args)
    word = AutWord.from_json_obj(descriptor, json.loads(args.word))
    b = ball(descriptor, descriptor.origin(), args.radius, budget=args.budget)
    g, r, mu, report = normal_form(word, b)
    obj = {
        "g_matrices": [[model.elem_str(x) for row in gi for x in row]
                       for gi, (model, _d) in zip(g, descriptor.factors)],
        "r_mask": r,
        "mu": mu,
        "report": report,
    }
    emit(args, obj)
    return 0 if report["passed"] else 1


def _build_rigid_point(args, descriptor):
    model = descriptor.models[0]
    for part in args.ext.split(";"):
        e_s, _, f_s = part.partition(",")
        if not (e_s.isdecimal() and f_s.isdecimal()):
            raise ValueError(f"--ext entry {part!r} is not two integers e,f")
        model = ExtensionDescriptor(model, e=int(e_s), f=int(f_s)).extension
    K = model
    coords = _string_lists(json.loads(args.point), descriptor.dims, "point")
    return RigidPoint(descriptor, K, [[K.elem_parse(c) for c in factor]
                                      for factor in coords]), K


def cmd_omega(args):
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    descriptor = build_descriptor(args)
    x, K = _build_rigid_point(args, descriptor)
    results = []
    for n in range(1, args.depth + 1):
        results.append({
            "n": n,
            "closed": omega_membership(x, n, closed=True, budget=args.budget),
            "open": omega_membership(x, n, closed=False, budget=args.budget),
        })
    first = membership_depth(x, max_n=args.depth, budget=args.budget)
    tau = tau_coordinates(x)
    emit(args, {"memberships": results, "first_depth": first,
                "tau_exponents": [[str(e) for e in tau.exponents(i)]
                                  for i in range(descriptor.r)]})
    return 0


def cmd_retract(args):
    descriptor = build_descriptor(args)
    if descriptor.r != 1:
        raise ValueError("retract operates on one factor")
    x, K = _build_rigid_point(args, descriptor)
    poly = json.loads(args.poly)
    if not isinstance(poly, list) or not all(
            isinstance(term, dict) and isinstance(term.get("coeff"), str)
            and isinstance(term.get("monomial"), dict)
            and all(j.isdecimal() and type(n) is int
                    for j, n in term["monomial"].items())
            for term in poly):
        raise ValueError('--poly must be a list of {"coeff": str, '
                         '"monomial": {"j": int}} objects, each key j the '
                         'number of a variable')
    terms = {}
    for term in poly:
        exps = tuple(sorted(((0, int(j)), n)
                            for j, n in term["monomial"].items()))
        coeff = K.elem_parse(term["coeff"])
        p_term = terms.get(exps)
        terms[exps] = coeff if p_term is None else p_term + coeff
    p = Poly(K, terms)
    out = []
    for t_s in args.t.split(","):
        try:
            t_exp = float("inf") if t_s == "inf" else Fraction(t_s)
        except (ValueError, ZeroDivisionError):
            raise ValueError("--t must be a comma-separated list of rationals "
                             f"or inf, got {t_s!r}") from None
        av = deform(x, t_exp, p)
        out.append({"t_exponent": t_s, "value_exponent": av.serialize()})
    out_obj = {"path": out, "evaluation": eval_abs(x, p).serialize()}
    emit(args, out_obj)
    return 0


def cmd_verify(args):
    override = args.suite == "gaussian-binomials" and args.q
    if "d" in args.given and not override:
        raise ValueError("verify reads --d only with gaussian-binomials --q")
    config = Config(budget=args.budget, seed=args.seed)
    kwargs = {}
    if override:
        kwargs = {"qs": tuple(_flag_ints("--q", args.q)),
                  "dmax": _flag_d(args.d)}
    report = run_suite(args.suite, config, **kwargs)
    emit(args, report)
    return 0 if report["passed"] else 1


# the common flags, accepted before and after the subcommand: name ->
# (default, add_argument keywords)
_COMMON = {
    "field": ("padic:2", {"help": "comma list of padic:p | laurent:q "
                                  "(default padic:2)"}),
    "d": ("1", {"help": "comma list of factor dimensions"}),
    "r": (None, {"type": int, "help": "factor count check"}),
    "radius": (2, {"type": int}),
    "depth": (3, {"type": int}),
    "seed": (0, {"type": int}),
    "budget": (20000, {"type": int}),
    "format": ("json", {"choices": ["json", "dot"]}),
    "out": (None, {"help": "write the artifact to a file"}),
}
_DESCRIPTOR = ("field", "d", "r")  # read by `build_descriptor`


def _add_common(parser, names):
    """The common flags `names`.  They default to absent, so that `main`
    can tell which were given."""
    for name in names:
        parser.add_argument(f"--{name}", default=argparse.SUPPRESS,
                            **_COMMON[name][1])


def make_parser():
    p = argparse.ArgumentParser(
        prog="btb", allow_abbrev=False,
        description="Exact computations on Bruhat-Tits buildings, their "
                    "products, and rigid points of Drinfeld spaces")
    _add_common(p, _COMMON)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, reads, **kw):
        """A subcommand that reads the common flags `reads`, and --format
        and --out through `emit`; `main` rejects the others."""
        reads = reads + ("format", "out")
        s = sub.add_parser(name, allow_abbrev=False, **kw)
        _add_common(s, reads)
        s.set_defaults(reads=reads)
        return s

    s = add_parser("ball", _DESCRIPTOR + ("radius", "budget"),
                   help="window of the building around a vertex")
    s.add_argument("--vertex", default=None)
    s.add_argument("--detail", choices=["vertices", "edges", "faces"],
                   default="faces")
    s.set_defaults(func=cmd_ball)

    s = add_parser("project", _DESCRIPTOR,
                   help="norm-formula apartment projection")
    s.add_argument("--vertex", required=True)
    s.set_defaults(func=cmd_project)

    s = add_parser("label", _DESCRIPTOR, help="labelling C of a vertex")
    s.add_argument("--vertex", required=True)
    s.set_defaults(func=cmd_label)

    s = add_parser("involution", _DESCRIPTOR,
                   help="dual-lattice involution lambda")
    s.add_argument("--vertex", required=True)
    s.add_argument("--mask", default=None, help="comma list of 0/1 per factor")
    s.set_defaults(func=cmd_involution)

    s = add_parser("subdivide", _DESCRIPTOR + ("radius", "budget"),
                   help="subdivide the chambers of a window")
    s.add_argument("--marking", required=True, help="comma list per factor")
    s.set_defaults(func=cmd_subdivide)

    s = add_parser("eta", ("d",), help="alcove charts of the dilated simplex")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_eta)

    s = add_parser("extend", _DESCRIPTOR,
                   help="embed a vertex along a field extension")
    s.add_argument("--vertex", default=None)
    s.add_argument("--e", type=int, default=1, help="ramification index")
    s.add_argument("--f", type=int, default=1, help="residue degree")
    s.set_defaults(func=cmd_extend)

    s = add_parser("decompose-aut", (), help="decompose a product-graph map")
    s.add_argument("--map", required=True,
                   help='JSON {"sizes_in":[..],"sizes_out":[..],"map":[[u,v],..]}')
    s.set_defaults(func=cmd_decompose_aut)

    s = add_parser("normal-form", _DESCRIPTOR + ("radius", "budget"),
                   help="normal form of a generator word")
    s.add_argument("--word", required=True, help="AutWord JSON")
    s.set_defaults(func=cmd_normal_form)

    s = add_parser("omega", _DESCRIPTOR + ("depth", "budget"),
                   help="Schneider-Stuhler membership of a point")
    s.add_argument("--point", required=True, help="JSON coords per factor")
    s.add_argument("--ext", default="2,1",
                   help='extension tower "e,f[;e,f..]" above the base field')
    s.set_defaults(func=cmd_omega)

    s = add_parser("retract", _DESCRIPTOR,
                   help="deformation rho_t toward the skeleton")
    s.add_argument("--point", required=True)
    s.add_argument("--ext", default="2,1")
    s.add_argument("--poly", required=True,
                   help='JSON [{"coeff": str, "monomial": {"j": n}}, ..]')
    s.add_argument("--t", default="0,1/2,1", help="comma list of t-exponents")
    s.set_defaults(func=cmd_retract)

    s = add_parser("verify", ("d", "seed", "budget"),
                   help="run a named invariant suite")
    s.add_argument("suite")
    s.add_argument("--q", default=None, help="suite parameter override")
    s.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = make_parser()
    args, extra = parser.parse_known_args(argv)
    args.given = {k for k in _COMMON if hasattr(args, k)}
    # a common flag that the subparser does not define lands in extra
    after = {a.partition("=")[0][2:] for a in extra if a.startswith("--")}
    unread = [k for k in _COMMON
              if k not in args.reads and (k in args.given or k in after)]
    if unread:
        print(f"input error: {args.command} does not read "
              + ", ".join(f"--{k}" for k in unread), file=sys.stderr)
        return 2
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    for k, (default, _kw) in _COMMON.items():
        if k not in args.given:
            setattr(args, k, default)
    try:
        return args.func(args)
    except BudgetError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except WindowError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
