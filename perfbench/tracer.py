"""Per-layer counters, self times and spans for a traced run.

``Tracer.install()`` wraps public names of btbuildings in place.  A function
is replaced in every btbuildings module that holds a binding to it
(``building`` has its own ``all_neighbors``, ``cli`` its own ``ball``, and so
on); a method is replaced on its class.  Coarse calls also record a span
(name, start, end, parent span, operation id); hot arithmetic (GF methods,
FieldElement operators, digit-ops methods) only keeps counts and time.

Every wrapper adds its duration to its caller's child time, so the self time
of a name is its duration minus the time spent in wrapped callees.  Spans
stay in memory and are written out once, at the end of the run.
"""

import json
import os
import sys
import time

# Hot names: (module, class or None, attributes).  Counted, never spanned.
_DIGIT_METHODS = ("zero", "from_field", "to_field", "val", "add", "sub", "mul",
                  "shift_down", "shift_up", "unit_inv", "trunc", "code",
                  "from_code", "residue_coeff")
HOT = [
    ("gf", "GF", ("add", "sub", "neg", "mul", "inv")),
    ("field", "FieldElement", ("__add__", "__sub__", "__neg__", "__mul__",
                               "__truediv__", "__pow__")),
    ("field", None, ("embed",)),
    ("field", "ExtensionDescriptor", ("embed", "expand", "in_base")),
    ("lattice", None, ("digit_ops",)),
    ("lattice", "PadDigitOps", _DIGIT_METHODS),
    ("lattice", "LauDigitOps", _DIGIT_METHODS),
]

# Coarse names: one span per call.
COARSE = [
    ("lattice", None, ("canonical_form", "dual", "pair_index_normalized",
                       "all_neighbors", "neighbors_by_colength")),
    ("building", None, ("ball", "project_apartment", "labelling_C",
                        "involution_lambda", "distance_f")),
    ("building", "Ball", ("to_json_obj", "to_dot")),
    ("subdivision", None, ("subdivide_ball", "verify_induced_structure",
                           "nu_embed")),
    ("autdecomp", None, ("normal_form", "label_action")),
    ("drinfeld", None, ("omega_membership", "diagonalize_norm",
                        "verify_diagonal", "eval_abs", "deform")),
    ("cli", None, ("main",)),
]


def _key(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


class Tracer:
    def __init__(self):
        self.stats = {}        # key -> [calls, total_s, self_s]
        self.counts = {}       # derived work counts, see the hooks below
        self.spans = []        # (key, start, end, parent span, operation id)
        self.active = {}       # key -> calls of it currently on the stack
        self.op = None
        self._child = [0.0]    # wrapped-callee time of the innermost call
        self._stack = [None]
        self._undo = []
        self._hooks = {
            "lattice.neighbors_by_colength": self._on_neighbors,
            "building.ball": self._on_ball,
            "subdivision.subdivide_ball": self._on_subdivide,
            "drinfeld.omega_membership": self._on_omega,
            "cli.main": self._on_cli,
        }

    def _add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping --

    def _hot(self, key, fn):
        clock = time.perf_counter
        stat = self.stats[key] = [0, 0.0, 0.0]
        cell = self._child

        def wrapper(*args, **kwargs):
            saved = cell[0]
            cell[0] = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - cell[0]
                cell[0] = saved + dt
        return wrapper

    def _coarse(self, key, fn):
        clock = time.perf_counter
        stat = self.stats[key] = [0, 0.0, 0.0]
        cell, stack, spans, active = (self._child, self._stack, self.spans,
                                      self.active)
        hook = self._hooks.get(key)
        active[key] = 0

        def wrapper(*args, **kwargs):
            saved = cell[0]
            cell[0] = 0.0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            active[key] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[key] -= 1
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - cell[0]
                cell[0] = saved + dt
                spans[sid] = (key, t0, t1, parent, self.op)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    def install(self):
        import btbuildings.cli  # noqa: F401  (loads every module to patch)
        modules = {name[len("btbuildings."):]: mod
                   for name, mod in sys.modules.items()
                   if name.startswith("btbuildings.")}
        holders = [mod for name, mod in sys.modules.items()
                   if name == "btbuildings" or name.startswith("btbuildings.")]
        for table, make in ((HOT, self._hot), (COARSE, self._coarse)):
            for module, cls, attrs in table:
                owner = getattr(modules[module], cls) if cls else None
                for attr in attrs:
                    key = _key(module, cls, attr)
                    if owner is not None:
                        original = owner.__dict__[attr]
                        self._set(owner, attr, make(key, original))
                        continue
                    original = getattr(modules[module], attr)
                    wrapper = make(key, original)
                    for mod in holders:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- hooks: work counts read off arguments and results --

    def _on_neighbors(self, args, kwargs, out):
        self._add("neighbors_generated", len(out))
        if self.active["building.ball"]:
            self._add("ball_neighbors_generated", len(out))

    def _on_ball(self, args, kwargs, b):
        self._add("window_vertices", len(b.vertices))
        self._add("window_edges", len(b.edges))
        self._add("window_faces", len(b.faces or ()))
        self._add("window_chambers", len(b.chambers or ()))
        # Each window vertex is expanded once; the neighbours that land in
        # the window are exactly its window adjacencies.
        self._add("ball_neighbors_kept",
                  sum(len(nbs) for fb in b.factor_balls
                      for nbs in fb.adj.values()))

    def _on_subdivide(self, args, kwargs, sub):
        self._add("subchambers", len(sub.subchambers))

    def _on_omega(self, args, kwargs, _member):
        from btbuildings.drinfeld import unimodular_count
        x = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        self._add("unimodular_vectors",
                  sum(unimodular_count(model.residue_size, n, d + 1)
                      for model, d in x.descriptor.factors))

    def _on_cli(self, args, kwargs, _rc):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self._add("artifact_bytes", os.path.getsize(path))

    # -- results --

    def _sum(self, field, *prefixes):
        return sum(stat[field] for key, stat in self.stats.items()
                   if key.startswith(prefixes))

    def metrics(self, wall_s):
        """The per-layer metrics, name -> (value, unit)."""
        calls = lambda *p: self._sum(0, *p)
        total = lambda *p: self._sum(1, *p)
        self_s = lambda *p: self._sum(2, *p)
        count = lambda name: self.counts.get(name, 0)
        generated = count("ball_neighbors_generated")
        tower = ("field.embed", "field.ExtensionDescriptor.")
        digits = ("lattice.PadDigitOps.", "lattice.LauDigitOps.")
        return {
            "gf.add_calls": (calls("gf.GF.add", "gf.GF.sub", "gf.GF.neg"),
                             "count"),
            "gf.mul_calls": (calls("gf.GF.mul", "gf.GF.inv"), "count"),
            "gf.self_s": (self_s("gf."), "s"),
            "field.elem_ops": (calls("field.FieldElement."), "count"),
            "field.tower_calls": (calls(*tower), "count"),
            "field.self_s": (self_s("field."), "s"),
            "lattice.neighbors_calls": (calls("lattice.all_neighbors"),
                                        "count"),
            "lattice.neighbors_generated": (count("neighbors_generated"),
                                            "count"),
            "lattice.neighbors_s": (total("lattice.all_neighbors"), "s"),
            "lattice.neighbor_yield": (
                count("ball_neighbors_kept") / generated if generated else 0.0,
                "ratio"),
            "lattice.digits.backends": (calls("lattice.digit_ops"), "count"),
            "lattice.digits.ops": (calls(*digits), "count"),
            "lattice.digits.self_s": (self_s(*digits), "s"),
            "lattice.canonical_form_calls": (calls("lattice.canonical_form"),
                                             "count"),
            "lattice.canonical_form_s": (total("lattice.canonical_form"), "s"),
            "lattice.dual_calls": (calls("lattice.dual"), "count"),
            "lattice.dual_s": (total("lattice.dual"), "s"),
            "lattice.pair_calls": (calls("lattice.pair_index_normalized"),
                                   "count"),
            "lattice.pair_s": (total("lattice.pair_index_normalized"), "s"),
            "building.ball_self_s": (self_s("building.ball"), "s"),
            "building.export_s": (total("building.Ball."), "s"),
            "building.project_calls": (calls("building.project_apartment"),
                                       "count"),
            "building.project_s": (total("building.project_apartment"), "s"),
            "building.window_vertices": (count("window_vertices"), "count"),
            "building.window_edges": (count("window_edges"), "count"),
            "building.window_faces": (count("window_faces"), "count"),
            "building.window_chambers": (count("window_chambers"), "count"),
            "subdivision.subdivide_s": (total("subdivision.subdivide_ball"),
                                        "s"),
            "subdivision.subchambers": (count("subchambers"), "count"),
            "subdivision.verify_induced_s": (
                total("subdivision.verify_induced_structure"), "s"),
            "subdivision.nu_embed_calls": (calls("subdivision.nu_embed"),
                                           "count"),
            "autdecomp.normal_form_s": (total("autdecomp.normal_form"), "s"),
            "autdecomp.label_action_s": (total("autdecomp.label_action"), "s"),
            "drinfeld.omega_calls": (calls("drinfeld.omega_membership"),
                                     "count"),
            "drinfeld.unimodular_vectors": (count("unimodular_vectors"),
                                            "count"),
            "drinfeld.omega_s": (total("drinfeld.omega_membership"), "s"),
            "drinfeld.diagonalize_s": (total("drinfeld.diagonalize_norm"), "s"),
            "drinfeld.eval_abs_calls": (calls("drinfeld.eval_abs"), "count"),
            "cli.self_s": (self_s("cli.main"), "s"),
            "cli.artifact_bytes": (count("artifact_bytes"), "B"),
            "trace.wall_s": (wall_s, "s"),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
