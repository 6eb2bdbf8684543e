"""The benchmark tracer (perfbench/tracer.py) patches public btbuildings
names by attribute lookup; a renamed or deleted name must fail here rather
than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(id(owner), attr) for owner, attr, _old in tracer._undo}
        for module, cls, attrs in tracing.HOT + tracing.COARSE:
            mod = sys.modules[f"btbuildings.{module}"]
            owner = getattr(mod, cls) if cls else mod
            for attr in attrs:
                assert tracing._key(module, cls, attr) in tracer.stats
                assert (id(owner), attr) in patched, f"{module}.{attr}"
        from btbuildings.field import ExtensionDescriptor, LaurentModel
        ext = ExtensionDescriptor(LaurentModel.get(2), e=2, f=1)
        ext.in_base(ext.embed(LaurentModel.get(2).uniformizer()))
        assert tracer.stats["field.ExtensionDescriptor.in_base"][0] == 1
        assert tracer.stats["field.ExtensionDescriptor.expand"][0] == 1
    finally:
        tracer.uninstall()
    from btbuildings.field import ExtensionDescriptor
    assert ExtensionDescriptor.in_base.__qualname__ == \
        "ExtensionDescriptor.in_base"


def test_cached_digit_backends_stay_traced():
    """Backends that `digit_ops` built before `Tracer.install` still count
    their operations: the tracer wraps the methods on the backend classes,
    and no backend attribute shadows one of them."""
    from btbuildings.field import LaurentModel, PAdicModel
    from btbuildings.lattice import column_class, digit_ops
    tracing = _load_tracer()
    built = [digit_ops(PAdicModel.get(2), 6), digit_ops(LaurentModel.get(4), 6)]
    for ops in built:
        assert not set(vars(ops)) & set(tracing._DIGIT_METHODS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for ops in built:
            one = ops.residue_coeff(1)
            column_class(ops, [[ops.shift_up(one, 1), one],
                               [one, ops.add(one, one)]])
            key = f"lattice.{type(ops).__name__}."
            for name in ("mul", "sub", "val"):
                assert tracer.stats[key + name][0] > 0, key + name
    finally:
        tracer.uninstall()
