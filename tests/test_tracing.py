"""The benchmark's span tracer (perfbench/tracing.py) wraps `pdeopt` functions
by module and name, so a renamed or moved entry point must fail here, in the
test suite, and not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pdeopt
import pdeopt.cli  # noqa: F401  (the tracer wraps the CLI pipelines)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a `pdeopt` module, and in the dicts those modules
    hold, keyed by (module, dict key or None, name)."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pdeopt" or mod_name.startswith("pdeopt."):
            for key, value in vars(mod).items():
                out[mod_name, None, key] = value
                if isinstance(value, dict):
                    out.update(((mod_name, key, k), v) for k, v in list(value.items()))
    return out


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    targets = [(owner, attr, vars(owner)[attr])
               for _, owner, attr, _ in tracing._targets(pdeopt, None)]
    before = _bindings()
    tracer = tracing.Tracer(pdeopt)
    try:
        tracer.install()  # a target name that is gone raises KeyError here
        for owner, attr, raw in targets:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, raw in targets:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} not restored"
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
