"""The traced benchmark run wraps program functions by name.

perfbench/tracer.py names its targets in SPECS as (module, attribute)
pairs, with "Class.method" for methods.  A target that no longer resolves
would silently drop a layer from every traced run, so each must exist.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _specs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


def test_every_tracer_target_resolves():
    missing = []
    for layer, targets, _ in _specs():
        for mod_name, attr in targets:
            obj = importlib.import_module("homoclinic." + mod_name)
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append("%s: %s.%s" % (layer, mod_name, attr))
    assert missing == []
