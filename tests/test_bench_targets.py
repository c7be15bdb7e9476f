"""The traced benchmark run wraps sphdescent functions by name: each of them
must still exist, so that a rename or a deletion fails here and not only in
the benchmark smoke run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "sphbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("sphbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attribute",
                         [target[:2] for target in load_tracer().TARGETS])
def test_traced_target_is_a_callable_of_sphdescent(module, attribute):
    assert callable(getattr(importlib.import_module(f"sphdescent.{module}"), attribute))


def test_ray_cache_statistics_exist():
    # the benchmark reads the cone ray cache's hit counts through cache_info
    from sphdescent import cones
    assert callable(cones._cone_from_ray_tuple.cache_info)


def test_check_fan_runs_the_traced_wonderful_report(capsys):
    # check-fan decides through the library's fan report, so the traced
    # run charges its time to that span
    from sphdescent.cli import main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert main(["check-fan", "--corpus", "fan_stability_demo"]) == 1
    finally:
        tracer.uninstall()
    assert "checker.wonderful_stability_report" in {s[0] for s in tracer.spans}
