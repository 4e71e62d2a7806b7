"""perfbench/tracing.py wraps library functions, methods and error classes by
name when a pass runs with --trace 1. Every name its install step looks up
must still resolve, so a library refactor cannot break a traced pass unseen.
The tracer module is loaded from its file as it stands."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from chibound import corpus, errors

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_every_layer_module_imports(layer):
    importlib.import_module(f"chibound.{layer}")


@pytest.mark.parametrize(
    "layer, cls_name, meth",
    [(layer, c, m) for layer, pairs in tracing.METHODS.items() for c, m in pairs],
)
def test_every_traced_method_is_defined_on_its_class(layer, cls_name, meth):
    cls = getattr(importlib.import_module(f"chibound.{layer}"), cls_name)
    assert inspect.isfunction(cls.__dict__[meth])


@pytest.mark.parametrize("name", tracing.ERROR_NAMES)
def test_every_counted_error_is_an_errors_class(name):
    assert issubclass(getattr(errors, name), Exception)


def test_the_timed_corpus_loader_exists():
    assert inspect.isfunction(corpus._load_cached)
