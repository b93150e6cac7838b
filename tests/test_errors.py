"""The exception tree stays in one module.

Every exception class of valinf is defined in ``valinf.errors``, and that
module imports no other part of valinf, so any layer can raise any error
and the CLI can map each family to its exit code in one place.
"""

import ast
import importlib
import inspect
import pkgutil

import valinf
from valinf import errors


def _modules():
    return [importlib.import_module(f"valinf.{m.name}")
            for m in pkgutil.iter_modules(valinf.__path__)]


def test_every_exception_class_is_defined_in_errors():
    found = set()
    for mod in [valinf, *_modules()]:
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__.startswith("valinf"):
                assert obj.__module__ == "valinf.errors", \
                    f"{mod.__name__}.{name} is defined in {obj.__module__}"
                found.add(obj)
    assert errors.IndeterminateForm in found
    assert errors.ScenarioError in found


def test_errors_imports_no_valinf_module():
    tree = ast.parse(inspect.getsource(errors))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith(
                "valinf"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("valinf") for a in node.names), \
                ast.unparse(node)


def test_three_families():
    undecided = (errors.InsufficientTruncation, errors.Undecidable,
                 errors.PrecisionExceeded)
    for cls in undecided:
        assert issubclass(cls, errors.Undecided)
        assert not issubclass(cls, errors.DomainError)
        # siblings: an except clause for one catches no other
        assert [issubclass(cls, other) for other in undecided].count(True) == 1
    assert issubclass(errors.ScenarioError, errors.DomainError)
    for cls in (errors.InternalMismatch, errors.IndeterminateForm):
        assert not issubclass(cls, (errors.DomainError, errors.Undecided))
