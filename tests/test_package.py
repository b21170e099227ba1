import pkgutil

import pytest

import graphreduce

MODULES = ["graphreduce"] + [
    f"graphreduce.{m.name}" for m in pkgutil.iter_modules(graphreduce.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_public_name(module):
    # A stale `__all__` entry fails `import *` with AttributeError.
    exec(f"from {module} import *", {})
