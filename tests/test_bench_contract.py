"""The functions the benchmark wraps by name still exist.

``perfbench/child.py`` replaces module attributes to trace each layer and
to mark the end of set-up at the first ``vargp.fit`` / ``vargp.predict``.
Renaming one of them breaks the benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

from sphgp import vargp

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = {(module, attr) for module, attr, _ in load_child().TRACED}
WRAPPED |= {(vargp, "fit"), (vargp, "predict")}


@pytest.mark.parametrize(
    "module, attr",
    sorted(WRAPPED, key=lambda pair: (pair[0].__name__, pair[1])),
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(module, attr, None))
