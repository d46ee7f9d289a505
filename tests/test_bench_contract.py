"""What the benchmark relies on by name still exists and still means the same.

``perfbench/child.py`` replaces module attributes to trace each layer and
to mark the end of set-up at the first ``vargp.fit`` / ``vargp.predict``,
and ``perfbench/workloads.py`` writes the training config of its generated
workloads. Renaming a wrapped function or a config key breaks the benchmark
without failing any other test.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from sphgp import data_io as D
from sphgp import kernels as K
from sphgp import vargp
from sphgp.config import load_config, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads")
WRAPPED = {(module, attr) for module, attr, _ in load("child").TRACED}
WRAPPED |= {(vargp, "fit"), (vargp, "predict")}


@pytest.mark.parametrize(
    "module, attr",
    sorted(WRAPPED, key=lambda pair: (pair[0].__name__, pair[1])),
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize(
    "workload", [name for name, w in WORKLOADS.WORKLOADS.items() if w.d_raw]
)
def test_generated_config_keeps_its_kernel(workload):
    # the template names its kernel in an older form; it must still give
    # poly_decay with beta = 1.0 and lambda0 = 1.0
    w = WORKLOADS.WORKLOADS[workload]
    cfg = parse_config(
        WORKLOADS._CONFIG.format(
            max_frequency=w.max_frequency, iterations=w.iterations, csv="t.csv", schema="t.schema"
        )
    )
    assert K.parse_kernel(cfg.kernel) == ("poly_decay", {"beta": 1.0, "lambda0": 1.0})
    spectrum = K.config_spectrum(cfg, w.d_raw + 1)
    assert spectrum.family == K.PolyDecay(lambda0=1.0) and spectrum.theta == 1.0
    assert spectrum.max_frequency == w.max_frequency


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_generated_config_and_schema_parse(workload, tmp_path):
    # '#' starts a comment only at the start of a line; inside a line it is an
    # error, so a path or column the benchmark writes must not hold one. The
    # inputs are made by ``prepare`` itself, on a table of a few rows.
    w = WORKLOADS.WORKLOADS[workload]
    small = dataclasses.replace(w, rows=min(w.rows, 16), eval_rows=min(w.eval_rows, 16))
    inputs = WORKLOADS.prepare(small, 0, tmp_path)
    schema = Path(load_config(inputs.config).schema)
    if not schema.is_absolute():
        schema = WORKLOADS.ROOT / schema
    for path, parse in ((inputs.config, parse_config), (schema, D.parse_schema)):
        text = path.read_text()
        cut = "".join(line.split("#", 1)[0] + "\n" for line in text.splitlines())
        assert parse(text) == parse(cut)
    assert len(D.load_schema(schema).features) == (w.d_raw or 3)
