"""The names and the return shape the benchmark in coxbench/ relies on.

coxbench/layertrace.py wraps the functions named in its SPANS under
`--trace 1`, and coxbench/child.py checks that every ext-oracle table holds
each degree of its box, zeros included.  A change that renames one of those
functions or trims zero entries breaks the benchmark, not the program, so
these tests catch it here.  ROADMAP item I (one benchmark refresh) may
relax the second contract, to let missing degrees read as 0; this file
changes with it.
"""

import importlib
import runpy
from itertools import product

from coxcoh.fans import projective_space_fan
from coxcoh.localcoh import ext_limit_oracle
from conftest import REPO_ROOT


def traced_spans():
    """SPANS of coxbench/layertrace.py, read without installing the tracer
    and without writing anything under coxbench/."""
    return runpy.run_path(str(REPO_ROOT / "coxbench" / "layertrace.py"))["SPANS"]


def test_every_traced_name_resolves():
    spans = traced_spans()
    assert spans
    for mod_name, attr, _ in spans:
        target = importlib.import_module("coxcoh." + mod_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (mod_name, attr)


def test_ext_oracle_table_holds_every_degree_of_the_box():
    fan = projective_space_fan(2)
    n, radius = fan.n_rays, 1
    box = set(product(range(-radius, radius + 1), repeat=n))
    zeros = 0
    for p in range(n + 1):
        hf = ext_limit_oracle(fan, 1, p, box_radius=radius)
        assert set(hf) == box
        zeros += sum(1 for value in hf.values() if value == 0)
    assert zeros > 0
