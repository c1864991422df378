"""The cells of a slice scan, labelled from one unit graph (`sampling.cell_components`).

`sliceness_check` and `circularly_connected_scan` take their components
from one proximity graph over all sampled units, labelled in blocks of
cells.  These tests pin the property that makes that byte-identical to a
graph per cell (the induced subgraph), the reports against the per-cell
reference, and how many graph, labelling and stencil calls a check makes.
"""

import math

import numpy as np
import pytest
import test_numeric_core
from scalar_reference import scalar_field

from octoslice import diffops, sampling
from octoslice.algebra import Octonion, UnitImaginary, tau_rows
from octoslice.diffops import sliceness_check
from octoslice.domains import Ball, BallChain, SlabCone, circularly_connected_scan
from octoslice.golden import get_field
from octoslice.sampling import SamplePlan, cell_components, sample_units, unit_graph_edges

E1 = UnitImaginary.basis(1)
E2 = UnitImaginary.basis(2)

# the plan of the benchmark's slice checks
WORKLOAD_PLAN = SamplePlan(sphere_samples=1000, residual_unit_samples=15)
FIELDS = ("identity", "gaussian", "coord-probe", "affine-regular", "slab-cone")


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def _thinned(stencil_safe):
    """`stencil_safe` that also refuses about half the rows, by a rule on each row's bits."""

    def thinned(domain, pts, h):
        return stencil_safe(domain, pts, h) & (np.sin(1e3 * pts[:, 1]) > 0)

    return thinned


@pytest.mark.parametrize("thin", [False, True])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", FIELDS)
def test_sliceness_matches_the_per_cell_reference_at_the_workload_plan(monkeypatch, name, seed, thin):
    gf = get_field(name)
    plan = WORKLOAD_PLAN.with_seed(seed)
    if thin:
        # components with fewer than 2 safe rows, dropped alike by both
        monkeypatch.setattr(diffops, "stencil_safe", _thinned(diffops.stencil_safe))
        monkeypatch.setattr(test_numeric_core, "stencil_safe", _thinned(test_numeric_core.stencil_safe))
    # record each labelled cell's components and the verdicts of its stencil call
    cells, safe = [], []
    real_cells, real_safe = diffops.cell_components, diffops.stencil_safe

    def record_cells(*args):
        for cell in real_cells(*args):
            cells.append(cell)
            yield cell

    def record_safe(*args):
        out = real_safe(*args)
        safe.append(out)
        return out

    monkeypatch.setattr(diffops, "cell_components", record_cells)
    monkeypatch.setattr(diffops, "stencil_safe", record_safe)
    got = sliceness_check(gf.field, gf.domain, plan)
    want = test_numeric_core.ref_sliceness_check(scalar_field(name), gf.domain, plan)
    assert got.to_json() == want.to_json()
    # the per-component split is exercised: every cell has several components
    # of two or more units, and with thinning some keep fewer than 2 safe rows
    assert len(safe) == len(cells) > 0
    several = dropped = 0
    for (_, _, _, labels), ok in zip(cells, safe):
        sizes = np.bincount(labels)
        taken = [-(-size // max(1, size // plan.residual_unit_samples)) for size in sizes if size >= 2]
        several += len(taken) >= 2
        kept = np.add.reduceat(ok.astype(int), np.cumsum([0] + taken[:-1]))
        dropped += int(np.count_nonzero(kept < 2))
    assert several == len(cells)
    assert dropped > 0 or not thin


def test_sliceness_and_scan_do_not_depend_on_the_block_size(monkeypatch):
    gf = get_field("slab-cone")
    plan = WORKLOAD_PLAN.with_seed(3)
    chain_plan = SamplePlan(seed=2, sphere_samples=1500, a_values=(-1.0, 0.0, 1.0), b_values=(1.8, 2.0, 2.2))
    chain = BallChain(E1, E2)

    def reports():
        return [
            sliceness_check(gf.field, gf.domain, plan).to_json(),
            sliceness_check(gf.field, gf.domain, SamplePlan(seed=4)).to_json(),
            circularly_connected_scan(gf.domain, plan).to_json(),
            circularly_connected_scan(chain, chain_plan).to_json(),
        ]

    want = reports()
    for nodes in (1, 2500):
        monkeypatch.setattr(sampling, "_SCAN_NODES", nodes)
        assert reports() == want


@pytest.mark.parametrize("check", ["slice", "scan"])
def test_one_graph_per_check_and_one_labelling_per_block(monkeypatch, check):
    gf = get_field("slab-cone")
    plan = WORKLOAD_PLAN.with_seed(6)
    counts = {}
    for module, name in ((sampling, "unit_graph_edges"), (sampling, "components"), (diffops, "stencil_safe")):
        _counting(monkeypatch, module, name, counts)
    if check == "slice":
        sliceness_check(gf.field, gf.domain, plan)
    else:
        circularly_connected_scan(gf.domain, plan)
    a_values, b_values = plan.scan_grid()
    cells = len(a_values) * len(b_values)
    per_block = sampling._SCAN_NODES // plan.sphere_samples
    assert per_block > 1
    assert counts["unit_graph_edges"] == 1
    assert counts["components"] <= math.ceil(cells / per_block)
    # every cell of the slab-cone has members, so each is labelled and runs
    # one stencil check in a slice check, and none in a connectivity scan
    assert counts.get("stencil_safe", 0) == (cells if check == "slice" else 0)


def test_no_graph_is_built_when_no_cell_has_enough_members(monkeypatch):
    counts = {}
    _counting(monkeypatch, sampling, "unit_graph_edges", counts)
    units = sample_units(500, np.random.default_rng(0))
    far = Ball(Octonion.zero(), 0.1)
    assert list(cell_components(far, units, [(2.0, 2.5), (-2.0, 0.5)], 0.15, 10)) == []
    assert counts == {}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("domain", ["ball", "slab-cone", "chain"])
def test_a_cells_graph_is_the_subgraph_its_members_induce(domain, seed):
    dom = {
        "ball": Ball(Octonion.zero(), 2.0),
        "slab-cone": SlabCone(E1, math.pi / 4),
        "chain": BallChain(E1, E2),
    }[domain]
    plan = SamplePlan(seed=seed)
    units = sample_units(plan.sphere_samples, plan.rng())
    whole = unit_graph_edges(units, plan.link_angle)
    a_values, b_values = plan.scan_grid()
    seen = 0
    for a in a_values:
        for b in b_values:
            mem = dom.contains_batch(tau_rows(a, b, units))
            members = np.flatnonzero(mem)
            if len(members) < 2:
                continue
            seen += 1
            own = members[unit_graph_edges(units[members], plan.link_angle)]
            induced = whole[mem[whole[:, 0]] & mem[whole[:, 1]]]
            assert set(map(tuple, np.sort(own, axis=1).tolist())) == set(map(tuple, induced.tolist()))
    assert seen > 0
