"""End-to-end exercises of every subcommand through cli.main."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from octoslice import cli, domains, liftings
from octoslice.cli import _dump, main
from octoslice.errors import IntegrityError

BALL2 = json.dumps({"type": "ball", "center": [0.0] * 8, "radius": 2.0})
CHAIN = json.dumps(
    {
        "type": "ball_chain",
        "i": [1, 0, 0, 0, 0, 0, 0],
        "j": [0, 1, 0, 0, 0, 0, 0],
    }
)
COARSE_PLAN = json.dumps({"quotient_z_step": 0.2, "pool_sep": 0.1})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_eval_identity(capsys):
    point = json.dumps([0.5, 1, 0, 0, 0, 0, 0, 0.25])
    code, payload = run_json(capsys, "eval", "--field", "identity", "--point", point)
    assert code == 0
    assert payload["value"] == [0.5, 1, 0, 0, 0, 0, 0, 0.25]


def test_op_slice_fueter_on_sqrt(capsys):
    point = json.dumps([1, 2, 0, 0, 0, 0, 0, 0])
    code, payload = run_json(
        capsys,
        "op", "--name", "slice-fueter", "--field", "sqrt-example",
        "--point", point, "--tolerance", "1e-6",
    )
    assert code == 0
    assert payload["pass"] is True and payload["norm"] <= 1e-6


def test_op_tolerance_failure_is_exit_1(capsys):
    point = json.dumps([0.3, 1, 0.2, 0, 0, 0, 0, 0])
    code, payload = run_json(
        capsys,
        "op", "--name", "slice-fueter", "--field", "coord-probe",
        "--point", point, "--tolerance", "1e-6",
    )
    assert code == 1 and payload["pass"] is False


def test_stem_slab_cone_two_units(capsys):
    units = json.dumps(
        [
            [1, 0, 0, 0, 0, 0, 0],
            [np.cos(0.5), np.sin(0.5), 0, 0, 0, 0, 0],
        ]
    )
    code, payload = run_json(
        capsys,
        "stem", "--field", "slab-cone", "--z", "[1, 2]", "--units", units,
    )
    assert code == 0
    assert payload["u"] == pytest.approx([1, 0, 0, 0, 0, 0, 0, 0], abs=1e-10)
    assert payload["v"] == pytest.approx([2, 0, 0, 0, 0, 0, 0, 0], abs=1e-10)


def test_stem_single_unit_gamma_path(capsys):
    code, payload = run_json(
        capsys,
        "stem", "--field", "slab-cone", "--z", "[1, 2]",
        "--unit", "[1, 0, 0, 0, 0, 0, 0]", "--fd",
    )
    assert code == 0
    assert payload["u"][0] == pytest.approx(1, abs=1e-6)
    assert payload["v"][0] == pytest.approx(2, abs=1e-6)


def test_stem_requires_exactly_one_unit_flag(capsys):
    code, _, err = run(capsys, "stem", "--field", "identity", "--z", "[1, 2]")
    assert code == 2 and "error" in err
    code, _, err = run(
        capsys,
        "stem", "--field", "identity", "--z", "[1, 2]",
        "--unit", "[1, 0, 0, 0, 0, 0, 0]",
        "--units", "[[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]",
    )
    assert code == 2 and "error" in err


def test_bv_residual_sqrt(capsys):
    code, payload = run_json(
        capsys,
        "bv-residual", "--field", "sqrt-example", "--z", "[1, 3]",
        "--tolerance", "1e-6",
    )
    assert code == 0
    assert payload["pass"] is True and payload["max_norm"] <= 1e-6


def test_bv_residual_needs_closed_stem(capsys):
    code, _, err = run(capsys, "bv-residual", "--field", "coord-probe", "--z", "[1, 3]")
    assert code == 2 and "no closed stem" in err


def test_sfr_check_sqrt_passes(capsys):
    plan = json.dumps(
        {"a_values": [-1, 0, 1], "b_values": [1.5, 2.0, 2.5], "residual_samples": 50}
    )
    code, payload = run_json(
        capsys, "sfr-check", "--field", "sqrt-example", "--plan", plan
    )
    assert code == 0 and payload["pass"] is True


def test_slice_check_verdicts(capsys):
    code, payload = run_json(capsys, "slice-check", "--field", "slab-cone")
    assert code == 0 and payload["pass"] is True
    code, payload = run_json(capsys, "slice-check", "--field", "coord-probe")
    assert code == 1 and payload["pass"] is False


def test_maxmod_scan_exit_codes(capsys):
    grid = json.dumps(
        {"center": [0, 0, 0, 0], "half_widths": [1, 1, 1, 1], "counts": [5, 5, 5, 5]}
    )
    code, payload = run_json(
        capsys, "maxmod-scan", "--field", "gaussian", "--grid", grid
    )
    assert code == 1
    assert payload["strict_maxima"] == [pytest.approx([0, 0, 0, 0], abs=1e-12)]

    grid = json.dumps(
        {
            "center": [1, 2, 0, 0],
            "half_widths": [0.1, 0.1, 0.05, 0.05],
            "counts": [5, 5, 5, 5],
        }
    )
    code, payload = run_json(
        capsys,
        "maxmod-scan", "--field", "sqrt-example", "--grid", grid, "--domain", CHAIN,
    )
    assert code == 0 and payload["pass"] is True


def test_lift_approx_certificate(capsys):
    path = json.dumps(
        {
            "vertices": [
                [0, 1, 0, 0, 0, 0, 0, 0],
                [1, 1, 1, 0, 0, 0, 0, 0],
                [0, 0, 2, 0, 0, 0, 0, 0.5],
            ]
        }
    )
    code, payload = run_json(capsys, "lift-approx", "--path", path, "--delta", "0.1")
    assert code == 0
    cert = payload["certificate"]
    assert cert["passed"] is True and cert["sup_deviation"] < 0.1
    assert payload["lifting"]["base"]["vertices"]


def test_lift_approx_rejects_bad_delta(capsys):
    path = json.dumps({"vertices": [[0, 1, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0]]})
    code, _, err = run(capsys, "lift-approx", "--path", path, "--delta", "-1")
    assert code == 2 and "error" in err


def test_ccl_search_found_and_not_found(capsys):
    code, payload = run_json(
        capsys,
        "ccl-search", "--domain", BALL2,
        "--x", "[1, 1, 0, 0, 0, 0, 0, 0]",
        "--xp", "[1, 0, 1, 0, 0, 0, 0, 0]",
    )
    assert code == 0 and payload["status"] == "found"

    code, payload = run_json(
        capsys,
        "ccl-search", "--domain", CHAIN, "--plan", COARSE_PLAN,
        "--x", "[-1, 0, 2, 0, 0, 0, 0, 0]",
        "--xp", "[-1, 0, -2, 0, 0, 0, 0, 0]",
    )
    assert code == 1 and payload["status"] in ("not-equivalent", "budget-exhausted")


def test_ccl_search_outside_domain_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "ccl-search", "--domain", BALL2,
        "--x", "[9, 1, 0, 0, 0, 0, 0, 0]",
        "--xp", "[9, 0, 1, 0, 0, 0, 0, 0]",
    )
    assert code == 2 and "error" in err


def test_quotient_real_ball(capsys):
    ball = json.dumps({"type": "ball", "center": [0.0] * 8, "radius": 1.0})
    code, payload = run_json(capsys, "quotient", "--domain", ball)
    assert code == 0
    assert payload["components"] == 1
    assert set(payload) >= {"points", "labels", "components", "resolution"}
    assert len(payload["points"]) == len(payload["labels"])


@pytest.mark.parametrize(
    "domain",
    [
        {"type": "ball_union", "balls": [
            {"center": [0, 2, 0, 0, 0, 0, 0, 0], "radius": 0.5},
            {"center": [0, 0, 0, 0, 2, 0, 0, 0], "radius": 1.6},
        ]},
        {"type": "ball", "center": [0, 0, 0, 0, 3, 0, 0, 0], "radius": 0.5},
        {"type": "slab_cone", "i0": [0, 0, 0, 0, 1, 0, 0]},
    ],
    ids=["union", "ball", "slab-cone"],
)
def test_quotient_of_a_domain_off_the_sampling_span_is_exit_2(capsys, domain):
    code, out, err = run(capsys, "quotient", "--domain", json.dumps(domain), "--seed", "1")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith("PreconditionError") and "span(e1, e2, e3)" in error


def test_verify_suite_single_criterion(capsys):
    code, payload = run_json(capsys, "verify-suite", "--only", "1")
    assert code == 0
    assert payload["pass"] is True
    assert payload["criteria"][0]["id"] == 1

    code, _, err = run(capsys, "verify-suite", "--only", "13")
    assert code == 2 and "error" in err


def test_unknown_subcommand_is_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2


def test_missing_required_flag_is_exit_2(capsys):
    assert run(capsys, "eval", "--field", "identity")[0] == 2


def test_cached_parser_answers_like_a_fresh_one(capsys):
    """`main` keeps one parser per process; errors, usage exits and help leave it as new."""
    point = "[0.5, 1, 0, 0, 0, 0, 0, 0.25]"
    calls = [
        ("eval", "--field", "identity", "--point", point),
        ("eval", "--field", "identity", "--point", "[1, NaN, 0, 0, 0, 0, 0, 0]"),  # package error
        ("op", "--name", "gamma", "--field", "identity", "--point", point),
        ("eval", "--field", "identity"),  # usage error
        ("op", "--help"),
        ("no-such-command",),
        ("--help",),
        ("eval", "--field", "identity", "--point", point),
        ("op", "--name", "gamma", "--field", "identity", "--point", point),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cached = [run(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 2, 0, 2, 0, 0, 0]
    assert cli._parser() is cli._parser()


def test_output_is_deterministic_and_file_equal(tmp_path, capsys):
    argv = [
        "ccl-search", "--domain", BALL2,
        "--x", "[1, 1, 0, 0, 0, 0, 0, 0]",
        "--xp", "[1, 0, 1, 0, 0, 0, 0, 0]",
        "--seed", "3",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second and first.endswith("\n")

    out = tmp_path / "witness.json"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == first


def test_json_args_accept_files(tmp_path, capsys):
    dom = tmp_path / "ball.json"
    dom.write_text(BALL2)
    code, payload = run_json(
        capsys,
        "ccl-search", "--domain", f"@{dom}",
        "--x", "[1, 1, 0, 0, 0, 0, 0, 0]",
        "--xp", "[1, 0, 1, 0, 0, 0, 0, 0]",
    )
    assert code == 0 and payload["status"] == "found"
    code, _ = run_json(
        capsys,
        "ccl-search", "--domain", str(dom),
        "--x", "[1, 1, 0, 0, 0, 0, 0, 0]",
        "--xp", "[1, 0, 1, 0, 0, 0, 0, 0]",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        (
            "op", "--name", "slice-fueter", "--field", "identity",
            "--point", "[1, Infinity, 0, 0, 0, 0, 0, 0]",
        ),
        ("eval", "--field", "identity", "--point", "[NaN, 1, 0, 0, 0, 0, 0, 0]"),
        ("eval", "--field", "identity", "--point", "[1e999, 1, 0, 0, 0, 0, 0, 0]"),
        (
            "stem", "--field", "sqrt-example",
            "--z", "[1, -Infinity]", "--unit", "[1, 0, 0, 0, 0, 0, 0]",
        ),
        ("stem", "--field", "sqrt-example", "--z", "[1, 2]", "--unit", "[NaN, 0, 0, 0, 0, 0, 0]"),
        (
            "quotient",
            "--domain", '{"type": "ball", "center": [0, 0, 0, 0, 0, 0, 0, 0], "radius": Infinity}',
        ),
        ("quotient", "--domain", BALL2, "--plan", '{"pool_sep": NaN}'),
    ],
)
def test_non_finite_input_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "non-finite" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # a grid with fewer than 3 nodes per axis has no interior node
        (
            "maxmod-scan", "--field", "gaussian", "--grid",
            '{"center": [0, 0, 0, 0], "half_widths": [1, 1, 1, 1], "counts": [1, 1, 1, 1]}',
        ),
        ("quotient", "--domain", BALL2, "--plan", '{"pool_max": 0}'),
        ("quotient", "--domain", BALL2, "--plan", '{"quotient_z_step": -0.1}'),
        # about 1e13 columns: refused before any grid is built
        ("quotient", "--domain", BALL2, "--plan", '{"quotient_z_step": 1e-6}'),
        (
            "ccl-search", "--domain", BALL2, "--plan", '{"search_budget": 0}',
            "--x", "[1, 1, 0, 0, 0, 0, 0, 0]", "--xp", "[1, 0, 1, 0, 0, 0, 0, 0]",
        ),
        # a negative imaginary floor, an empty grid axis, non-real grid entries
        ("slice-check", "--field", "identity", "--plan", '{"min_im": -1}'),
        ("sfr-check", "--field", "identity", "--plan", '{"a_values": []}'),
        ("slice-check", "--field", "identity", "--plan", '{"b_values": [1.5, true]}'),
        ("slice-check", "--field", "identity", "--plan", '{"b_values": ["1.5"]}'),
        # a domain that is not a JSON object, and a plan step too large for a float
        ("quotient", "--domain", "[1, 2]"),
        ("quotient", "--domain", BALL2, "--plan", '{"quotient_z_step": 1' + "0" * 400 + "}"),
        # a plan that is not a JSON object, and a plan seed, which only --seed sets
        ("quotient", "--domain", BALL2, "--plan", '[["pool_max", 20]]'),
        ("slice-check", "--field", "identity", "--plan", '{"seed": 5}'),
    ],
)
def test_unresolvable_plans_and_grids_are_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("PreconditionError")


# Each argument that takes JSON numbers, as (a valid number, argv with that
# number in one slot).  Points lie inside their domains, so every valid argv
# exits 0 or 1.
_E1 = [1, 0, 0, 0, 0, 0, 0]
_IN = [0.5, 1, 0, 0, 0, 0, 0, 0]
_CHAIN_IN = [1, 2, 0, 0, 0, 0, 0, 0]


def _search(domain, x=_IN, xp=_IN):
    return ["ccl-search", "--domain", json.dumps(domain), "--x", json.dumps(x), "--xp", json.dumps(xp)]


def _maxmod(center=0, half_width=1, count=3, unit=0):
    grid = {"center": [center, 0, 0, 0], "half_widths": [half_width, 1, 1, 1], "counts": [count, 3, 3, 3]}
    units = [_E1, [unit, 1, 0, 0, 0, 0, 0]]
    return ["maxmod-scan", "--field", "identity", "--grid", json.dumps(grid), "--units", json.dumps(units)]


def _lift(vertex=0, time=0.5):
    path = {"vertices": [[vertex, 1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0, 0, 0.5]]}
    path["times"] = [0, time, 1]
    return ["lift-approx", "--path", json.dumps(path), "--delta", "0.1", "--samples", "64"]


def _stem(z=0.5, unit=0.5):
    return ["stem", "--field", "identity", "--z", json.dumps([z, 1]), "--unit", json.dumps([unit, 1, 0, 0, 0, 0, 0])]


def _ball(center=0, radius=2):
    return {"type": "ball", "center": [center, 0, 0, 0, 0, 0, 0, 0], "radius": radius}


def _chain(i=1, j=1, steps=64):
    return {"type": "ball_chain", "i": [i, 0, 0, 0, 0, 0, 0], "j": [0, j, 0, 0, 0, 0, 0], "theta_steps": steps}


_NUMBER_SLOTS = {
    "point": (0.5, lambda v: ["eval", "--field", "identity", "--point", json.dumps([v, 1, 0, 0, 0, 0, 0, 0])]),
    "x": (0.5, lambda v: _search(_ball(), x=[v, 1, 0, 0, 0, 0, 0, 0])),
    "xp": (0.5, lambda v: _search(_ball(), xp=[v, 1, 0, 0, 0, 0, 0, 0])),
    "z": (0.5, lambda v: _stem(z=v)),
    "unit": (0.5, lambda v: _stem(unit=v)),
    "units": (0, lambda v: _maxmod(unit=v)),
    "grid-center": (0, lambda v: _maxmod(center=v)),
    "grid-half-widths": (1, lambda v: _maxmod(half_width=v)),
    "grid-counts": (3, lambda v: _maxmod(count=v)),
    "path-vertices": (0, lambda v: _lift(vertex=v)),
    "path-times": (0.5, lambda v: _lift(time=v)),
    "ball-center": (0, lambda v: _search(_ball(center=v))),
    "ball-radius": (2, lambda v: _search(_ball(radius=v))),
    "union-radius": (2, lambda v: _search({"type": "ball_union", "balls": [_ball(), _ball(radius=v)]})),
    "slab-cone-i0": (1, lambda v: _search({"type": "slab_cone", "i0": [v, 0, 0, 0, 0, 0, 0]}, [0.5] * 2 + [0] * 6, [0.5] * 2 + [0] * 6)),
    "slab-cone-half-angle": (0.5, lambda v: _search({"type": "slab_cone", "i0": _E1, "half_angle": v}, [0.5] * 2 + [0] * 6, [0.5] * 2 + [0] * 6)),
    "chain-i": (1, lambda v: _search(_chain(i=v), _CHAIN_IN, _CHAIN_IN)),
    "chain-j": (1, lambda v: _search(_chain(j=v), _CHAIN_IN, _CHAIN_IN)),
    "chain-theta-steps": (64, lambda v: _search(_chain(steps=v), _CHAIN_IN, _CHAIN_IN)),
}


@pytest.mark.parametrize("slot", sorted(_NUMBER_SLOTS))
@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", True, "3"])
def test_numbers_given_as_strings_or_bools_are_exit_2(capsys, slot, bad):
    good, argv = _NUMBER_SLOTS[slot]
    assert run(capsys, *argv(good))[0] in (0, 1)
    code, out, err = run(capsys, *argv(bad))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith("PreconditionError") and ("finite JSON numbers" in error or "JSON integer" in error)


def test_lift_samples_past_the_limit_are_exit_2_before_allocating(capsys):
    path = json.dumps({"vertices": [[0, 1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0, 0]]})
    for samples in ("0", "-3", str(liftings.MAX_LIFT_SAMPLES + 1)):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "lift-approx", "--path", path, "--delta", "0.1", "--samples", samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and json.loads(err)["error"].startswith("PreconditionError")
        # the decomposition's arrays would take tens of megabytes
        assert peak < 2**20


def test_plan_counts_past_their_limits_are_exit_2_before_allocating(capsys):
    plan = json.dumps({"sphere_samples": 10**12})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "slice-check", "--field", "identity", "--plan", plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and json.loads(err)["error"].startswith("PreconditionError")
    # the sampled units alone would take 80 TB
    assert peak < 2**20


def test_chain_theta_steps_past_the_limit_are_exit_2_before_allocating(capsys):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    for steps in (domains.MAX_THETA_STEPS + 1, 10**10):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "quotient", "--domain", json.dumps(_chain(steps=steps)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        error = json.loads(err, parse_constant=reject)["error"]
        assert error.startswith("PreconditionError") and "over the limit" in error
        # the chain's thetas alone would take 8 MB, and 80 GB at 10^10 steps
        assert peak < 2**20


def test_plan_with_too_many_graph_pairs_is_exit_2_before_sampling(capsys):
    plan = json.dumps({"sphere_samples": 50_000, "link_angle": 3.0})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "slice-check", "--field", "identity", "--plan", plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "proximity-graph pairs" in json.loads(err)["error"]
    # the 50 000 sampled units alone would take 2.8 MB
    assert peak < 2**20


def test_plan_whose_grid_is_too_large_is_exit_2(capsys):
    # Each count is within its own limit, but the grid's masks would take
    # about 12 GB; the pool and the arc graph are built, no mask is.
    ball = json.dumps({"type": "ball", "center": [0] * 8, "radius": 3})
    plan = json.dumps({"pool_harvest": 500000, "pool_max": 10000, "pool_sep": 0.02, "quotient_z_step": 0.03})
    code, out, err = run(capsys, "quotient", "--domain", ball, "--plan", plan)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith("PreconditionError") and "40803 columns x (2 x 10000 units + " in error
    assert "mask cells, over the limit" in error


def test_plan_field_the_plan_lacks_is_exit_2(capsys):
    # witness checks take no sample count from the plan, and the fiber
    # search no base step
    for plan in ('{"verify_samples": 4096}', '{"base_step": 1e-9}'):
        code, out, err = run(capsys, "quotient", "--domain", BALL2, "--plan", plan)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error.startswith("PreconditionError: bad plan") and json.loads(plan).popitem()[0] in error


def test_non_finite_flag_is_exit_2(capsys):
    code, out, _ = run(
        capsys,
        "op", "--name", "gamma", "--field", "identity",
        "--point", "[1, 1, 0, 0, 0, 0, 0, 0]", "--tolerance", "nan",
    )
    assert code == 2 and out == ""


def test_output_is_strict_json():
    with pytest.raises(ValueError):
        _dump({"norm": float("nan")})


@pytest.mark.parametrize(
    "error", [IntegrityError("inconsistent merge"), ZeroDivisionError("float division")]
)
def test_every_package_error_is_exit_2(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build_quotient", fail)
    code, out, err = run(capsys, "quotient", "--domain", BALL2)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{type(error).__name__}: {error}"


# ---------------------------------------------------------------------------
# Frozen output bytes: sampled outputs stay byte-identical for a seed.  The
# plans are those of the benchmark's field-checks workload; each digest is
# the sha256 of the command's stdout, recorded before the operators moved to
# the batched numeric core.

_SLICE_PLAN = json.dumps({"sphere_samples": 1000, "residual_unit_samples": 15})
_SFR_PLAN = json.dumps({"sphere_samples": 1000, "residual_unit_samples": 15, "residual_samples": 40})
_POINT = json.dumps([0.3, 0.9, -0.4, 0.2, 0.1, -0.5, 0.3, 0.2])
_SQRT_POINT = json.dumps([0.93, 2.3, 0.1, 0.02, 0.0, 0.0, 0.0, -0.01])
_GRID = json.dumps({"center": [0, 0, 0, 0], "half_widths": [0.9] * 4, "counts": [11] * 4})
_IGRID = json.dumps({"center": [0.2, -0.3, 0.1, 0.4], "half_widths": [0.5] * 4, "counts": [9] * 4})
_UNIT = "[0.96, 0.2, 0.1, 0, 0.1, 0, 0.1]"
_UNITS = "[[1, 0, 0, 0, 0, 0, 0], [0.9, 0.43, 0, 0, 0, 0, 0]]"

_FROZEN_ARGV = [
    ["slice-check", "--field", "coord-probe", "--seed", "11", "--plan", _SLICE_PLAN],
    ["slice-check", "--field", "identity", "--seed", "12", "--plan", _SLICE_PLAN],
    ["slice-check", "--field", "slab-cone", "--seed", "13", "--plan", _SLICE_PLAN, "--fd"],
    ["sfr-check", "--field", "identity", "--seed", "14", "--plan", _SFR_PLAN],
    ["sfr-check", "--field", "gaussian", "--seed", "15", "--plan", _SFR_PLAN],
    ["sfr-check", "--field", "affine-regular", "--seed", "16", "--plan", _SFR_PLAN],
    ["maxmod-scan", "--field", "gaussian", "--grid", _GRID],
    ["maxmod-scan", "--field", "identity", "--grid", _IGRID],
]
for _name in ("gamma", "euler", "slice-fueter", "cauchy-fueter", "slice-laplacian"):
    for _field in ("identity", "affine-regular", "gaussian"):
        _FROZEN_ARGV.append(["op", "--name", _name, "--field", _field, "--point", _POINT])
    _FROZEN_ARGV.append(["op", "--name", _name, "--field", "gaussian", "--point", _POINT, "--fd"])
_FROZEN_ARGV.append(["op", "--name", "slice-fueter", "--field", "sqrt-example", "--point", _SQRT_POINT])
for _field in ("identity", "affine-regular", "slab-cone"):
    _FROZEN_ARGV.append(["stem", "--field", _field, "--z", "[0.4, 1.7]", "--unit", _UNIT])
    _FROZEN_ARGV.append(["stem", "--field", _field, "--z", "[-0.7, 2.2]", "--units", _UNITS])
# the square-root field, recorded before every field became one batched kernel
_SQRT_UNIT = "[2.3, 0.1, 0.02, 0, 0, 0, -0.01]"
_FROZEN_ARGV.append(["eval", "--field", "sqrt-example", "--point", _SQRT_POINT])
for _name in ("gamma", "euler", "slice-fueter", "cauchy-fueter", "slice-laplacian"):
    for _fd in ((), ("--fd",)):
        _FROZEN_ARGV.append(["op", "--name", _name, "--field", "sqrt-example", "--point", _SQRT_POINT, *_fd])
for _fd in ((), ("--fd",)):
    _FROZEN_ARGV.append(["stem", "--field", "sqrt-example", "--z", "[0.93, 2.3]", "--unit", _SQRT_UNIT, *_fd])
# criterion 11's sqrt plan at the default seed, and criterion 10's centre
_FROZEN_ARGV.append([
    "slice-check", "--field", "sqrt-example", "--seed", "20260830",
    "--plan", json.dumps({"a_values": [-1, 0, 1], "b_values": [1.5, 2.0, 2.5]}),
])
_FROZEN_ARGV.append([
    "maxmod-scan", "--field", "sqrt-example",
    "--grid", json.dumps({"center": [1, 2, 0, 0], "half_widths": [0.12] * 4, "counts": [5] * 4}),
])

# Recorded before the stems and the quaternion operators became batched
# kernels: the Bers-Vekua residual of every closed stem, closed and --fd,
# above, on and below the real axis (the square-root stem is undefined on the
# axis, so there it is the exit-2 path with an empty stdout), and one
# square-root z inside the cut margin, where the closed partials give way to
# central differences; two-unit stems below the axis; the quaternion
# operators at second points.
_POINT2 = json.dumps([-0.6, 0.2, 0.7, -0.3, 0.5, 0.1, -0.2, 0.4])
_SQRT_POINT2 = json.dumps([0.45, 0.95, -0.58, 0.0, 0.0, 0.0, 0.0, 0.03])
_BV_Z = {
    "constant": ("[0.4, 1.3]", "[0.4, 0]", "[0.4, -1.3]"),
    "identity": ("[0.4, 1.3]", "[0.4, 0]", "[0.4, -1.3]"),
    "gaussian": ("[0.4, 1.3]", "[0.4, 0]", "[0.4, -1.3]"),
    "affine-regular": ("[0.4, 1.3]", "[0.4, 0]", "[0.4, -1.3]"),
    "sqrt-example": ("[0.7, 2.2]", "[0.5, 0]", "[0.7, -2.2]", "[-0.5, 2.01]"),
}
for _field, _zs in _BV_Z.items():
    for _z in _zs:
        for _fd in ((), ("--fd",)):
            _FROZEN_ARGV.append(["bv-residual", "--field", _field, "--z", _z, *_fd])
for _field in ("identity", "affine-regular", "slab-cone"):
    _FROZEN_ARGV.append(["stem", "--field", _field, "--z", "[-0.7, -2.2]", "--units", _UNITS])
for _name in ("cauchy-fueter", "slice-laplacian"):
    for _field in ("identity", "gaussian"):
        _FROZEN_ARGV.append(["op", "--name", _name, "--field", _field, "--point", _POINT2])
    _FROZEN_ARGV.append(["op", "--name", _name, "--field", "sqrt-example", "--point", _SQRT_POINT2])

# Recorded before the sampling sphere became a module constant: quotients of
# a ball, a ball union and a slab-cone under small plans, and a fiber-product
# search that finds a witness and one that ends not-equivalent.
_QPLAN = json.dumps({"pool_harvest": 400, "pool_max": 80, "quotient_z_step": 0.3})
_UNION = json.dumps({"type": "ball_union", "balls": [
    {"type": "ball", "center": [0, 2, 0, 0, 0, 0, 0, 0], "radius": 1.6},
    {"type": "ball", "center": [0, 0, 2, 0, 0, 0, 0, 0], "radius": 1.6},
]})
_M = 0.5**0.5
_CHAMBER = json.dumps({"type": "ball_union", "balls": [
    {"type": "ball", "center": c, "radius": r}
    for c, r in (
        ([0, 0, 2, 0, 0, 0, 0, 0], 0.5),
        ([0, 0, 0, 2, 0, 0, 0, 0], 0.5),
        ([0, 0, 1.5, 0, 0, 0, 0, 0], 0.45),
        ([0, 0, 0, 1.5, 0, 0, 0, 0], 0.45),
        ([0, 0, _M, _M, 0, 0, 0, 0], 0.85),
    )
]})
_FROZEN_ARGV += [
    ["quotient", "--seed", "3", "--plan", _QPLAN,
     "--domain", json.dumps({"type": "ball", "center": [0.5] + [0] * 7, "radius": 1.5})],
    ["quotient", "--seed", "4", "--plan", _QPLAN, "--domain", _UNION],
    ["quotient", "--seed", "5", "--plan", json.dumps({"pool_harvest": 300, "pool_max": 40, "quotient_z_step": 0.6}),
     "--domain", json.dumps({"type": "slab_cone", "i0": [1, 0, 0, 0, 0, 0, 0]})],
    ["ccl-search", "--seed", "10", "--plan", _QPLAN, "--domain", _CHAMBER,
     "--x", "[0, 0, 2, 0, 0, 0, 0, 0]", "--xp", "[0, 0, 0, 2, 0, 0, 0, 0]"],
    ["ccl-search", "--seed", "7", "--plan", COARSE_PLAN, "--domain", CHAIN,
     "--x", "[-1, 0, 2, 0, 0, 0, 0, 0]", "--xp", "[-1, 0, -2, 0, 0, 0, 0, 0]"],
]

_FROZEN_SHA256 = [
    "04f6e697bc8943a89120ed770335201edb04720fcd371aecbed065e9fb87ca3d",
    "67cb60e372eeefde4346ae17e70feee013f503af18e348dfbff68f3e8be5fc35",
    "2ecf99cc8a73212d2f8a1b93f49f9fe1a52d8d8ac78e41f73332da99d8094f03",
    "621b8bd9d593ee15d2c17ec2ed029945769f0f6e3d393b46961bf8f1067df5c3",
    "cccca41da2c99f98ec1f274dde96e79165e1c15675e1fa28d5051c887945c45e",
    "546aae03d850b469a3838de09f4efc472a4b2484a11053060ae7f103fbaab7c6",
    "cee10534aad2563ca8da47b8f0e75bffcb3f5d873ebf8c95cf6ffa4a041a9487",
    "b2e6f22755f1588b9fab203b2e9a23bd96fb34b5f7f22af9cae41ccdde2ec760",
    "d52761af298dc9f761b650efc0d2d3c8e74bb526a9c5d8b6c38ab8bf848a0e6e",
    "89724cee758f17d721df0c59f6a673e3c10352f843931b32cd87d3df5d1d4606",
    "be61955b571b3b3aa5f087125a7b00bf3c63d59f07b5aded880245b391dfea57",
    "a9c6803435b8c00e86efd9c4a94d82912958a191f8cc3053ee2e5712ee9af18f",
    "b9d78c72e70e980895db6c2039453d4d0b79f7aaa9f508f32522700f0e597c96",
    "2a23ec06a0c7964e9a46945291da9c21358482e17546911867d34ee9665aa6ec",
    "075731e885d4c8a70519ebaefe2c4a1521c3cf03d6dc8368916f7992f4ef3748",
    "cb2f588199b211ab89ca601ae7205848d564a30908d38e37e95758d9ca783c9b",
    "99b53aa243a91f99930f1d17416513c29055c82e0ee09cb95d29b16c0d639bc2",
    "d27499dfd8bfbe13b372805bf99b6d242b7d73719fd0af72f5a8d0c46607f110",
    "ccde4db14dcc842e4b592cdf9584ad31eb7029c1b224f0afdcf480110e263339",
    "6efce04b2442ec6d1e158be6f2864fa0c14eac78057617c9f02f4047fe0a74a8",
    "4cf6fc8efad1d462e2473ba8feda8f553dc4ff3bed2e92a5118de40b2c0f8136",
    "f22cb706298aafe63d003aece08bddeab1316009f06b33016bd6c95406713045",
    "e3585d10ccd9713ae42009c81be73ecd2573d4b5df2b7f4faed8c39d155cfc51",
    "e3585d10ccd9713ae42009c81be73ecd2573d4b5df2b7f4faed8c39d155cfc51",
    "1755f4066648df61550543c36cf58bd3ae1f62aaa8cc01280c803efdb104fb8a",
    "287f95cdaff65c7c2cfe86656dcf8e8c43f2322671e52ede3a5df16a9fd4c571",
    "b428316380223669083733687d6715d991c0a90e63252edf9c59633d06950cdc",
    "b428316380223669083733687d6715d991c0a90e63252edf9c59633d06950cdc",
    "b2709647148c2686b58c844184eca8ec5ff639b7eb6aae0e8a6a8b88b50d6dea",
    "7b14a8bd485d654a375523f53db38fafc8fda17d2da449227cad4d5033fb54ad",
    "71fa977a28631d8e5a16d53fd3649afa19535b2e233b74356aee47784299c3df",
    "ad3e9892391da87dfc8ad086b95d47f0045b5082bae61416f7831437cefe1e17",
    "883490349413577012eb5eccac4d3dc8d228ee6a7894296e669d05816ad4a5ae",
    "bcca9ab20ff5e6a73ada0a58bce7eec6b267a533d85c0cb2a9ef57670bc0c2a1",
    "e1302e2b6be27f5783ded16d37053fd0132c2fd4bc9630f279330bc38b168bed",
    "59653b89c1df49f1c8d113124a4d7a78f62ee5991e675cf194bafd35095dfdbe",
    "ea654371dcb756301130acf622cf32cb416986cbd7ca634aea32fbb65d3b8123",
    "b1176a483d352f600df2a68dcb8854dcd035b98c417ffac449a4add044efc6d9",
    "34b50b940e22b1d7183af47c9e2954c5e1afa2388329a5f507784b30eb76f0d5",
    "5ec2757a4067dbc77a445216a142e63fc9f5bd0935fb62ad7f8989dddf879679",
    "b2709647148c2686b58c844184eca8ec5ff639b7eb6aae0e8a6a8b88b50d6dea",
    "768ea15ee05bcbc317b775729a6869789f063a1184ddac7d477409a5f320130f",
    "1606db8e4909d758a3031294a99434448c1b286fe458054f656991f13b58613b",
    "1606db8e4909d758a3031294a99434448c1b286fe458054f656991f13b58613b",
    "e9f1feb36456c82765d7a26e567d69acf1e34c6cbed4f714ea1e336040b0ce43",
    "e9f1feb36456c82765d7a26e567d69acf1e34c6cbed4f714ea1e336040b0ce43",
    "53c440623f8ab38c35c9b50ae3724bda6ce1ecd3ff523ae2d287bf3f79e84d22",
    "6b008e539800fccd21071eca772c1590403e3578372b95b6e5a0f62be1241765",
    "2f9adf2c3f9062dad826178fbb99e09b8774fcb602ea006966635798cfa3da5d",
    "9b6aa51209cfa11b03c6c0d485e26f456320d2a8a0077c024a22251241730d91",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "efa9795690bf69a06649ff2f391fafbd1664eafbf1c05383a0d8e0f7f8b3b2b3",
    "e2a046ab4c8fdc6dc17c3690ccee5b5f88ab90acf64f22b811a8ca3256976916",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "efa9795690bf69a06649ff2f391fafbd1664eafbf1c05383a0d8e0f7f8b3b2b3",
    "e2a046ab4c8fdc6dc17c3690ccee5b5f88ab90acf64f22b811a8ca3256976916",
    "366bebb7bc5af9ef2e6cdd941864a42cb60b061d31114cfdd04107a37405f62e",
    "e75a9dc35e078048f8770915b5a9cf777483dbacffb9e8e6dec0345b3f549809",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "2d4b378af235ae5146cbe952eb95c76195f49e050bb17cd5ab2fe085b4a862e5",
    "72e6842a01cd6cbc7c6faf048004497d4ef066fe1fbd1510e7b7bfec854ce621",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "a740f7c02fb0624a256d61dcea9b4325aebaedd4f6caedf6d4fb7fd86d0cfe64",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "0be50b0e4f40f87dd3e139e8d8bee69d602491a44e7488800b08fd3d1afb9dc1",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "a740f7c02fb0624a256d61dcea9b4325aebaedd4f6caedf6d4fb7fd86d0cfe64",
    "dcbfe7788219d5548da9cb463b26e63e06ba02071b29ff00e8f499f7e666c39f",
    "846a9dec495879f3b3665d725c63c201a0e0087bbf9bed7855feff05df9b65ce",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "49b6ea6d16d297e4bc2c59009a23ba67fc4cb7542b77226dd2e799a33ea27ec9",
    "b825b4a8de6156ffe56d3ff28ee689504faabf821b0cafd6c5520e4027af43aa",
    "0df305bee502c48fcb7fd755e3e11a8d4d5537f6d7318f875a3ae72ce932e063",
    "0df305bee502c48fcb7fd755e3e11a8d4d5537f6d7318f875a3ae72ce932e063",
    "054ffa1d99105e82894568221c7d2e397fd8f10df4429ee6085f9355799e40e4",
    "f03868a81273a35984ae34d871ce68ba2ed6a36f7bc32e6cd5d051fe6f97a6cc",
    "48d301f1747e62bb62290c3dd6cde313f316d889e72f808e5a6889dea96c553c",
    "f6f89f425226dc00a21c181e838ae12a312eb4e97f293aa6c4101d83a7ef3f7f",
    "afa84ac5747001356a5a4780554402d0af7127601f814489bbe9e3cf28b43b4c",
    "5cbaaf83b2e83eca90f466b990c3d7ece7f568d3f2cad14191cdbebb219def5d",
    "85c52e7ff8ceb53b2739768d54e9eaa1bfbe0540ec45d1d63213ae847ab776bd",
    "c76043677d33fc1e763d9ea94c0a8435f597ee1c6fae01177fdbe794f0aeb311",
    "7d5fdf7fb7874277a4882af2fe65a036055dbde9f8b0bc88e66ea5c9597b21ab",
    "375352b133b938893d640a9cd742406fefc56b4145ec028fc48d151bf24ae09c",
    "b7a7d67f837b3daacc488e95f74550cd760bc1f7073b4a6ebe075844b51bf10d",
    "0ee8baa7e24dd0958d1d1c3e5b53ef6e5e38ecdbac2e8b9b8cb1c6c1932786ef",
    "5f48097f5dc0fbe3217c94969491aa4d1770b266b942c21a0ff1181c9cb048d2",
    "80197884edf11bcca47643b15774ecbe1433353938bea574c276b0f3ee3f1624",
]


@pytest.mark.parametrize(
    "argv, digest",
    list(zip(_FROZEN_ARGV, _FROZEN_SHA256)),
    ids=[f"{k}-{argv[0]}-{argv[2]}" for k, argv in enumerate(_FROZEN_ARGV)],
)
def test_sampled_outputs_are_frozen(capsys, argv, digest):
    _, out, _ = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
