"""End-to-end exercises of every subcommand through cli.main."""

import json

import numpy as np
import pytest

from octoslice import cli
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
    ],
)
def test_unresolvable_plans_and_grids_are_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("PreconditionError")


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
