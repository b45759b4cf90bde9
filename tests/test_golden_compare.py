"""The golden comparator must still reject real changes to a report, and
regenerating a golden must keep every number the comparator accepts."""

import contextlib
import io
import json

import pytest

from choqint.cli import main
from choqint.report import to_json
from golden_compare import (
    keep_accepted_numbers,
    parse_args,
    report_mismatches,
    residual_bound,
    value_bounds,
)
from golden_manifest import GOLDEN, GOLDEN_RUNS

ARGV = {name: argv for name, argv, _ in GOLDEN_RUNS}


def _json_edit(edit):
    def perturb(text, args):
        return to_json(edit(json.loads(text), args)) + "\n"
    return perturb


def _move_inverted_value(data, args):
    data["results"][4]["value"] += 10.0 * value_bounds(args, data)[4]
    return data


def _move_forward_value(data, args):
    data["results"][2]["value"] *= 1.0 + 1e-7
    return data


def _move_residual(data, args):
    data["residual"] += 10.0 * residual_bound(args, data)
    return data


def _residual_across_tolerance(data, args):
    below = data["residual"] <= args.residual_tol
    data["residual"] = args.residual_tol * (1.5 if below else 0.5)
    return data


def _flip_flag(data, args):
    data["results"][3]["monotone_ok"] = False
    return data


def _change_verdict(data, args):
    data["verdict"] = "Inconclusive"
    return data


def _reorder_certificate(data, args):
    cert = data["certificate"]
    data["certificate"] = {"monotone": cert.pop("monotone"), **cert}
    return data


def _raise_row_gap(data, args):
    row = data["results"][2]
    row["gap"] = 2.0 * args.route_tol * (1.0 + row["value"])
    return data


def _raise_property_gap(data, args):
    data["properties"]["max_shift_gap"] = 2.0 * args.shift_tol
    return data


def _flip_csv_flag(text, args):
    return text.replace(",1\n", ",0\n", 1)


PERTURBATIONS = [
    ("inverted_value_10x_bound", "derive_power35.json", _json_edit(_move_inverted_value)),
    ("forward_value_1e-7_relative", "verify_sqrt.json", _json_edit(_move_forward_value)),
    ("residual_10x_bound", "derive_power35.json", _json_edit(_move_residual)),
    ("identify_residual_10x_bound", "identify_power55.json", _json_edit(_move_residual)),
    ("monotone_ok_flipped", "derive_power35.json", _json_edit(_flip_flag)),
    ("monotone_ok_flipped_csv", "derive_power35.csv", _flip_csv_flag),
    ("verdict_changed", "derive_power35.json", _json_edit(_change_verdict)),
    ("json_key_reordered", "derive_power35.json", _json_edit(_reorder_certificate)),
    ("row_gap_above_tolerance", "verify_sqrt.json", _json_edit(_raise_row_gap)),
    ("property_gap_above_tolerance", "verify_sqrt.json", _json_edit(_raise_property_gap)),
]


@pytest.mark.parametrize("name,perturb", [row[1:] for row in PERTURBATIONS],
                         ids=[row[0] for row in PERTURBATIONS])
def test_comparator_rejects_perturbed_golden(name, perturb):
    argv = ARGV[name]
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert report_mismatches(argv, golden, golden) == []
    perturbed = perturb(golden, parse_args(argv))
    assert perturbed != golden
    assert report_mismatches(argv, golden, perturbed)


@pytest.mark.parametrize("name", ["derive_power35.json", "derive_sqrt_no_derivative.json"])
def test_comparator_judges_residual_against_tolerance(name):
    # any such move is also far beyond the drift bound; the judgement
    # against residual_tol must be reported in its own right
    argv = ARGV[name]
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    perturbed = _json_edit(_residual_across_tolerance)(golden, parse_args(argv))
    problems = report_mismatches(argv, golden, perturbed)
    assert any("judged otherwise" in problem for problem in problems)


@pytest.mark.parametrize("name,argv,expected_exit", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
def test_regenerating_an_unchanged_run_keeps_the_file(name, argv, expected_exit):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == expected_exit
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert keep_accepted_numbers(argv, golden, out.getvalue()) == golden


def _move_inverted_value_within_bound(data, args):
    data["results"][4]["value"] += 0.5 * value_bounds(args, data)[4]
    return data


def test_regeneration_takes_only_the_numbers_that_moved_beyond_their_bound():
    argv = ARGV["derive_power35.json"]
    golden = (GOLDEN / "derive_power35.json").read_text(encoding="utf-8")
    within = _json_edit(_move_inverted_value_within_bound)(golden, parse_args(argv))
    assert within != golden
    assert keep_accepted_numbers(argv, golden, within) == golden
    # a residual moved 10x its bound is taken; the value moved within its
    # bound beside it is not
    beyond = _json_edit(_move_residual)(within, parse_args(argv))
    merged = keep_accepted_numbers(argv, golden, beyond)
    assert json.loads(merged)["residual"] == json.loads(beyond)["residual"]
    assert json.loads(merged)["results"] == json.loads(golden)["results"]


def test_regeneration_takes_a_new_structure_whole():
    argv = ARGV["derive_power35.json"]
    golden = (GOLDEN / "derive_power35.json").read_text(encoding="utf-8")
    reordered = _json_edit(_reorder_certificate)(golden, parse_args(argv))
    assert keep_accepted_numbers(argv, golden, reordered) == reordered
