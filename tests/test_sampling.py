"""The built-in Sobol generator: scipy agreement, literal points, order,
the dimension limit and the absence of scipy from the import graph."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magnomech import ScenarioError, build_system, parse_scenario
from magnomech.cli import main
from magnomech.sampling import MAX_DIMENSION, direction_numbers, sobol_points

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def unit_box(d):
    return np.array([[0.0, 1.0]] * d)


def test_matches_scipy_bit_for_bit():
    qmc = pytest.importorskip("scipy.stats").qmc
    for d in range(1, MAX_DIMENSION + 1):
        for m in range(11):
            expected = qmc.Sobol(d=d, scramble=False).random_base2(m)
            got = sobol_points(unit_box(d), 2**m)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), (d, m)


def test_first_points_in_three_dimensions():
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.75, 0.25, 0.25],
        [0.25, 0.75, 0.75],
        [0.375, 0.375, 0.625],
        [0.875, 0.875, 0.125],
        [0.625, 0.125, 0.875],
        [0.125, 0.625, 0.375],
    ])
    assert np.array_equal(sobol_points(unit_box(3), 8), expected)


@pytest.mark.parametrize("count", [1, 3, 50, 257])
def test_gray_code_order_for_any_count(count):
    d = 5
    v = direction_numbers(d)
    gray = [i ^ (i >> 1) for i in range(count)]
    by_definition = np.zeros((count, d), dtype=np.int64)
    for row, g in zip(by_definition, gray):
        for k in range(g.bit_length()):
            if (g >> k) & 1:
                row ^= v[:, k]
    got = sobol_points(unit_box(d), count)
    assert got.shape == (count, d)
    assert np.array_equal(got, by_definition / 2.0**30)
    box = np.array([[-1.5, 0.5], [0.0, 2.0], [-3.0, -1.0], [1.0, 4.0], [-0.5, 0.5]])
    scaled = sobol_points(box, count)
    assert np.array_equal(scaled, box[:, 0] + got * (box[:, 1] - box[:, 0]))


@pytest.mark.parametrize("count", [1, 3, 50, 257])
def test_non_power_of_two_counts_are_a_scipy_prefix(count):
    qmc = pytest.importorskip("scipy.stats").qmc
    m = max(1, (count - 1).bit_length())
    expected = qmc.Sobol(d=7, scramble=False).random_base2(m)[:count]
    assert np.array_equal(sobol_points(unit_box(7), count), expected)


def test_direction_numbers_are_cached_read_only():
    v = direction_numbers(4)
    assert v is direction_numbers(4)
    assert v.dtype == np.int64 and v.shape == (4, 30)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        direction_numbers(MAX_DIMENSION + 1)


def test_sobol_points_are_cached_read_only():
    """One (box, count) is computed once: the same read-only array comes
    back for the box as a list or an array, and writing into it raises."""
    box = [[-1.0, 0.5], [0.0, 2.0]]
    points = sobol_points(box, 9)
    assert points is sobol_points(np.array(box), 9)
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 1.0


def test_largest_dimension_parses_and_builds():
    assert MAX_DIMENSION == 40
    system = build_system(parse_scenario(json.dumps({"name": "wide", "n": 40})))
    assert system.n == 40


def test_dimension_above_the_table_is_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps({"name": "too-wide", "n": 41}))
    assert err.value.code == "bad_dimension"
    assert err.value.field == "n"


def test_dimension_above_the_table_exits_two(tmp_path, capsys):
    path = tmp_path / "too-wide.json"
    path.write_text(json.dumps({"name": "too-wide", "n": 41}))
    assert main(["check", "geometry", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["code"] == "bad_dimension"
    assert err["field"] == "n"


def test_import_and_build_do_not_load_scipy(scenario_dir):
    """Importing magnomech and building every shipped scenario loads
    neither scipy nor the step generator (kernel) and the check
    orchestration (stacked). Those load on first use: importing them
    eagerly made a fresh interpreter's set-up slower."""
    script = (
        "import sys, magnomech\n"
        "from pathlib import Path\n"
        "lazy = ('scipy', 'magnomech.kernel', 'magnomech.stacked')\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m in lazy or m.startswith('scipy.')]\n"
        "found = loaded()\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.json')):\n"
        "    magnomech.build_system(magnomech.load_scenario(path))\n"
        "print(sorted(set(found + loaded())))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", script, str(scenario_dir)],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
