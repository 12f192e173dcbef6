"""Config ingestion and the command-line driver: collecting validation,
deterministic outputs, exit codes."""

import argparse
import copy
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pfcontrol as pfc
import pfcontrol.cli as cli
from conftest import singular_factorizations
from pfcontrol import config, control, dynamics
from pfcontrol.config import (
    _Collector,
    build_field,
    config_digest,
    load_config,
    parse_config,
)


def base_config(**overrides):
    cfg = {
        "grid": {"cells": [16], "lengths": [1.0]},
        "time": {"horizon": 0.5, "steps": 8},
        "physics": {"visc": 0.0, "latent": 1.0, "coupling": 1.0},
        "potential": {"kind": "quartic"},
        "initial": {
            "theta": {"kind": "cosine", "amplitude": 0.1, "modes": [1]},
            "phi": {"kind": "cosine", "amplitude": 0.2, "modes": [1], "offset": 0.05},
        },
        "cost": {
            "w_theta": 1.0,
            "w_phi": 1.0,
            "w_theta_final": 0.5,
            "w_phi_final": 0.5,
            "theta_target": 0.1,
            "phi_target": 0.0,
            "theta_final_target": 0.05,
            "phi_final_target": 0.1,
        },
        "box": {"lower": -1.0, "upper": 1.0},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def config_file(tmp_path):
    def write(name="run.json", **overrides):
        path = tmp_path / name
        path.write_text(json.dumps(base_config(**overrides)))
        return str(path)

    return write


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(base_config())
        assert cfg.spec.grid.cells == (16,)
        assert cfg.spec.tgrid.steps == 8
        assert cfg.spec.potential.dw_convex_eff(np.array([2.0]))[0] == 8.0
        assert cfg.snapshot_stride == 0
        assert len(cfg.digest) == 64

    def test_digest_tracks_content(self):
        a = config_digest(base_config())
        b = config_digest(base_config())
        c = config_digest(base_config(time={"horizon": 0.5, "steps": 9}))
        assert a == b
        assert a != c

    def test_all_violations_reported_together(self):
        raw = base_config(
            potential={"kind": "logarithmic", "eps": 0.0},
            box={"lower": 2.0, "upper": -1.0},
            cost={"w_theta": -1.0},
        )
        raw["initial"] = {"phi": 0.0, "theta": 0.0}
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(raw)
        text = "\n".join(err.value.violations)
        assert "lower > upper" in text
        assert "viscosity" in text
        assert "cost.w_theta" in text

    def test_missing_sections_listed(self):
        with pytest.raises(pfc.ValidationError) as err:
            parse_config({})
        text = "\n".join(err.value.violations)
        for section in ("grid", "time", "initial"):
            assert section in text

    def test_log_potential_carries_eps(self):
        raw = base_config(potential={"kind": "logarithmic", "c": 2.0, "eps": 1.0e-3})
        raw["physics"] = {"visc": 1.0, "latent": 1.0, "coupling": 1.0}
        raw["initial"] = {"theta": 0.0, "phi": 0.1}
        cfg = parse_config(raw)
        assert cfg.spec.potential.is_singular
        assert cfg.spec.potential.yosida_eps == 1.0e-3

    def test_unknown_potential_kind(self):
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(base_config(potential={"kind": "sextic"}))
        assert any("potential.kind" in v for v in err.value.violations)

    def test_root_must_be_object(self):
        with pytest.raises(pfc.ParseError):
            parse_config([1, 2])

    def test_control_kinds(self):
        zeros = parse_config(base_config()).control
        assert not np.any(zeros)
        const = parse_config(
            base_config(control={"kind": "constant", "value": 0.25})
        ).control
        assert np.all(const == 0.25)
        rand_cfg = base_config(control={"kind": "random", "seed": 3})
        r1 = parse_config(rand_cfg).control
        r2 = parse_config(rand_cfg).control
        assert np.array_equal(r1, r2)
        assert np.all(r1 >= -1.0) and np.all(r1 <= 1.0)

    @pytest.mark.parametrize(
        "control",
        [
            {"kind": "zeros"},
            {"kind": "constant", "value": 0.25},
            {"kind": "random", "seed": 3},
            {"kind": "values", "values": np.full((8, 16), 0.5).tolist()},
        ],
        ids=["zeros", "constant", "random", "values"],
    )
    def test_control_built_once_read_only(self, control):
        # The control is built at parse time; every call hands out that
        # array, not a copy that would stay alive through a sweep.
        cfg = parse_config(base_config(control=control))
        u = cfg.control
        assert u.shape == (8, 16)
        assert u is cfg.initial_control()
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    def test_bad_control_values_shape(self):
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(base_config(control={"kind": "values", "values": [[1.0]]}))
        assert any("control.values" in v for v in err.value.violations)

    def test_snapshot_stride_parsed(self):
        cfg = parse_config(base_config(output={"snapshot_stride": 4}))
        assert cfg.snapshot_stride == 4

    def test_negative_control_seed_is_a_violation(self):
        # Seed 0 is the smallest seed NumPy accepts.
        cfg = parse_config(
            base_config(control={"kind": "random", "seed": 0}, optimize={"starts": [0]})
        )
        assert cfg.optimize.starts == (0,)
        assert cfg.control.shape == (8, 16)
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(base_config(control={"kind": "random", "seed": -3}))
        assert err.value.violations == ["control.seed: must be >= 0, got -3"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"control": {"kind": "random", "seed": 2}, "output": {"snapshot_stride": 2}},
            {"potential": {"kind": "quartic", "c": 2.0}, "grid": {"cells": [16], "size": 1}},
        ],
        ids=["valid", "unknown-keys"],
    )
    def test_config_is_not_mutated(self, overrides):
        # The readers pop keys from copies: config_digest(raw) and callers
        # that reuse raw see it as it was.
        raw = base_config(**overrides)
        before = copy.deepcopy(raw)
        try:
            parse_config(raw)
        except pfc.ValidationError:
            pass
        assert json.dumps(raw) == json.dumps(before)
        assert config_digest(raw) == config_digest(before)

    @pytest.mark.parametrize(
        "cells,message",
        [
            ([0.5], "grid.cells: expected integers, got [0.5]"),
            ([], "grid.cells: expected a list of 1 or 2 positive integers"),
        ],
        ids=["float", "empty"],
    )
    def test_bad_cells_do_not_orphan_lengths(self, cells, message):
        # lengths is taken even when cells is invalid, so it is not reported
        # as an unknown key on top of the cells violation.
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(base_config(grid={"cells": cells, "lengths": [1.0]}))
        assert err.value.violations == [message]

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration files")[1]
        example = section.split("```json\n")[1].split("```")[0]
        cfg = parse_config(json.loads(example))
        assert cfg.spec.grid.cells == (32,)
        assert cfg.snapshot_stride == 4

    def test_nested_values_list_holds_ncells_values(self):
        # Any nesting of ncells values is read in row-major order.
        phi = np.linspace(-0.5, 0.5, 16)
        raw = base_config(initial={"theta": 0.0, "phi": phi.reshape(2, 4, 2).tolist()})
        assert np.array_equal(parse_config(raw).spec.init.phi0, phi)

    def test_negative_start_seeds_are_violations(self):
        with pytest.raises(pfc.ValidationError) as err:
            parse_config(base_config(optimize={"starts": [2, -1, 0, -5]}))
        assert err.value.violations == [
            "optimize.starts: must be >= 0, got -1",
            "optimize.starts: must be >= 0, got -5",
        ]


def _parsed(raw: dict) -> str:
    """Everything a parsed run is made of, as text. The potential's c shows
    only in its values, so the remainder and effective convex slopes are
    sampled."""
    cfg = parse_config(raw)
    spec = cfg.spec
    pot, cost = spec.potential, spec.cost
    r = np.linspace(-0.9, 0.9, 7)
    targets = (*cost.running_targets(spec.grid, spec.tgrid), *cost.final_targets(spec.grid))
    bounds = spec.box.bounds((spec.tgrid.steps, spec.grid.ncells))
    return json.dumps(
        [
            spec.grid.cells,
            spec.grid.lengths,
            [spec.tgrid.horizon, spec.tgrid.steps],
            dataclasses.asdict(spec.physics),
            [pot.lo, pot.hi, pot.yosida_eps],
            pot.dw_rest(r).tolist(),
            pot.dw_convex_eff(r).tolist(),
            spec.init.theta0.tolist(),
            spec.init.phi0.tolist(),
            [cost.w_theta, cost.w_phi, cost.w_theta_final, cost.w_phi_final],
            [t.tolist() for t in targets],
            [b.tolist() for b in bounds],
            dataclasses.asdict(cfg.optimize),
            cfg.control.tolist(),
            cfg.snapshot_stride,
        ]
    )


# Per (section, key): the section without the key, or with a value that
# needs it, and the section with the key set to a valid non-default value.
_KEY_CHANGES = {
    ("grid", "cells"): ({"cells": [16]}, {"cells": [12]}),
    ("grid", "lengths"): ({"cells": [16]}, {"cells": [16], "lengths": [2.0]}),
    ("time", "horizon"): ({"horizon": 0.5, "steps": 8}, {"horizon": 0.7, "steps": 8}),
    ("time", "steps"): ({"horizon": 0.5, "steps": 8}, {"horizon": 0.5, "steps": 6}),
    ("physics", "visc"): ({}, {"visc": 0.5}),
    ("physics", "latent"): ({}, {"latent": 0.8}),
    ("physics", "coupling"): ({}, {"coupling": 0.8}),
    ("potential", "kind"): ({}, {"kind": "logarithmic"}),
    ("potential", "c"): ({"kind": "logarithmic"}, {"kind": "logarithmic", "c": 3.0}),
    ("potential", "eps"): ({}, {"eps": 1.0e-3}),
    ("initial", "theta"): ({"phi": 0.1}, {"phi": 0.1, "theta": 0.2}),
    ("initial", "phi"): ({"theta": 0.2}, {"theta": 0.2, "phi": 0.1}),
    **{
        ("cost", key): ({}, {key: 0.3})
        for key in ("w_theta", "w_phi", "w_theta_final", "w_phi_final", "theta_target",
                    "phi_target", "theta_final_target", "phi_final_target")
    },
    ("box", "lower"): ({}, {"lower": -0.5}),
    ("box", "upper"): ({}, {"upper": 0.5}),
    ("optimize", "stat_tol"): ({}, {"stat_tol": 1.0e-4}),
    ("optimize", "max_iter"): ({}, {"max_iter": 7}),
    ("optimize", "starts"): ({}, {"starts": [1]}),
    ("control", "kind"): ({}, {"kind": "random"}),
    ("control", "value"): ({"kind": "constant"}, {"kind": "constant", "value": 0.3}),
    ("control", "seed"): ({"kind": "random"}, {"kind": "random", "seed": 4}),
    ("control", "values"): (
        {"kind": "values", "values": np.zeros((8, 16)).tolist()},
        {"kind": "values", "values": np.full((8, 16), 0.3).tolist()},
    ),
    ("output", "snapshot_stride"): ({}, {"snapshot_stride": 2}),
}


def _documented_keys() -> set:
    """(section, key) pairs of the section table in the config module's
    docstring: each quoted name followed by a colon, under the section named
    at the start of its row."""
    table = config.__doc__.split("marked required):\n\n")[1].split("\n\n")[0]
    keys = set()
    for line in table.splitlines():
        if not line.startswith(" " * 5):
            section = line.split()[0]
        keys |= {(section, key) for key in re.findall(r'"(\w+)":', line)}
    return keys


def test_key_changes_cover_every_known_key():
    # The readers are the config's only list of keys; the docstring's table
    # documents them, and _KEY_CHANGES gives each one a change that
    # test_every_known_key_is_honoured checks.
    documented = _documented_keys()
    assert len(documented) == 30
    assert set(_KEY_CHANGES) == documented


@pytest.mark.parametrize("section,key", sorted(_KEY_CHANGES))
def test_every_known_key_is_honoured(section, key):
    # A key the parser accepts must change the parsed run, or be removed.
    # Unit viscosity keeps the logarithmic kind valid in exact mode.
    without, with_key = _KEY_CHANGES[section, key]
    raw = base_config(physics={"visc": 1.0, "latent": 1.0, "coupling": 1.0})
    assert _parsed({**raw, section: without}) != _parsed({**raw, section: with_key})


class TestBuildField:
    def test_scalar_and_list(self):
        grid = pfc.Grid(4)
        errs = _Collector()
        assert build_field(0.5, grid, "f", errs) == 0.5
        assert np.array_equal(
            build_field([1.0, 2.0, 3.0, 4.0], grid, "f", errs), [1.0, 2.0, 3.0, 4.0]
        )
        assert errs.errors == []

    def test_cosine_matches_manual(self):
        grid = pfc.Grid(8, 2.0)
        errs = _Collector()
        values = build_field(
            {"kind": "cosine", "amplitude": 0.3, "modes": [2], "offset": 0.1},
            grid,
            "f",
            errs,
        )
        x = grid.coords()[:, 0]
        assert np.allclose(values, 0.3 * np.cos(2 * np.pi * x / 2.0) + 0.1, atol=1e-15)
        assert errs.errors == []

    def test_wrong_length_recorded(self):
        grid = pfc.Grid(4)
        errs = _Collector()
        build_field([1.0, 2.0], grid, "initial.phi", errs)
        assert any("initial.phi" in e for e in errs.errors)

    def test_unknown_kind_recorded(self):
        grid = pfc.Grid(4)
        errs = _Collector()
        build_field({"kind": "sawtooth"}, grid, "f", errs)
        assert any("sawtooth" in e for e in errs.errors)

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"kind": "constant", "value": 0.3, "offset": 0.1}, "offset"),
            ({"kind": "values", "values": [0.0, 1.0, 2.0, 3.0], "modes": [1]}, "modes"),
            ({"kind": "cosine", "amplitud": 0.3}, "amplitud"),
        ],
        ids=["constant", "values", "cosine"],
    )
    def test_unknown_key_recorded(self, entry, key):
        # A key the kind does not read (a typo, or another kind's key) is a
        # violation, not a silently applied default.
        errs = _Collector()
        build_field(entry, pfc.Grid(4), "initial.theta", errs)
        assert errs.errors == [f"initial.theta.{key}: unknown key"]

    def test_time_indexed_values_need_steps(self):
        grid = pfc.Grid(4)
        entry = {"kind": "values", "values": np.arange(12.0).reshape(3, 4).tolist()}
        errs = _Collector()
        assert build_field(entry, grid, "cost.theta_target", errs, steps=3).shape == (3, 4)
        assert errs.errors == []
        build_field(entry, grid, "cost.theta_target", errs)
        assert errs.errors == ["cost.theta_target.values: shape (3, 4), expected (4,)"]


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(pfc.ParseError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(pfc.ParseError):
            load_config(path)


_VALUES = np.zeros((8, 16)).tolist()


class TestCliSolve:
    def test_stdout_report(self, config_file, capsys):
        code, out, err = run_cli(["solve", "--config", config_file()], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "solve"
        assert len(payload["times"]) == 9
        means = payload["phase_mean"]
        assert max(abs(m - means[0]) for m in means) <= 1.0e-13
        assert "steps" in err

    def test_byte_identical_reruns(self, config_file, tmp_path, capsys):
        cfg = config_file(output={"snapshot_stride": 4})
        for d in ("a", "b"):
            for argv in (["solve"], ["adjoint", "--seed", "3"]):
                code, _, _ = run_cli(
                    argv + ["--config", cfg, "--out", str(tmp_path / d)], capsys
                )
                assert code == 0
        for name in (
            "solve_report.json",
            "solve_timeseries.csv",
            "solve_snapshots.csv",
            "adjoint_report.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_csv_outputs_carry_digest(self, config_file, tmp_path, capsys):
        cfg = config_file(output={"snapshot_stride": 2})
        code, _, _ = run_cli(
            ["solve", "--config", cfg, "--out", str(tmp_path / "r")], capsys
        )
        assert code == 0
        digest = json.loads((tmp_path / "r" / "solve_report.json").read_text())[
            "config_digest"
        ]
        ts = (tmp_path / "r" / "solve_timeseries.csv").read_text().splitlines()
        snaps = (tmp_path / "r" / "solve_snapshots.csv").read_text().splitlines()
        assert ts[0] == f"# config_digest={digest}"
        assert snaps[0] == f"# config_digest={digest}"
        assert ts[1].startswith("level,time,phase_mean,energy")
        assert snaps[1] == "level,time,x,theta,phi"
        # every stored level contributes one row per cell
        assert len(snaps) == 2 + 5 * 16

    def test_invalid_config_exits_2_listing_everything(self, tmp_path, capsys):
        raw = base_config(
            potential={"kind": "logarithmic", "eps": 0.0},
            box={"lower": 2.0, "upper": -1.0},
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(["solve", "--config", str(path)], capsys)
        assert code == 2
        assert err.count("config error:") >= 2
        assert "lower > upper" in err
        assert "viscosity" in err

    @pytest.mark.parametrize(
        "overrides,entry,message",
        [
            ({"control": "@"}, '{"kind": "constant", "value": "abc"}',
             "control.value: expected a number, got 'abc'"),
            ({"control": "@"}, '{"kind": "constant", "value": 1e400}',
             "control.value: must be finite"),
            ({"control": "@"}, '{"kind": "values", "values": [["a"]]}',
             "control.values: expected a list of numbers"),
            ({"initial": {"theta": "@", "phi": 0.1}}, '{"kind": "constant", "value": "x"}',
             "initial.theta.value: expected a number, got 'x'"),
            ({"cost": {"theta_target": "@"}}, '{"kind": "values", "values": [[1, 2], [3]]}',
             "cost.theta_target.values: expected a list of numbers"),
            ({"cost": {"theta_target": "@"}}, '{"kind": "cosine", "amplitude": "big", "modes": [1]}',
             "cost.theta_target.amplitude: expected a number, got 'big'"),
            ({"cost": {"theta_target": "@"}}, "1e400", "cost.theta_target: must be finite"),
            ({"box": {"lower": "@"}, "control": {"kind": "random", "seed": 1}}, "-1e400",
             "box.lower: must be finite"),
            ({"box": {"lower": "@"}}, '"x"', "box.lower: expected a number, got 'x'"),
            ({"initial": {"theta": "@", "phi": 0.1}}, '{"kind": "cosine", "amplitud": 0.3}',
             "initial.theta.amplitud: unknown key"),
            ({"grid": {"cells": [16], "lengths": "@"}, "control": {"kind": "random", "seed": 1}},
             "[1e400]", "grid.lengths: must be finite"),
            ({"grid": {"cells": [16], "lengths": "@"}}, "[true]",
             "grid.lengths: expected a list of numbers"),
            ({"grid": {"cells": [16], "lengths": "@"}}, '["2"]',
             "grid.lengths: expected a list of numbers"),
            ({"grid": {"cells": [16], "lengths": "@"}}, "2.0",
             "grid.lengths: expected a list of numbers"),
        ],
        ids=["control-value-text", "control-value-overflow", "control-values-text",
             "initial-value-text", "target-values-ragged", "target-amplitude-text",
             "target-overflow", "box-overflow-random-control", "box-text",
             "initial-field-unknown-key", "grid-length-overflow-random-control",
             "grid-length-bool", "grid-length-text", "grid-length-bare-number"],
    )
    def test_bad_field_values_exit_2(self, tmp_path, capsys, overrides, entry, message):
        # JSON reads 1e400 as inf. Each bad value is one violation at its key
        # path, not a traceback, a frozen state or a mislabelled key.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(**overrides)).replace('"@"', entry))
        code, out, err = run_cli(["solve", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"time": {"horizon": 0.5, "steps": 1.5}}, "time.steps: expected an integer, got 1.5"),
            ({"physics": 3}, "physics: expected an object, got int"),
            ({"grid": {"cells": [1]}}, "grid: need at least 2 cells per axis, got (1,)"),
            ({"optimize": {"starts": 3}},
             "optimize.starts: expected a list of integer seeds, got 3"),
            ({"control": {"kind": "sine"}},
             "control.kind: expected one of ('zeros', 'constant', 'random', 'values'), got 'sine'"),
        ],
        ids=["fractional-steps", "section-not-object", "one-cell", "starts-not-list",
             "control-kind"],
    )
    def test_bad_section_values_exit_2(self, config_file, capsys, overrides, message):
        code, out, err = run_cli(["solve", "--config", config_file(**overrides)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"config error: {message}"]

    def test_unknown_keys_exit_2(self, config_file, capsys):
        # A removed option and a typo are rejected, not silently ignored.
        cfg = config_file(
            optimize={"stat_tol": 1e-4, "fd_check": True},
            physics={"visc": 0.0, "latnet": 1.0},
            optimise={"max_iter": 3},
        )
        code, _, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 2
        assert "config error: optimize.fd_check: unknown key" in err
        assert "config error: physics.latnet: unknown key" in err
        assert "config error: optimise: unknown section" in err
        # A key that only another kind of its section reads is not honoured,
        # so it is rejected too.
        code, _, err = run_cli(
            ["solve", "--config", config_file(potential={"kind": "quartic", "c": 2.0})], capsys
        )
        assert code == 2
        assert err.splitlines() == ["config error: potential.c: unknown key"]

    @pytest.mark.parametrize(
        "section,entry,key",
        [
            ("potential", {"kind": "quartic", "c": 3.0}, "c"),
            ("potential", {"kind": "loglinear", "eps": 1.0e-3, "c": 3.0}, "c"),
            ("control", {"kind": "zeros", "value": 0.3}, "value"),
            ("control", {"kind": "random", "value": 0.3}, "value"),
            ("control", {"kind": "values", "values": _VALUES, "value": 0.3}, "value"),
            ("control", {"kind": "zeros", "seed": 4}, "seed"),
            ("control", {"kind": "constant", "seed": 4}, "seed"),
            ("control", {"kind": "values", "values": _VALUES, "seed": 4}, "seed"),
            ("control", {"kind": "zeros", "values": _VALUES}, "values"),
            ("control", {"kind": "constant", "values": _VALUES}, "values"),
            ("control", {"kind": "random", "values": _VALUES}, "values"),
        ],
        ids=lambda v: v if isinstance(v, str) else v["kind"],
    )
    def test_key_of_another_kind_exits_2(self, config_file, capsys, section, entry, key):
        # The chosen kind does not read the key, so the run would not honour it.
        cfg = config_file(**{section: entry})
        code, out, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"config error: {section}.{key}: unknown key"]

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"physics": {"visc": 0.0}, "physics": {"visc": 1.0}}', "physics"),
            ('{"physics": {"latent": 1.0, "latent": 0.5}}', "latent"),
        ],
        ids=["section", "section-key"],
    )
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, key):
        # The last copy would silently win, and the digest could not tell
        # the two files apart.
        body = json.dumps({k: v for k, v in base_config().items() if k != "physics"})
        path = tmp_path / "dup.json"
        path.write_text(text[:-1] + ", " + body[1:])
        with pytest.raises(pfc.ParseError):
            load_config(path)
        code, out, err = run_cli(["solve", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"config error: duplicate key {key!r}"]

    @pytest.mark.parametrize("key", ["armijo_sigma", "max_backtracks", "initial_step"])
    def test_removed_optimizer_keys_exit_2(self, config_file, capsys, key):
        cfg = config_file(optimize={"stat_tol": 1e-4, key: 1.0e-4})
        code, _, err = run_cli(["optimize", "--config", cfg], capsys)
        assert code == 2
        assert f"config error: optimize.{key}: unknown key" in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_exits_2_before_solving(
        self, config_file, tmp_path, capsys, under
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out_path = blocker / "sub" if under else blocker
        argv = ["solve", "--config", config_file(), "--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: --out {out_path}: ")
        assert "solve:" not in err and "Traceback" not in err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["solve", "--config", str(tmp_path / "none.json")], capsys
        )
        assert code == 2
        assert "config error:" in err

    def test_solver_section_exits_2(self, config_file, capsys):
        # The Newton settings are constants of the dynamics module.
        cfg = config_file(solver={"newton_max_iter": 1})
        code, _, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 2
        assert "config error: solver: unknown section" in err

    def test_solver_failure_exits_1(self, config_file, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1)
        cfg = config_file(control={"kind": "random", "seed": 1})
        code, _, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "solver error:" in err

    def test_newton_failure_names_its_step(self, config_file, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_NEWTON_MAX_ITER", 1)
        code, _, err = run_cli(["solve", "--config", config_file()], capsys)
        assert code == 1
        assert "solver error: time step 1 of 8" in err
        assert "Newton iteration 1" in err

    @pytest.mark.parametrize("cells", [[16], [6, 5]], ids=["band", "schur"])
    def test_singular_step_operator_exits_1(self, cells, config_file, capsys, monkeypatch):
        singular_factorizations(monkeypatch)
        grid = {"cells": cells, "lengths": [1.0] * len(cells)}
        modes = [1] * len(cells)
        initial = {
            "theta": {"kind": "cosine", "amplitude": 0.1, "modes": modes},
            "phi": {"kind": "cosine", "amplitude": 0.2, "modes": modes, "offset": 0.05},
        }
        cfg = config_file(grid=grid, initial=initial)
        code, _, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "solver error:" in err and "exactly singular" in err


class TestCliDerivatives:
    def test_tangent_report(self, config_file, capsys):
        # The adjoint report carries the tangent along its seeded direction.
        code, out, _ = run_cli(
            ["adjoint", "--config", config_file(), "--seed", "2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["y_norm"] > 0.0
        assert payload["max_dphi_mean"] <= 1.0e-12
        # base_config has 8 time steps: levels 0..8.
        assert len(payload["dtheta_norms"]) == len(payload["dphi_norms"]) == 9

    def test_adjoint_duality_in_report(self, config_file, capsys):
        code, out, _ = run_cli(
            ["adjoint", "--config", config_file(), "--seed", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["duality_rel_gap"] <= 1.0e-8
        assert payload["gradient_lq_norm"] > 0.0

    def test_gradcheck_passes(self, config_file, capsys):
        argv = ["gradcheck", "--config", config_file(), "--directions", "2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["measured"]["max_rel_error"] <= 1.0e-6
        assert set(payload["measured"]) == {"delta", "directions", "max_rel_error"}
        for direction in payload["measured"]["directions"]:
            assert set(direction) == {"fd_value", "fd_error_estimate", "adjoint_value", "rel_error"}
        assert run_cli(argv, capsys)[1] == out

    def test_gradcheck_unreachable_tol_exits_3(self, config_file, capsys):
        code, out, _ = run_cli(
            [
                "gradcheck",
                "--config",
                config_file(),
                "--directions",
                "1",
                "--tol",
                "1e-16",
            ],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
    def test_gradcheck_meaningless_tol_exits_2(self, config_file, capsys, tol):
        # inf would pass every gradient, 0 or below fail every one, and nan
        # fail without saying why.
        code, out, err = run_cli(
            ["gradcheck", "--config", config_file(), "--directions", "1", "--tol", tol],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"argument --tol: must be finite and > 0, got {tol}" in err


class TestCliOptimize:
    def test_zero_cost_zero_iterations(self, config_file, capsys):
        cfg = config_file(cost={})
        code, out, _ = run_cli(["optimize", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["termination"] == "stationary"
        assert payload["iterations"] == 0

    def test_iteration_cap_exits_1(self, config_file, capsys):
        cfg = config_file(optimize={"max_iter": 2, "stat_tol": 1.0e-12})
        code, out, _ = run_cli(["optimize", "--config", cfg], capsys)
        assert code == 1
        assert json.loads(out)["termination"] == "max_iterations"

    def test_a_failing_start_exits_1(self, config_file, capsys, monkeypatch):
        # The starts march two at a time; a state solve that fails in the
        # third round ends the run in its solver error.
        rounds, batch = [], control.solve_states
        message = "time step 2 of 8, Newton iteration 3: non-finite step"

        def failing(controls, spec):
            rounds.append(len(controls))
            if len(rounds) == 3:
                raise pfc.NewtonDivergence(message)
            return batch(controls, spec)

        monkeypatch.setattr(control, "solve_states", failing)
        cfg = config_file(optimize={"stat_tol": 1.0e-4, "starts": [1, 2]})
        code, out, err = run_cli(["optimize", "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"solver error: {message}"]
        assert rounds == [2, 2, 2]

    def test_out_directory_artifacts(self, config_file, tmp_path, capsys):
        cfg = config_file(optimize={"max_iter": 3, "stat_tol": 1.0e-12})
        out_dir = tmp_path / "opt"
        code, _, _ = run_cli(
            ["optimize", "--config", cfg, "--out", str(out_dir)], capsys
        )
        assert code == 1
        history = (out_dir / "optimize_history.csv").read_text().splitlines()
        assert history[0].startswith("# config_digest=")
        assert history[1] == "iteration,j,residual,evaluations"
        assert len(history) == 2 + 4
        report = json.loads((out_dir / "optimize_report.json").read_text())
        assert len(report["evaluations_history"]) == len(report["j_history"]) - 1 == 3
        assert history[2].endswith(",") and [
            int(row.rsplit(",", 1)[1]) for row in history[3:]
        ] == report["evaluations_history"]
        control = json.loads((out_dir / "control.json").read_text())
        assert control["shape"] == [8, 16]


class TestCliProbe:
    def test_energy_probe(self, config_file, capsys):
        code, out, _ = run_cli(
            ["probe", "--config", config_file(), "--name", "energy", "--steps", "32"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "energy_decay"
        assert payload["passed"] is True
        assert set(payload) == {"name", "seed", "measured", "thresholds", "passed", "config_digest"}
        assert payload["config_digest"] == load_config(config_file()).digest

    def test_separation_probe_on_log_config(self, config_file, capsys):
        cfg = config_file(
            potential={"kind": "logarithmic", "c": 2.0},
            physics={"visc": 1.0, "latent": 1.0, "coupling": 1.0},
            initial={"theta": 0.0, "phi": {"kind": "cosine", "amplitude": 0.2, "modes": [1]}},
        )
        code, out, _ = run_cli(
            ["probe", "--config", cfg, "--name", "separation", "--samples", "2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["measured"]["min_margin"] > 0.0

    @pytest.mark.parametrize("name", ["separation", "refinement"])
    def test_a_failing_control_of_a_probe_batch_exits_1(
        self, config_file, capsys, monkeypatch, name
    ):
        # One of the batch's controls stalls the exact log well; the probe
        # ends in that control's own solver error, like a solo march.
        cfg = config_file(
            potential={"kind": "logarithmic", "c": 2.0},
            physics={"visc": 1.0, "latent": 1.0, "coupling": 1.0},
            initial={"theta": 0.0, "phi": {"kind": "cosine", "amplitude": 0.2, "modes": [1]}},
        )
        spec = load_config(cfg).spec
        big = 1.0e4 * np.random.default_rng(1).uniform(-1.0, 1.0, (8, 16))
        with pytest.raises(pfc.NewtonDivergence) as solo:
            pfc.solve_state(big, spec)
        draws = iter([np.zeros((8, 16)), big, np.zeros((8, 16)), np.full((8, 16), 0.5)])
        monkeypatch.setattr(pfc.harness, "random_admissible_control", lambda spec, rng: next(draws))
        code, out, err = run_cli(
            ["probe", "--config", cfg, "--name", name, "--samples", "2"], capsys
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"solver error: {solo.value}"]

    @pytest.mark.parametrize("name", ["refinement"])
    def test_lipschitz_probes_without_distinct_pairs_pass(self, config_file, capsys, name):
        # A box of one point makes every sampled pair of controls the same.
        cfg = config_file(
            grid={"cells": [8]},
            time={"horizon": 0.5, "steps": 4},
            box={"lower": 0.2, "upper": 0.2},
        )
        code, out, _ = run_cli(["probe", "--config", cfg, "--name", name, "--samples", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["measured"] == {"n_pairs": 0}
        assert payload["passed"] is True

    def test_unknown_probe_name_exits_2(self, config_file, capsys):
        code, _, err = run_cli(
            ["probe", "--config", config_file(), "--name", "entropy"], capsys
        )
        assert code == 2
        assert "invalid choice" in err

    @pytest.mark.parametrize(
        "argv",
        [["tangent"], ["probe", "--name", "lipschitz"]],
        ids=["tangent", "probe-lipschitz"],
    )
    def test_folded_surfaces_are_gone(self, config_file, capsys, argv):
        # The adjoint report carries the tangent, and the refinement probe
        # the coarse Lipschitz ratios.
        code, out, err = run_cli(argv + ["--config", config_file()], capsys)
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

    def test_gradient_probe_is_gone(self, config_file, capsys):
        # The FD gradient check runs under the gradcheck command only.
        code, _, err = run_cli(
            ["probe", "--config", config_file(), "--name", "gradient"], capsys
        )
        assert code == 2
        assert "invalid choice: 'gradient'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "--name", "separation", "--samples", "0"],
            ["probe", "--name", "refinement", "--samples", "0"],
            ["probe", "--name", "energy", "--steps", "0"],
            ["gradcheck", "--directions", "0"],
            ["probe", "--name", "separation", "--samples", "-3"],
            ["adjoint", "--seed", "-1"],
            ["gradcheck", "--seed", "-1"],
            ["probe", "--name", "frechet", "--seed", "-1"],
        ],
        ids=["separation-samples-0", "refinement-samples-0", "energy-steps-0",
             "gradcheck-directions-0", "separation-samples-minus-3",
             "adjoint-seed-minus-1", "gradcheck-seed-minus-1",
             "probe-seed-minus-1"],
    )
    def test_count_below_one_exits_2(self, config_file, capsys, argv):
        # A count below 1 samples nothing: the probes would fail on empty
        # data or pass vacuously. A seed below 0 is no seed NumPy accepts.
        cfg = config_file(
            potential={"kind": "logarithmic", "c": 2.0},
            physics={"visc": 1.0, "latent": 1.0, "coupling": 1.0},
            initial={"theta": 0.0, "phi": {"kind": "cosine", "amplitude": 0.2, "modes": [1]}},
        )
        code, out, err = run_cli(argv + ["--config", cfg], capsys)
        assert code == 2
        assert out == ""
        minimum = 0 if argv[-2] == "--seed" else 1
        assert f"argument {argv[-2]}: must be at least {minimum}, got {argv[-1]}" in err


class TestCliMisc:
    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--output", "r.json"]
              for command in ("solve", "adjoint", "gradcheck", "optimize")),
            ["probe", "--name", "energy", "--output", "r.json"],
            ["solve", "--csv", "t.csv"],
            ["optimize", "--control-output", "c.json"],
        ],
        ids=["solve-output", "adjoint-output", "gradcheck-output",
             "optimize-output", "probe-output", "solve-csv", "optimize-control-output"],
    )
    def test_removed_output_flags_exit_2(self, config_file, capsys, argv):
        # Reports go to stdout or into --out DIR, which writes every file
        # these flags used to redirect.
        code, out, err = run_cli(argv + ["--config", config_file()], capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @staticmethod
    def _readme_command_line():
        """The README's "Command line" section, the parser, and the parsers of
        its subcommands by name."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return section, parser, sub.choices

    def test_readme_command_line_flags_exist(self):
        # Every flag the README's command-line section names is accepted by
        # the top-level parser or some subcommand.
        section, parser, subparsers = self._readme_command_line()
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        accepted = {
            flag
            for p in (parser, *subparsers.values())
            for action in p._actions
            for flag in action.option_strings
        }
        assert "--config" in named
        assert named <= accepted, sorted(named - accepted)

    def test_readme_command_line_names_match_parser(self):
        # The section's command block shows every subcommand and no other,
        # and its probe --name list is the parser's.
        section, _, subparsers = self._readme_command_line()
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        shown = {line.split()[1] for line in block.splitlines() if line.startswith("pfcontrol ")}
        assert shown == set(subparsers)
        names = re.search(r"`probe --name \{([^}]*)\}`", section).group(1)
        assert {n.strip() for n in names.split(",")} == set(cli._PROBES)

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run_cli(["simulate"], capsys)
        assert code == 2
        assert "usage" in err

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert pfc.__version__ in out

    def test_module_entry_point(self, config_file):
        proc = subprocess.run(
            [sys.executable, "-m", "pfcontrol", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert pfc.__version__ in proc.stdout
