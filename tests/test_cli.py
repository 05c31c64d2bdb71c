"""CLI contract: determinism, schemas, and exit codes."""

from __future__ import annotations

import filecmp
import json

import pytest

from levyrates.cli import config_hash, main

FIG1 = "configs/fig1_gbm.json"
FIG5_JD = "configs/fig5_jd_surface.json"


def _model_block():
    return {
        "curve": {"form": "flat", "yield": 0.03},
        "family": {"family": "jd", "lambda": 5.0, "mu": 0.0, "delta": 1.0},
        "phi": {"c": 1.0, "b": 0.02},
    }


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- determinism ----------------------------------------------------------------


def test_simulate_runs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", FIG1, "--seed", "7", "--out", a]) == 0
    assert main(["simulate", "--config", FIG1, "--seed", "7", "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    lines = open(a).read().splitlines()
    assert lines[3] == "time,X,bond_price_to_T,short_rate"
    assert any("config_hash=" in ln and "seed=7" in ln for ln in lines[:3])
    first = lines[4].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert 0.0 < float(first[2]) < 1.0 and float(first[3]) > 0.0
    # the bond pays out exactly at its maturity
    last = lines[-1].split(",")
    assert float(last[2]) == 1.0


def test_simulate_seed_changes_the_path(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", FIG1, "--seed", "1", "--out", a]) == 0
    assert main(["simulate", "--config", FIG1, "--seed", "2", "--out", b]) == 0
    assert not filecmp.cmp(a, b, shallow=False)


def test_surface_output_deterministic(tmp_path):
    doc = dict(_model_block())
    doc["surface"] = {
        "bond_maturity": 5.0,
        "expiries": [0.5, 1.0, 2.0],
        "strikes": [0.82, 0.88, 0.93],
    }
    cfg = _write(tmp_path, "surface.json", doc)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["surface", "--config", cfg, "--out", a]) == 0
    assert main(["surface", "--config", cfg, "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    lines = open(a).read().splitlines()
    assert lines[4] == "expiry,strike,price,status,xi_star,residual"
    rows = lines[5:]
    assert len(rows) == 9
    assert all(row.split(",")[3] == "ok" for row in rows)


def test_bench_output_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["bench", "--out", a]) == 0
    assert main(["bench", "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    stdout = capsys.readouterr().out
    assert "ms/price" in stdout and "slowest:" in stdout
    lines = open(a).read().splitlines()
    assert lines[3] == "family,expiry,maturity,strike,price"
    assert len(lines) == 4 + 400  # 100 prices for each of the four families


# -- schemas ----------------------------------------------------------------------


def test_price_json_schema(tmp_path):
    out = str(tmp_path / "price.json")
    assert main(["price", "--config", FIG1, "--seed", "3", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert set(doc) == {
        "config_hash",
        "seed",
        "state",
        "bonds",
        "short_rate",
        "forwards",
        "risk_aversion",
        "risk_premiums",
        "options",
    }
    assert doc["seed"] == 3
    assert doc["state"] == {"t": 1.0, "xi": 0.1}
    assert [b["maturity"] for b in doc["bonds"]] == [2.0, 3.0, 5.0, 7.0, 10.0]
    prices = [b["price"] for b in doc["bonds"]]
    assert all(0.0 < p < 1.0 for p in prices) and prices == sorted(prices, reverse=True)
    assert doc["short_rate"] > 0.0
    assert all(f["rate"] > 0.0 for f in doc["forwards"])
    assert all(p["premium"] > 0.0 for p in doc["risk_premiums"])
    for entry in doc["options"]:
        assert entry["status"] == "ok"
        assert entry["residual"] <= 1e-12
        assert entry["price"] > 0.0


def test_price_mc_columns(tmp_path):
    out = str(tmp_path / "price.json")
    assert main(["price", "--config", FIG1, "--mc", "--paths", "50000", "--out", out]) == 0
    doc = json.loads(open(out).read())
    checked = 0
    for entry in doc["options"]:
        se = entry["mc_std_error"]
        if se > 0.0:
            assert abs(entry["mc_price"] - entry["price"]) <= 4.0 * se
            checked += 1
        else:
            # a strike so far out of the money that no path paid off; the
            # closed form must agree that the option is nearly worthless
            assert entry["mc_price"] == 0.0
            assert entry["price"] < 1e-3
    assert checked >= 2


def test_surface_mc_columns(tmp_path):
    doc = dict(_model_block())
    doc["surface"] = {"bond_maturity": 5.0, "expiries": [1.0], "strikes": [0.85]}
    cfg = _write(tmp_path, "surface.json", doc)
    out = str(tmp_path / "s.csv")
    assert main(["surface", "--config", cfg, "--mc", "--paths", "20000", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[4].endswith("mc_price,mc_std_error")
    vals = lines[5].split(",")
    assert abs(float(vals[6]) - float(vals[2])) <= 4.0 * float(vals[7])


def test_validate_passes_on_shipped_config(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    code = main(["validate", "--config", FIG1, "--paths", "20000", "--out", out])
    assert code == 0
    assert "OK: report written" in capsys.readouterr().out
    text = open(out).read()
    assert "FAIL" not in text.replace("FAILED", "")  # no individual check failed
    assert "OK:" in text


def test_config_hash_tracks_content_and_seed():
    cfg = {"a": 1}
    assert config_hash(cfg, 0) != config_hash(cfg, 1)
    assert config_hash({"a": 2}, 0) != config_hash(cfg, 0)
    assert len(config_hash(cfg, 0)) == 16


# -- exit codes --------------------------------------------------------------------


def test_exit_1_missing_config_file(capsys):
    assert main(["price", "--config", "does_not_exist.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_1_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["price", "--config", str(p)]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_1_non_object_config(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    assert main(["price", "--config", str(p)]) == 1


def test_exit_1_unknown_family(tmp_path):
    doc = _model_block()
    doc["family"] = {"family": "cauchy"}
    doc["price"] = {"t": 1.0, "xi": 0.0, "maturities": [2.0]}
    assert main(["price", "--config", _write(tmp_path, "c.json", doc)]) == 1


def test_exit_1_model_rejected(tmp_path, capsys):
    # gamma exponent pole at 2 is breached by phi(0) = 3
    doc = {
        "curve": {"form": "flat", "yield": 0.02},
        "family": {"family": "gamma", "m": 1.0, "kappa": 0.5},
        "phi": {"c": 3.0, "b": 0.02},
        "price": {"t": 1.0, "xi": 0.5, "maturities": [2.0]},
    }
    assert main(["price", "--config", _write(tmp_path, "c.json", doc)]) == 1
    assert "model rejected" in capsys.readouterr().err


def test_exit_1_missing_command_block(tmp_path):
    doc = _model_block()
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc)]) == 1


def test_exit_1_bad_flag_values(tmp_path):
    cfg = _write(tmp_path, "c.json", _model_block())
    assert main(["price", "--config", cfg, "--seed", "-1"]) == 1
    assert main(["price", "--config", cfg, "--paths", "10"]) == 1


def test_exit_2_quadrature_budget_exhausted(tmp_path, capsys):
    # a tolerance the panel budget cannot reach: the run must fail loudly
    # with the numerical exit code, not return a degraded price
    doc = _model_block()
    doc["quadrature"] = {"rel_tol": 1e-15, "max_subdivisions": 5}
    doc["price"] = {"t": 1.0, "xi": 0.2, "maturities": [3.0]}
    assert main(["price", "--config", _write(tmp_path, "c.json", doc)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_exit_3_validation_failure(tmp_path):
    doc = _model_block()
    doc["curve"] = {"form": "flat", "yield": -0.01}
    out = str(tmp_path / "report.txt")
    code = main(["validate", "--config", _write(tmp_path, "c.json", doc), "--out", out])
    assert code == 3
    text = open(out).read()
    assert "FAIL" in text and "curve_" in text
    assert "model checks skipped" in text


def test_simulate_rejects_horizon_overrun(tmp_path):
    doc = _model_block()
    doc["simulate"] = {"maturity": 10_000.0, "steps": 10}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc)]) == 1


# -- config boundary -----------------------------------------------------------------


def _boundary_config():
    """A small valid config with every block each subcommand reads."""
    doc = _model_block()
    doc["quadrature"] = {"rel_tol": 1e-10, "tail_epsilon": 1e-12, "max_subdivisions": 2000}
    doc["price"] = {
        "t": 1.0,
        "xi": 0.1,
        "maturities": [2.0],
        "forward_maturities": [2.0],
        "premium_maturities": [2.0],
        "options": [{"expiry": 1.0, "maturity": 3.0, "strike": 0.95}],
    }
    doc["simulate"] = {"maturity": 1.0, "steps": 4}
    doc["surface"] = {"bond_maturity": 3.0, "expiries": [1.0], "strikes": [0.95]}
    doc["bench"] = {"expiries": [1.0], "strike_factors": [1.0], "tenor": 2.0}
    return doc


# the subcommand that reads each block; the model blocks go through `price`
_BLOCK_COMMAND = {
    "curve": "price",
    "family": "price",
    "phi": "price",
    "quadrature": "price",
    "price": "price",
    "simulate": "simulate",
    "surface": "surface",
    "bench": "bench",
}
# non-numeric values only: none of them can start a run of arbitrary size
_MALFORMED = (None, "abc", {"k": "v"})


def _boundary_cases():
    base = _boundary_config()
    cases = []
    for block, command in _BLOCK_COMMAND.items():
        paths = [(block,)] + [(block, key) for key in base[block]]
        if block == "price":
            option = ("price", "options", 0)
            paths += [option] + [option + (key,) for key in base["price"]["options"][0]]
        for path in paths:
            for value in _MALFORMED:
                if value is None and path in (("quadrature",), ("bench",)):
                    continue  # a null block means "use the defaults"
                cases.append(pytest.param(command, path, value, id=f"{'.'.join(map(str, path))}={value!r}"))
    # numbers the run cannot use, and values Python's int and float would
    # take: a fraction for a count (truncated) and a boolean (read as 1)
    cases += [
        pytest.param("simulate", ("simulate", "steps"), float("inf"), id="simulate.steps=inf"),
        pytest.param("bench", ("bench", "expiries"), [], id="bench.expiries=[]"),
        pytest.param("bench", ("bench", "strike_factors"), [], id="bench.strike_factors=[]"),
        pytest.param("simulate", ("simulate", "steps"), 4.7, id="simulate.steps=4.7"),
        pytest.param("simulate", ("simulate", "steps"), True, id="simulate.steps=True"),
        pytest.param(
            "price", ("quadrature", "max_subdivisions"), 2000.9, id="quadrature.max_subdivisions=2000.9"
        ),
        pytest.param("price", ("curve", "yield"), True, id="curve.yield=True"),
        pytest.param("surface", ("surface", "expiries"), [True], id="surface.expiries=[True]"),
    ]
    return cases


def test_boundary_config_is_valid(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _boundary_config())
    for command in ("price", "simulate", "surface", "bench"):
        assert main([command, "--config", cfg]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command, path, value", _boundary_cases())
def test_exit_1_malformed_value(tmp_path, capsys, command, path, value):
    doc = _boundary_config()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert main([command, "--config", _write(tmp_path, "c.json", doc)]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_1_config_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"curve": "é"}'.encode("latin-1"))
    assert main(["price", "--config", str(p)]) == 1
    assert "config error" in capsys.readouterr().err

