"""End-to-end tests for the experiment drivers and command line."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from symflow import cli
from symflow.bracket import q_norm
from symflow.cli import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    dn_upper,
    inequality_sweep,
    khl_sweep,
    l1_sweep,
    run,
)
from symflow.manifold import build_sphere, sample
from symflow.reeb import InvariantViolationError, tau


def write_spec(tmp_path, name="spec.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SMALL = dict(level=3, family_size=1, n_max=3, seed=11)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(manifold="plane").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(norm="sobolev").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n_max=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(eps_grid=()).validate()
    with pytest.raises(ConfigError, match="t_grid"):
        ExperimentConfig(t_grid=(True, 0.05)).validate()
    with pytest.raises(ConfigError, match="sphere level must be at least 3, got 2"):
        ExperimentConfig(level=2).validate()
    with pytest.raises(ConfigError, match="torus_n must be at least 8, got 4"):
        ExperimentConfig(manifold="torus", torus_n=4).validate()
    with pytest.raises(ConfigError, match="workers must be nonnegative"):
        ExperimentConfig(workers=-1).validate()


def test_extremal_demo_checks_its_sphere_level(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, manifold="torus", level=2)
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the level check"))
    assert run(["extremal-demo", "--spec", spec]) == 1
    assert capsys.readouterr().err == "error: sphere level must be at least 3, got 2\n"


def test_depth_beyond_the_bracket_range_fails_up_front(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the depth check"))
    assert run(["qn", "--n", "9", "--level", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_max must be in [2, 8], got 9")
    assert "OutOfRangeError" not in err


@pytest.mark.parametrize(
    "command,spec",
    [
        ("dn", dict(SMALL, eps_grid=[0.1, -0.01])),
        ("flow-order", dict(manifold="torus", torus_n=16, f="0.3*sin(2*pi*q)", g="0.2*cos(2*pi*p)",
                            t_grid=[0.1, 0.05, 0.0, -0.02])),
    ],
)
def test_nonpositive_grid_entries_fail_up_front(command, spec, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the grid check"))
    assert run([command, "--spec", write_spec(tmp_path, **spec)]) == 1
    key, bad = ("eps_grid", "-0.01") if command == "dn" else ("t_grid", "0.0")
    assert capsys.readouterr().err == f"error: {key} entries must be positive numbers, got {bad}\n"


def test_config_hash_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig(seed=1)
    assert a.digest() == ExperimentConfig().digest()
    assert a.digest() != b.digest()


def test_expr_is_an_alias_for_f(tmp_path):
    spec = write_spec(tmp_path, expr="z", level=3)
    assert run(["qstate", "--spec", spec]) == 0


def test_unknown_config_key_is_rejected(tmp_path):
    spec = write_spec(tmp_path, volume=3)
    assert run(["qstate", "--spec", spec]) == 1


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_ok_run_exits_zero(tmp_path):
    spec = write_spec(tmp_path, level=3, f="z", g="x")
    assert run(["qn", "--spec", spec, "--n", "2"]) == 0


def test_malformed_expression_exits_one(tmp_path, capsys):
    spec = write_spec(tmp_path, f="x +* y", level=3)
    assert run(["qstate", "--spec", spec]) == 1
    assert "offset" in capsys.readouterr().err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"f": "x",\n  oops\n}')
    assert run(["qstate", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:2:" in err


def test_missing_spec_file_exits_one():
    assert run(["qstate", "--spec", "/no/such/file.json"]) == 1


def test_unexpected_exception_prints_its_traceback(capsys, monkeypatch):
    def broken(cfg):
        raise TypeError("a bug, not bad input")

    monkeypatch.setitem(cli._COMMANDS, "qn", broken)
    assert run(["qn", "--level", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in broken" in err
    assert err.endswith("TypeError: a bug, not bad input\n")
    assert "error:" not in err


def test_usage_errors_exit_one():
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["qstate", "purge"]) == 1


def test_invariant_violation_exits_two(monkeypatch):
    def boom(cfg):
        raise InvariantViolationError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "qstate", boom)
    assert run(["qstate"]) == 2


def test_extremal_demo_exits_zero(capsys):
    assert run(["extremal-demo", "--level", "3"]) == 0
    out = capsys.readouterr().out
    assert "defect" in out


# ---------------------------------------------------------------------------
# Table format and determinism
# ---------------------------------------------------------------------------


def test_csv_is_rfc4180_with_17_digits(tmp_path):
    spec = write_spec(tmp_path, out=str(tmp_path / "t"), **SMALL)
    assert run(["khl", "--spec", spec]) == 0
    raw = (tmp_path / "t.csv").read_bytes()
    assert raw.endswith(b"\r\n")
    lines = raw.decode().split("\r\n")
    assert lines[0] == "op,pair,n,ratio,flag,tau"
    # every data row carries the provenance column and full-precision floats
    body = [l for l in lines[1:] if l]
    assert all(l.split(",")[0] in ("pair", "a_n") for l in body)
    assert any("0.0625" in l for l in body)  # tau at level 3, exact in %.17g


def test_sidecar_carries_config_and_hash(tmp_path):
    spec = write_spec(tmp_path, out=str(tmp_path / "t"), **SMALL)
    assert run(["khl", "--spec", spec]) == 0
    meta = json.loads((tmp_path / "t.json").read_text())
    assert meta["config"]["level"] == 3
    assert meta["config_hash"] == ExperimentConfig(**SMALL, out=str(tmp_path / "t")).digest()
    assert meta["version"]
    assert meta["wall_time_s"] >= 0.0


def test_reruns_are_byte_identical(tmp_path):
    a = write_spec(tmp_path, "a.json", out=str(tmp_path / "a"), **SMALL)
    b = write_spec(tmp_path, "b.json", out=str(tmp_path / "b"), **SMALL)
    assert run(["inequality", "--spec", a]) == 0
    assert run(["inequality", "--spec", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for wk in (1, 4):
        spec = write_spec(tmp_path, f"w{wk}.json", workers=wk,
                          out=str(tmp_path / f"w{wk}"), **SMALL)
        assert run(["inequality", "--spec", spec]) == 0
        outs.append((tmp_path / f"w{wk}.csv").read_bytes())
    assert outs[0] == outs[1]


def test_table_requires_op_column():
    with pytest.raises(InvariantViolationError):
        ResultTable(("n", "value"), [(2, 1.0)], {})


def test_table_rejects_ragged_rows():
    with pytest.raises(InvariantViolationError):
        ResultTable(("op", "n"), [("a", 2, 3.0)], {})


def test_strings_with_commas_are_quoted():
    t = ResultTable(("op", "note"), [("x", 'a,"b"')], {})
    assert '"a,""b"""' in t.to_csv()


# ---------------------------------------------------------------------------
# Sweep content
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(**SMALL)


def test_scaled_pairs_share_one_ratio(small_cfg):
    table = inequality_sweep(small_cfg)
    idx = {name: table.columns.index(name) for name in ("op", "pair", "n", "ratio")}
    by_n = {}
    for row in table.rows:
        if row[idx["op"]] == "scaling":
            by_n.setdefault(row[idx["n"]], []).append(row[idx["ratio"]])
    assert set(by_n) == {2, 3}
    for n, ratios in by_n.items():
        assert len(ratios) == 4
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread < 1e-6, f"depth {n} ratio varies by {spread}"


def test_family_max_rows_record_the_constant(small_cfg):
    table = inequality_sweep(small_cfg)
    idx = {n: table.columns.index(n) for n in ("op", "n", "ratio")}
    pair_best = {}
    summary = {}
    for row in table.rows:
        n, ratio = row[idx["n"]], row[idx["ratio"]]
        if row[idx["op"]] == "pair" and not math.isnan(ratio):
            pair_best[n] = max(pair_best.get(n, -np.inf), ratio)
        elif row[idx["op"]] == "c_n":
            summary[n] = ratio
    assert summary == pair_best


def test_commuting_pair_is_flagged_degenerate():
    cfg = ExperimentConfig(level=3, family_size=0, n_max=3,
                           f="x", g="2*x")
    table = inequality_sweep(cfg)
    idx = {n: table.columns.index(n) for n in ("op", "pi", "flag", "ratio")}
    pair_rows = [r for r in table.rows if r[idx["op"]] == "pair"]
    assert pair_rows
    for row in pair_rows:
        assert row[idx["flag"]] == "DegenerateRatio"
        assert math.isnan(row[idx["ratio"]])
        assert abs(row[idx["pi"]]) <= tau(3)


def test_tube_distance_is_swap_symmetric_at_depth_two():
    mesh = build_sphere(3)
    f = sample(mesh, "1 - 2*x^2 + 0.3*x*y")
    g = sample(mesh, "1 - 2*y^2 - 0.1*z")
    for eps in (1e-2, 1e-4):
        a = dn_upper(f, g, 2, eps)
        b = dn_upper(g, f, 2, eps)
        assert abs(a - b) < 1e-12


def test_tube_distance_shrinks_with_tolerance():
    mesh = build_sphere(3)
    f = sample(mesh, "1 - 2*x^2")
    g = sample(mesh, "1 - 2*y^2")
    uppers = [dn_upper(f, g, 2, eps) for eps in (1e-6, 1e-4, 1e-2, 1.0)]
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))
    # a tolerance above the whole bracket functional needs no shrinking at all
    assert dn_upper(f, g, 2, 1e9) == 0.0


def test_dn_table_is_monotone_in_eps(tmp_path):
    cfg = ExperimentConfig(level=3, family_size=0, n_max=3,
                           eps_grid=(1e-5, 1e-3, 1e-1))
    table = cli.dn_sweep(cfg)
    idx = {n: table.columns.index(n) for n in ("n", "eps", "upper", "lower", "flag")}
    for n in (2, 3):
        rows = sorted((r for r in table.rows if r[idx["n"]] == n),
                      key=lambda r: r[idx["eps"]])
        ups = [r[idx["upper"]] for r in rows]
        lows = [r[idx["lower"]] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))
        for r in rows:
            if not r[idx["flag"]]:
                assert r[idx["lower"]] <= r[idx["upper"]] + tau(3)


def test_khl_depth_two_is_always_unity(small_cfg):
    table = khl_sweep(small_cfg)
    idx = {n: table.columns.index(n) for n in ("op", "n", "ratio", "flag")}
    rows = [r for r in table.rows if r[idx["op"]] == "pair" and r[idx["n"]] == 2]
    assert rows
    for row in rows:
        assert row[idx["flag"]] == ""
        assert row[idx["ratio"]] == pytest.approx(1.0, abs=1e-12)


def test_khl_flags_commuting_input():
    cfg = ExperimentConfig(level=3, family_size=0, f="x", g="2*x", n_max=3)
    table = khl_sweep(cfg)
    idx = {n: table.columns.index(n) for n in ("op", "flag")}
    pair_rows = [r for r in table.rows if r[idx["op"]] == "pair"]
    assert all(r[idx["flag"]] == "DegenerateInput" for r in pair_rows)


def test_mass_weighted_norm_never_exceeds_uniform(small_cfg):
    uni = inequality_sweep(small_cfg)
    l1 = l1_sweep(small_cfg)
    key = lambda t, r: (r[t.columns.index("pair")], r[t.columns.index("n")])
    q_uni = {key(uni, r): r[uni.columns.index("q_n")]
             for r in uni.rows if r[0] == "pair"}
    for row in l1.rows:
        k = key(l1, row)
        assert k in q_uni
        assert row[l1.columns.index("q_l1")] <= q_uni[k] * (1 + 1e-12)


def test_l1_meta_carries_the_caveat(small_cfg):
    table = l1_sweep(small_cfg)
    assert "not a verified bound" in table.meta["caveat"]


def test_dn_constants_are_the_inequality_family_maxima(small_cfg):
    c_rows = [r for r in inequality_sweep(small_cfg).rows if r[0] == "c_n"]
    assert cli.dn_sweep(small_cfg).meta["c_n_emp"] == {r[2]: r[5] for r in c_rows}


def test_l1_rows_are_the_inequality_pair_rows_in_l1(small_cfg):
    ineq = inequality_sweep(replace(small_cfg, norm="l1"))
    assert l1_sweep(small_cfg).rows == [r for r in ineq.rows if r[0] == "pair"]


def test_sweeps_reject_torus_configs():
    cfg = ExperimentConfig(manifold="torus", f="sin(2*pi*q)", g="sin(2*pi*p)")
    with pytest.raises(ConfigError):
        inequality_sweep(cfg)
    with pytest.raises(ConfigError):
        cli.dn_sweep(cfg)
    with pytest.raises(ConfigError):
        l1_sweep(cfg)


# ---------------------------------------------------------------------------
# One-shot commands
# ---------------------------------------------------------------------------


def test_qstate_prints_median_summary(capsys):
    assert run(["qstate", "--level", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("zeta = ")
    assert "median at" in out and "nodes" in out


def test_scheme_show_lists_stage_sums(capsys):
    assert run(["scheme", "show", "--order", "6"]) == 0
    out = capsys.readouterr().out
    assert "yoshida-6" in out
    assert "sums: 1, 1" in out


def test_odd_scheme_orders_are_rejected(capsys):
    assert run(["scheme", "--order", "3"]) == 1
    assert "order" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scheme", "flow-order", "remainder"])
def test_unknown_scheme_order_fails_before_sampling(command, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the order check"))
    assert run([command, "--order", "3", "--level", "3"]) == 1
    assert capsys.readouterr().err == "error: no splitting scheme of order 3; use 1, 2, 4, 6, or 8\n"


def test_qstate_on_a_torus_fails_before_any_mesh(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, manifold="torus", torus_n=16, f="sin(2*pi*q)")
    monkeypatch.setattr(cli, "build_torus", lambda *a, **k: pytest.fail("built a mesh first"))
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled first"))
    assert run(["qstate", "--spec", spec]) == 1
    assert capsys.readouterr().err == "error: qstate needs the quasi-state, so a sphere manifold\n"


def test_flow_order_reports_fit(tmp_path, capsys):
    spec = write_spec(
        tmp_path, manifold="torus", torus_n=48,
        f="sin(2*pi*q)", g="sin(2*pi*p)",
        t_grid=[0.025 * 2**-k for k in range(5)],
        out=str(tmp_path / "fit"),
    )
    assert run(["flow-order", "--spec", spec, "--order", "1"]) == 0
    assert "slope" in capsys.readouterr().out
    lines = (tmp_path / "fit.csv").read_bytes().decode().split("\r\n")
    assert lines[0].startswith("op,t,error")
    assert any(l.startswith("fit,") for l in lines)


def test_remainder_reports_exponent(tmp_path, capsys):
    spec = write_spec(
        tmp_path, manifold="torus", torus_n=48,
        f="sin(2*pi*q)", g="sin(2*pi*p)",
        t_grid=[0.025 * 2**-k for k in range(5)],
    )
    assert run(["remainder", "--spec", spec, "--order", "2"]) == 0
    assert "exponent" in capsys.readouterr().out


def test_default_grid_fits_the_nominal_orders(tmp_path):
    """Without ``t_grid`` the fits stay in the asymptotic regime."""
    spec = write_spec(tmp_path, manifold="torus", f="0.3*sin(2*pi*q)", g="0.2*cos(2*pi*p)",
                      out=str(tmp_path / "run"))
    assert run(["flow-order", "--spec", spec, "--order", "4"]) == 0
    fit = json.loads((tmp_path / "run.json").read_text())["fit"]
    assert fit["status"] == "ok"
    assert fit["slope"] == pytest.approx(5.0, abs=0.2)
    assert run(["remainder", "--spec", spec, "--order", "4"]) == 0
    summary = (tmp_path / "run.csv").read_text().splitlines()[-1].split(",")
    assert summary[0] == "summary"
    assert float(summary[6]) >= 3.8


def test_remainder_rejects_order_beyond_the_bracket_range(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, manifold="torus", f="0.3*sin(2*pi*q)", g="0.2*cos(2*pi*p)")
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the order check"))
    assert run(["remainder", "--spec", spec, "--order", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: remainder does not support order 8")
    assert "1, 2, 4 or 6" in err


@pytest.mark.parametrize("order", [1, 9])
def test_expansion_rejects_order_outside_the_cap_range(order, tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, manifold="torus", f="0.3*sin(2*pi*q)", g="0.2*cos(2*pi*p)")
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the order check"))
    assert run(["expansion", "--spec", spec, "--order", str(order)]) == 1
    assert capsys.readouterr().err == f"error: expansion order must be in [2, 6], got {order}\n"


def test_expansion_recognises_the_stage_flows_first(capsys, monkeypatch):
    monkeypatch.setattr(cli, "composition_expansion", lambda *a, **k: pytest.fail("expanded first"))
    assert run(["expansion", "--level", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: NotRecognizedError: sphere field is not a linear form")


def test_expansion_lists_terms_and_residuals(tmp_path):
    spec = write_spec(
        tmp_path, manifold="torus", torus_n=32,
        f="sin(2*pi*q)", g="sin(2*pi*p)",
        t_grid=[0.1, 0.05], out=str(tmp_path / "exp"),
    )
    assert run(["expansion", "--spec", spec, "--order", "3"]) == 0
    lines = (tmp_path / "exp.csv").read_bytes().decode().split("\r\n")
    ops = {l.split(",")[0] for l in lines[1:] if l}
    assert ops == {"term", "residual"}


# ---------------------------------------------------------------------------
# Typed config fields, alias collisions, output paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command,spec,message",
    [
        ("scheme", {"order": True}, "order must be an integer, got True"),
        ("scheme", {"order": "2"}, "order must be an integer, got '2'"),
        ("qstate", {"level": "4"}, "level must be an integer, got '4'"),
        ("inequality", {"seed": "x"}, "seed must be an integer, got 'x'"),
        ("inequality", {"amplitudes": 0.1}, "amplitudes must be a list of numbers, got 0.1"),
        ("inequality", {"family_size": 1.5}, "family_size must be an integer, got 1.5"),
        ("inequality", {"e_grid": ["a"]}, "e_grid must be a list of numbers, got ('a',)"),
        ("qstate", {"expr": None}, "f must be a string, got None"),
    ],
)
def test_ill_typed_config_values_fail_up_front(command, spec, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_sphere", lambda *a, **k: pytest.fail("built a mesh before the type check"))
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the type check"))
    assert run([command, "--spec", write_spec(tmp_path, **dict(SMALL, **spec))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_string_fields_may_be_null_only_where_documented():
    ExperimentConfig(a=None, out=None).validate()
    with pytest.raises(ConfigError, match="norm must be a string, got None"):
        ExperimentConfig(norm=None).validate()
    with pytest.raises(ConfigError, match=r"out must be a string or null, got 3"):
        ExperimentConfig(out=3).validate()


@pytest.mark.parametrize(
    "keys",
    [(("expr", "x"), ("f", "x+1")), (("f", "x+1"), ("expr", "x")), (("n", 3), ("n_max", 4))],
)
def test_a_field_set_twice_through_an_alias_is_rejected(keys, tmp_path, capsys):
    (first, _), (second, _) = keys
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict((("level", 3),) + keys)))
    assert run(["qstate", "--spec", str(path)]) == 1
    field = "f" if "f" in (first, second) else "n_max"
    assert capsys.readouterr().err == f"error: {path}: {first!r} and {second!r} both set {field!r}\n"


def test_a_key_written_twice_is_rejected_before_any_mesh(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample", lambda *a, **k: pytest.fail("sampled before the key check"))
    path = tmp_path / "spec.json"
    path.write_text('{"level": 3, "f": "x", "f": "x+1"}')
    assert run(["qstate", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: 'f' set twice\n"


def test_out_in_a_missing_directory_fails_before_any_mesh(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_sphere", lambda *a, **k: pytest.fail("built a mesh first"))
    out = str(tmp_path / "no" / "such" / "t")
    assert run(["qn", "--level", "3", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


def test_a_table_that_cannot_be_written_raises_a_config_error(tmp_path):
    target = tmp_path / "taken.csv"
    target.mkdir()
    with pytest.raises(ConfigError, match=f"^{target}: Is a directory$"):
        ResultTable(("op",), [("x",)], {}).write(str(target))


def test_remainder_sidecar_carries_the_sweep(tmp_path):
    t_grid = [0.025 * 2**-k for k in range(4)]
    spec = write_spec(tmp_path, manifold="torus", torus_n=16, f="sin(2*pi*q)", g="sin(2*pi*p)",
                      t_grid=t_grid, out=str(tmp_path / "rem"))
    assert run(["remainder", "--spec", spec, "--order", "2"]) == 0
    sweep = json.loads((tmp_path / "rem.json").read_text())["sweep"]
    assert set(sweep) == {"generation", "q_n", "rows", "kappa_max", "exponent"}
    assert [row["t"] for row in sweep["rows"]] == t_grid
    summary = (tmp_path / "rem.csv").read_text().splitlines()[-1].split(",")
    assert (sweep["generation"], sweep["exponent"]) == (int(summary[4]), float(summary[6]))


# ---------------------------------------------------------------------------
# Invariant failures
# ---------------------------------------------------------------------------


def test_extremal_demo_out_of_tolerance_exits_two(tmp_path, capsys, monkeypatch):
    from symflow.reeb import PiDefect

    monkeypatch.setattr(cli, "pi_defect", lambda f, g: PiDefect(1.5, 0.2, 0.9, 0.8))
    out = tmp_path / "demo"
    assert run(["extremal-demo", "--level", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "zeta(F)   = +0.900000   (expected +1 within 0.05)\n"
        "zeta(G)   = +0.800000   (expected +1 within 0.05)\n"
        "zeta(F+G) = +0.200000   (expected  0 within 0.05)\n"
        "defect    = +1.500000   (expected +2 within 0.05)\n"
    )
    assert captured.err == "invariant violated: extremal demo values left their tolerance windows\n"
    assert not list(tmp_path.iterdir())
