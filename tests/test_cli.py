"""CLI tests: subcommands, schemas, exit codes, determinism."""
import json

from freespec import cli
from freespec.graphs import builtin_graph, format_graph_text, parse_graph_text


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tree_check_all_zero_errors(capsys):
    code, out, err = run_cli(capsys, "tree-check", "--d", "3", "--k", "2", "--max-m", "8")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == (
        "experiment,graph,param_name,param_value,k,m,value,reference,abs_err,rel_err"
    )
    for line in lines[1:]:
        assert line.split(",")[8] == "0"  # abs_err column


def test_free_clt_values(capsys):
    code, out, _ = run_cli(
        capsys, "free-clt", "--graph", "builtin:k3", "--k", "2", "--N", "2,4,8",
        "--max-m", "4",
    )
    assert code == 0
    m2 = {line.split(",")[3]: line.split(",")[6] for line in out.strip().split("\n")[1:]
          if line.split(",")[5] == "2"}
    assert m2 == {"2": "0.5", "4": "0.75", "8": "0.875"}


def test_free_clt_json_exact_values(capsys):
    code, out, _ = run_cli(
        capsys, "free-clt", "--graph", "builtin:k3", "--k", "2", "--N", "8",
        "--max-m", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "rows"}
    assert set(doc["meta"]) == {"seed", "budgets", "version", "wall_ms"}
    assert doc["meta"]["wall_ms"] == 0
    row = next(r for r in doc["rows"] if r["m"] == 2)
    assert row["value_exact"] == "7/8"
    assert row["reference_exact"] == "1"
    assert row["value"] == 0.875


def test_free_clt_json_exact_strings_are_canonical(capsys):
    # (N*sigma)^(km/2) = 4^(m/2): odd m must not leave a sqrt(4) surd
    code, out, _ = run_cli(
        capsys, "free-clt", "--graph", "builtin:k3", "--k", "1", "--N", "2",
        "--max-m", "4", "--format", "json",
    )
    assert code == 0
    rows = {r["m"]: r for r in json.loads(out)["rows"]}
    assert rows[1]["value_exact"] == "0"
    assert rows[3]["value_exact"] == "1/2"
    assert not any("sqrt" in (r["value_exact"] or "") for r in rows.values())


def test_km_density_row(capsys):
    code, out, _ = run_cli(
        capsys, "km-density", "--d", "2", "--points", "5", "--range", "-2,2"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 5
    at_zero = next(r for r in rows if r[3] == "0")
    assert at_zero[6] == "0.159154943092"


def test_moments_law(capsys):
    code, out, _ = run_cli(capsys, "moments", "--law", "km:3", "--max-m", "4")
    assert code == 0
    values = [line.split(",")[6] for line in out.strip().split("\n")[1:]]
    assert values == ["1", "0", "3", "0", "15"]


def test_moments_graph_vacuum(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--graph", "builtin:k3", "--which", "vacuum", "--max-m", "3"
    )
    assert code == 0
    values = [line.split(",")[6] for line in out.strip().split("\n")[1:]]
    assert values == ["1", "0", "2", "2"]


def test_decomp_check_modes(capsys):
    for argv in (
        ("decomp-check", "--mode", "square", "--graph", "builtin:k4"),
        ("decomp-check", "--mode", "tree", "--d", "3", "--k", "3", "--radius", "5"),
        ("decomp-check", "--mode", "free", "--graph", "builtin:p3", "--N", "2",
         "--k", "3", "--radius", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.strip().split("\n")[1].split(",")[6] == "0"


def test_decomp_check_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "tree_recurrence_check", lambda *a, **k: 1)
    code, out, err = run_cli(
        capsys, "decomp-check", "--mode", "tree", "--d", "3", "--k", "2", "--radius", "5"
    )
    assert code == 3
    assert err.startswith("error[INVARIANT]:")


def test_cycles_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "cycles", "--d", "3", "--j", "3", "--n-list", "20,40",
        "--samples", "3", "--seed", "1",
    )
    assert code == 0
    refs = [line.split(",")[7] for line in out.strip().split("\n")[1:]]
    assert refs == ["1.33333333333", "1.33333333333"]


def test_regular_random_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "regular-random", "--d", "3", "--k", "1", "--n-list", "20",
        "--samples", "2", "--max-m", "2", "--seed", "3",
    )
    assert code == 0
    m2 = next(line for line in out.strip().split("\n")[1:] if line.split(",")[5] == "2")
    assert m2.split(",")[6] == "3" and m2.split(",")[8] == "0"


def test_hist_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "hist", "--law", "semicircle", "--samples", "500", "--bins", "4",
        "--seed", "2", "--transform", "p:2",
    )
    assert code == 0
    counts = [int(line.split(",")[6]) for line in out.strip().split("\n")[1:]]
    assert sum(counts) == 500


def test_large_d_subcommand(capsys):
    code, out, _ = run_cli(capsys, "large-d", "--k", "2", "--d-list", "3,10", "--max-m", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_usage_errors_exit_1(capsys):
    for argv in (
        ("tree-check", "--d", "3"),                                   # missing --k
        ("free-clt", "--graph", "builtin:k3", "--k", "2", "--N", "8,4"),  # not increasing
        ("free-clt", "--graph", "nosuchscheme:k3", "--k", "1", "--N", "2"),
        ("moments",),                                                  # no graph, no law
        ("km-density", "--d", "2", "--points", "1", "--range", "0,1"),
        ("large-d", "--k", "1", "--d-list", "2,3", "--threads", "0"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error[USAGE]:"), (argv, err)


def test_input_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "tree-check", "--d", "3", "--k", "0")
    assert code == 1 and err.startswith("error[INPUT]:")
    code, _, err = run_cli(capsys, "moments", "--graph", "file:/nonexistent/x.graph")
    assert code == 1 and err.startswith("error[INPUT]:")


def test_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "decomp-check", "--mode", "free", "--graph", "builtin:k3",
        "--N", "2", "--k", "3", "--radius", "5", "--ball-budget", "10",
    )
    assert code == 2
    assert err.startswith("error[BUDGET]:")


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "tree-check", "--d", "2", "--k", "1", "--max-m", "2",
        "--output", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text().startswith("experiment,graph")


def test_byte_identical_across_threads(capsys):
    outputs = []
    for threads in ("1", "4"):
        for fmt in ("csv", "json"):
            code, out, _ = run_cli(
                capsys, "free-clt", "--graph", "builtin:c4", "--k", "2",
                "--N", "2,4", "--max-m", "3", "--threads", threads, "--format", fmt,
            )
            assert code == 0
            outputs.append((fmt, out))
    assert outputs[0][1] == outputs[2][1]  # csv
    assert outputs[1][1] == outputs[3][1]  # json


def test_graph_file_ingestion(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(format_graph_text(builtin_graph("c4")))
    code, out, _ = run_cli(
        capsys, "moments", "--graph", f"file:{path}", "--which", "trace", "--max-m", "2"
    )
    assert code == 0
    assert out.strip().split("\n")[3].split(",")[6] == "2"


def test_builtin_round_trip_via_text_format():
    for name in ("k2", "k3", "k4", "c4", "c5", "p3", "p4"):
        g = builtin_graph(name)
        assert parse_graph_text(format_graph_text(g)) == g


def test_timing_flag_populates_wall_ms(capsys):
    code, out, _ = run_cli(
        capsys, "tree-check", "--d", "2", "--k", "1", "--max-m", "2",
        "--format", "json", "--timing",
    )
    assert code == 0
    assert json.loads(out)["meta"]["wall_ms"] >= 0
