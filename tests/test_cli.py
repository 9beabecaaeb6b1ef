"""CLI tests: subcommands, schemas, exit codes, determinism."""
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from freespec import cli, errors, freeprod, regular
from freespec.errors import BudgetExceededError, Budgets
from freespec.freeprod import free_power, vacuum_moments_distance_k
from freespec.graphs import (
    builtin_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    parse_graph_text,
)
from oracles import fmt12_by_decimal, format_graph_text


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


def _reject_constant(name):
    raise ValueError(f"JSON holds {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--law", "km:3", "--max-m", "700"),
        ("moments", "--law", "semicircle", "--max-m", "1200"),
        ("tree-check", "--d", "3", "--k", "2", "--max-m", "460"),
    ],
)
def test_values_past_the_float_range_render(capsys, argv):
    code, csv_out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, json_out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(json_out, parse_constant=_reject_constant)["rows"]
    lines = csv_out.strip().split("\n")[1:]
    assert len(lines) == len(rows) == int(argv[-1]) + 1
    past = 0
    for line, row in zip(lines, rows):
        cells = line.split(",")
        for name, cell in (("value", cells[6]), ("reference", cells[7])):
            if row[name] is None and row[name + "_exact"] is not None:
                past += 1
                assert cell == fmt12_by_decimal(row[name + "_exact"])
            elif row[name] is not None:
                assert cell == f"{row[name]:.12g}"
        if row["reference_exact"] is not None:
            # tree-check: every row agrees exactly, also past the float range;
            # a zero reference has no relative error
            rel = None if row["reference_exact"] == "0" else 0
            assert (cells[8], cells[9]) == ("0", "" if rel is None else "0")
            assert (row["abs_err"], row["rel_err"]) == (0, rel)
    assert past > 0


def test_values_below_the_float_range_render(capsys):
    # m = 3 on k4^{*N} with N = 10^700 is about 1.1547e-350, below any float
    n = "1" + "0" * 700
    argv = ("free-clt", "--graph", "builtin:k4", "--k", "1", "--N", n, "--max-m", "3")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    row = json.loads(out, parse_constant=_reject_constant)["rows"][3]
    assert (row["value"], row["abs_err"], row["reference"]) == (None, None, 0)
    assert row["value_exact"] == f"sqrt(1/75{'0' * 698})"
    code, out, _ = run_cli(capsys, *argv)
    cells = out.splitlines()[4].split(",")
    assert cells[6:] == ["1.15470053838e-350", "0", "1.15470053838e-350", ""]


def test_moments_graph_vacuum(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--graph", "builtin:k3", "--which", "vacuum", "--max-m", "3"
    )
    assert code == 0
    values = [line.split(",")[6] for line in out.strip().split("\n")[1:]]
    assert values == ["1", "0", "2", "2"]


def test_moments_vacuum_makes_one_walk_pass(capsys, monkeypatch):
    calls = []
    inner = cli.closed_walk_counts
    monkeypatch.setattr(
        cli, "closed_walk_counts", lambda *args: calls.append(args) or inner(*args)
    )
    code, out, _ = run_cli(capsys, "moments", "--graph", "builtin:c4", "--max-m", "8")
    assert code == 0 and len(out.strip().split("\n")) == 10
    assert len(calls) == 1


def test_moments_honours_the_walk_budget(tmp_path, capsys):
    # c6 at max_m 12: one vertex's half walks are charged
    # (1 + 2 + 4 + 6 + 6 + 6) * 2 = 50 expansions, before any is built; the
    # trace walks stop at min(n, max_m) = 6 steps, so each vertex is charged
    # (1 + 2 + 4) * 2 = 14, all six of them before the first: 84
    path = tmp_path / "c6.txt"
    path.write_text(format_graph_text(cycle_graph(6)))
    argv = ("moments", "--graph", f"file:{path}", "--max-m", "12")
    for which, charge in (("vacuum", 50), ("trace", 84)):
        code, out, err = run_cli(capsys, *argv, "--which", which, "--walk-budget", "1")
        assert (code, out) == (2, "")
        assert err == f"error[BUDGET]: budget exceeded: {charge} {which}-walk expansions (budget 1)\n"
    code, out, _ = run_cli(capsys, *argv, "--which", "vacuum", "--walk-budget", "50")
    assert code == 0 and out.strip().split("\n")[-1].split(",")[6] == "1366"


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


def test_json_reports_the_budgets_passed(capsys):
    # the rows' 1800 letters fit exactly; a flag a subcommand does not
    # take is reported at its default
    code, out, _ = run_cli(
        capsys, "decomp-check", "--mode", "tree", "--d", "3", "--k", "2", "--radius", "5",
        "--walk-budget", "1800", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["budgets"] == {"walk_expansions": 1800, "ball_vertices": 10**6}
    code, out, _ = run_cli(
        capsys, "hist", "--law", "semicircle", "--samples", "21", "--bins", "5",
        "--ball-budget", "21", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["budgets"] == {"walk_expansions": 10**8, "ball_vertices": 21}
    code, out, _ = run_cli(
        capsys, "cycles", "--d", "3", "--j", "3", "--n-list", "20", "--samples", "1",
        "--walk-budget", "5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["budgets"] == {"walk_expansions": 5, "ball_vertices": 10**6}


def test_cycles_skips_refused_cells(capsys):
    # at 10^4 nodes the 8-cycles of the n=20 sample are counted (295) and
    # the n=200 enumeration is refused: that cell is skipped, the run exits 0
    argv = ("cycles", "--d", "4", "--j", "8", "--n-list", "20,200", "--seed", "0",
            "--walk-budget", "10000")
    code, out, err = run_cli(capsys, *argv, "--samples", "1")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[3] for row in rows] == ["20", "200"]
    assert rows[0][6] == "295"
    assert rows[1][6:] == ["", "", "", ""]
    # on a pool the refused cell is skipped the same way
    reports = [run_cli(capsys, *argv, "--samples", "2", "--threads", t) for t in ("1", "2")]
    assert reports[0] == reports[1]
    rows = [line.split(",") for line in reports[1][1].strip().split("\n")[1:]]
    assert rows[0][6] != "" and rows[1][6:] == ["", "", "", ""]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cycles_longer_than_the_recursion_limit_run_to_the_budget(capsys, threads):
    # 1200-vertex paths: the search meets the node budget, not the recursion
    # limit, so the cell is skipped and the run exits 0
    code, out, err = run_cli(
        capsys, "cycles", "--d", "3", "--j", "1200", "--n-list", "2000", "--samples", "1",
        "--walk-budget", "100000", "--threads", threads,
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[3] for row in rows] == ["2000"]
    assert rows[0][6:] == ["", "", "", ""]


@pytest.mark.parametrize("argv", [
    ("regular-random", "--d", "3", "--k", "2", "--n-list", "20,40", "--samples", "4"),
    ("cycles", "--d", "4", "--j", "4", "--n-list", "20,40", "--samples", "4"),
])
def test_sampled_reports_identical_for_every_thread_count(capsys, argv):
    for fmt in ("csv", "json"):
        reports = [
            run_cli(capsys, *argv, "--format", fmt, "--threads", threads)
            for threads in ("1", "2", "3")
        ]
        assert reports[0][0] == 0 and reports[0][2] == ""
        assert reports[1] == reports[0] and reports[2] == reports[0]


def test_single_thread_starts_no_pool():
    script = (
        "import sys\n"
        "from freespec import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv in (
        ("regular-random", "--d", "3", "--k", "2", "--n-list", "20", "--samples", "2",
         "--threads", "1"),
        ("cycles", "--d", "3", "--j", "3", "--n-list", "20", "--samples", "2", "--threads", "1"),
        ("cycles", "--d", "3", "--j", "3", "--n-list", "20", "--samples", "1", "--threads", "2"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_the_default_worker_count_follows_the_affinity_mask(monkeypatch):
    # without --threads a sampled run takes every CPU it may run on: on one
    # CPU its samples run here and no pool module is imported, on two they
    # run on two workers
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from freespec import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ("cycles", "--d", "3", "--j", "3", "--n-list", "20", "--samples", "4")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert regular.sample_workers(None, 20) == 2
    assert regular.sample_workers(None, 1) == 1


def test_cli_imports_only_what_a_command_uses():
    # every report is a fresh process, so each module the CLI imports is
    # start-up paid by every run; free-clt needs neither json nor the sampler
    script = (
        "import sys\n"
        "from freespec import cli\n"
        "unused = ('dataclasses', 'inspect', 'json', 'freespec.regular',\n"
        "          'multiprocessing', 'concurrent.futures')\n"
        "print(*[name for name in unused if name in sys.modules])\n"
        "code = cli.main(['free-clt', '--graph', 'builtin:c4', '--k', '2', '--N', '2,3',\n"
        "                 '--max-m', '4', '--output', sys.argv[1]])\n"
        "print(code, *[name for name in ('json', 'freespec.regular') if name in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, os.devnull],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "0"]


def _die(*args):
    os._exit(9)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="a forked worker is what finds the replaced sample function",
)
def test_dead_worker_exits_2(capsys, monkeypatch):
    # what the OOM killer does to a worker: it ends without a word
    monkeypatch.setattr(regular, "trace_sample", _die)
    code, out, err = run_cli(
        capsys, "regular-random", "--d", "3", "--k", "2", "--n-list", "20",
        "--samples", "2", "--threads", "2",
    )
    assert (code, out) == (2, "")
    assert err == "error[BUDGET]: a worker process ended abruptly (killed, or out of memory)\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sampled_commands_check_k_and_j_before_pairing(capsys, monkeypatch, threads):
    def no_pairing(cfg):
        raise AssertionError("paired before checking the arguments")

    monkeypatch.setattr(regular, "pairing_model", no_pairing)
    for argv, message in (
        (("regular-random", "--d", "3", "--k", "0"), "k must be positive"),
        (("cycles", "--d", "3", "--j", "2"), "cycle length must be >= 3"),
    ):
        code, _, err = run_cli(
            capsys, *argv, "--n-list", "200000", "--samples", "2", "--threads", threads
        )
        assert (code, err) == (1, f"error[INPUT]: {message}\n"), argv


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sampled_commands_check_every_order_before_pairing(capsys, monkeypatch, threads):
    # an order late in --n-list is checked before the first cell is paired
    def no_pairing(cfg):
        raise AssertionError("paired before checking the orders")

    monkeypatch.setattr(regular, "pairing_model", no_pairing)
    for d, n_list, message in (
        ("3", "100,100001", "n*d = 300003 is odd"),
        ("4", "0,100", "need n > 0 and d >= 2"),
        ("1", "100", "need n > 0 and d >= 2"),
        # no pairing of 2 vertices of degree 4 is simple, however often drawn
        ("4", "2,300", "no simple 4-regular graph on 2 vertices: need n > d"),
    ):
        for argv in (
            ("regular-random", "--d", d, "--k", "2"),
            ("cycles", "--d", d, "--j", "3"),
        ):
            code, _, err = run_cli(
                capsys, *argv, "--n-list", n_list, "--samples", "2", "--threads", threads
            )
            assert (code, err) == (1, f"error[INPUT]: {message}\n"), argv


def test_regular_random_skips_cells_over_the_walk_budget(capsys):
    # each n=20 sample charges at most 20 * (6 + 36 + 20*6) = 3240 trace
    # expansions, each n=200 sample 200 * (6 + 36 + 200*6) or so: past 10^4
    argv = ("regular-random", "--d", "3", "--k", "2", "--n-list", "20,200", "--seed", "0",
            "--samples", "2", "--walk-budget", "10000")
    reports = [run_cli(capsys, *argv, "--threads", t) for t in ("1", "2")]
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert {row[3] for row in rows if row[6] != ""} == {"20"}
    assert {row[3] for row in rows if row[6:] == ["", "", "", ""]} == {"200"}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regular_random_report_is_pinned(capsys, threads):
    # taken before the trace walks were budgeted and the shuffle drew its
    # words in bulk: the default budget and the sampler change no byte
    code, out, _ = run_cli(
        capsys, "regular-random", "--d", "3", "--k", "2", "--n-list", "50,120",
        "--samples", "4", "--max-m", "6", "--seed", "0", "--threads", threads,
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4a78304440010d6e07cd5966dee1b80c15b6e84be01f2c8767a78d0e76a70e32"


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


def test_large_d_is_free_clt_on_k2(capsys):
    # K2^{*d} is the d-regular tree, so large-d is the free-clt table of K2
    # under its own labels
    labels = ("experiment", "graph", "param_name")
    for k in ("1", "2", "3"):
        tables = []
        for argv in (
            ("large-d", "--k", k, "--d-list", "3,10,50"),
            ("free-clt", "--graph", "builtin:k2", "--k", k, "--N", "3,10,50"),
        ):
            code, out, _ = run_cli(capsys, *argv, "--max-m", "6", "--format", "json")
            assert code == 0
            tables.append(json.loads(out)["rows"])
        large, free = tables
        assert len(large) == len(free) == 21
        for a, b in zip(large, free):
            assert tuple(a[key] for key in labels) == ("large-d", "tree", "d")
            assert tuple(b[key] for key in labels) == ("free-clt", "k2", "N")
            for key in labels:
                del a[key], b[key]
            assert a == b


def test_tree_check_honours_the_walk_budget(capsys):
    # the 3-regular tree at k = 2, max_m = 8 charges 3 * (2 + 8 * 10) = 246
    # Jacobi-chain updates for its reference first, then 84 walk expansions:
    # the 1 + 2 letters of its segment pool, then the turn scans, stacks and
    # mass updates of each step, each before it is built
    argv = ("tree-check", "--d", "3", "--k", "2", "--max-m", "8")
    for budget in ("1", "83", "245"):
        code, out, err = run_cli(capsys, *argv, "--walk-budget", budget)
        assert (code, out) == (2, "")
        assert err == (
            f"error[BUDGET]: budget exceeded: 246 Jacobi-chain updates (budget {budget})\n"
        )
    code, _, _ = run_cli(capsys, *argv, "--walk-budget", "246")
    assert code == 0
    tree = free_power(complete_graph(2), 3)
    for budget, count in ((1, 3), (83, 84)):
        with pytest.raises(BudgetExceededError) as info:
            vacuum_moments_distance_k(tree, 2, 8, Budgets(budget))
        assert str(info.value) == f"budget exceeded: {count} walk expansions (budget {budget})"
    assert len(vacuum_moments_distance_k(tree, 2, 8, Budgets(84))) == 9
    # large-d and free-clt on K2 skip every cell over the budget
    for argv in (
        ("large-d", "--k", "2", "--d-list", "3,10"),
        ("free-clt", "--graph", "builtin:k2", "--k", "2", "--N", "3,10"),
    ):
        code, out, err = run_cli(
            capsys, *argv, "--max-m", "8", "--walk-budget", "1", "--format", "json"
        )
        rows = json.loads(out)["rows"]
        assert (code, err) == (0, "")
        assert len(rows) == 18 and all(row["skipped"] for row in rows)


def test_usage_errors_exit_1(capsys):
    for argv in (
        ("tree-check", "--d", "3"),                                   # missing --k
        ("free-clt", "--graph", "builtin:k3", "--k", "2", "--N", "8,4"),  # not increasing
        ("free-clt", "--graph", "nosuchscheme:k3", "--k", "1", "--N", "2"),
        ("moments",),                                                  # no graph, no law
        ("km-density", "--d", "2", "--points", "1", "--range", "0,1"),
        ("large-d", "--k", "1", "--d-list", "2,3", "--threads", "0"),
        ("free-clt", "--graph", "builtin:c4", "--k", "2", "--N", "2", "--walk-budget", "-5"),
        ("hist", "--law", "semicircle", "--ball-budget", "-1"),
        ("moments", "--law", "km:3", "--which", "trace", "--max-m", "2"),  # --which needs --graph
        ("tree-check", "--d", "3", "--k", "2", "--timing"),           # --timing is JSON-only
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error[USAGE]:"), (argv, err)


def test_input_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "tree-check", "--d", "3", "--k", "0")
    assert code == 1 and err.startswith("error[INPUT]:")
    code, _, err = run_cli(capsys, "moments", "--graph", "file:/nonexistent/x.graph")
    assert code == 1 and err.startswith("error[INPUT]:")
    for argv in (
        ("regular-random", "--d", "3", "--k", "2", "--n-list", "10", "--samples", "0"),
        ("hist", "--law", "semicircle", "--samples", "0"),
        ("cycles", "--d", "3", "--j", "3", "--n-list", "10", "--samples", "0"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err == "error[INPUT]: samples must be positive\n", (argv, err)
    for argv in (("moments", "--law", "km:x"), ("hist", "--law", "km:x")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err == "error[INPUT]: --law km:D needs an integer D\n", (argv, err)
    for which in ("vacuum", "trace"):
        code, _, err = run_cli(
            capsys, "moments", "--graph", "builtin:k3", "--which", which, "--max-m", "-1"
        )
        assert code == 1 and err == "error[INPUT]: max_m must be nonnegative\n", (which, err)


def test_hist_checks_bins_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking --bins")

    monkeypatch.setattr(cli, "sample_law", no_sampling)
    code, _, err = run_cli(capsys, "hist", "--law", "semicircle", "--bins", "0")
    assert code == 1 and err == "error[INPUT]: bins must be positive\n"


def test_hist_checks_transform_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking --transform")

    monkeypatch.setattr(cli, "sample_law", no_sampling)
    for transform in ("bogus", "p:x", "q:3", "q:3:y"):
        code, _, err = run_cli(capsys, "hist", "--law", "semicircle", "--transform", transform)
        assert code == 1, transform
        assert err == (
            "error[USAGE]: --transform must be none, p:K, or q:D:K with integers D, K\n"
        ), (transform, err)


def test_free_decomp_check_checks_k_and_radius_before_the_rows(capsys, monkeypatch):
    # _check_words is the first thing the check builds
    def no_rows(*args, **kwargs):
        raise AssertionError("built the check's words before checking k and the radius")

    monkeypatch.setattr(freeprod, "_check_words", no_rows)
    argv = ("decomp-check", "--mode", "free", "--graph", "builtin:c4", "--N", "3")
    code, _, err = run_cli(capsys, *argv, "--k", "2", "--radius", "8")
    assert (code, err) == (1, "error[INPUT]: decomposition check needs k >= 3\n")
    code, _, err = run_cli(capsys, *argv, "--k", "3", "--radius", "4")
    assert (code, err) == (1, "error[INPUT]: radius 4 < k + 2 = 5\n")


def test_square_check_honours_the_walk_budget(tmp_path, capsys):
    # the star K_{1,199}: 199^2 two-step pairs through its centre and one
    # through each leaf, 39800 in all, charged before any row is built
    path = tmp_path / "star.txt"
    star = from_edge_list(200, [(0, v) for v in range(1, 200)], 0)
    path.write_text(format_graph_text(star))
    argv = ("decomp-check", "--mode", "square", "--graph", f"file:{path}")
    for budget in ("1", "39799"):
        code, out, err = run_cli(capsys, *argv, "--walk-budget", budget)
        assert (code, out) == (2, "")
        assert err == f"error[BUDGET]: budget exceeded: 39800 two-step pairs (budget {budget})\n"
    code, out, _ = run_cli(capsys, *argv, "--walk-budget", "39800")
    assert code == 0
    assert out.split("\n")[1] == "decomp-check,star.txt,mode,square,2,,0,0,0,"


def test_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "decomp-check", "--mode", "free", "--graph", "builtin:k3",
        "--N", "2", "--k", "3", "--radius", "5", "--walk-budget", "10",
    )
    assert code == 2
    assert err.startswith("error[BUDGET]:")


def test_hist_and_km_density_charge_the_ball_budget_first(capsys, monkeypatch):
    # the values a command holds are charged before any is sampled or built
    def no_sampling(*args):
        raise AssertionError("sampled before charging the ball budget")

    monkeypatch.setattr(cli, "sample_law", no_sampling)
    hist = ("hist", "--law", "semicircle")
    for argv, what in [
        ((*hist, "--samples", "10", "--bins", "21"), "21 histogram bins"),
        ((*hist, "--samples", "21", "--bins", "5"), "21 histogram samples"),
        (("km-density", "--d", "3", "--points", "21", "--range", "-1,1"), "21 density points"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--ball-budget", "20")
        assert code == 2 and out == "", argv
        assert err == f"error[BUDGET]: budget exceeded: {what} (budget 20)\n", argv
    monkeypatch.undo()
    code, out, _ = run_cli(
        capsys, "hist", "--law", "semicircle", "--samples", "20", "--bins", "20",
        "--ball-budget", "20",
    )
    assert code == 0 and len(out.splitlines()) == 21
    code, out, _ = run_cli(
        capsys, "km-density", "--d", "3", "--points", "20", "--range", "-1,1",
        "--ball-budget", "20",
    )
    assert code == 0 and len(out.splitlines()) == 21


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "free", "--graph", "builtin:k3", "--N", "3", "--k", "3", "--radius", "7"),
        ("--mode", "tree", "--d", "3", "--k", "3", "--radius", "17"),
    ],
)
def test_decomp_check_rows_honour_the_walk_budget(argv):
    # the rows are charged before the first
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "freespec.cli", "decomp-check", *argv, "--walk-budget", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[BUDGET]: budget exceeded: ")
    assert lines[0].endswith(" check-row letters (budget 1)")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            "decomp-check --mode tree --d 2 --k 20000 --radius 20002",
            "at least 2^20017 check-row letters",
        ),
        (
            "decomp-check --mode tree --d 2 --k 200000 --radius 200002",
            "at least 2^200020 check-row letters",
        ),
        ("moments --graph builtin:k3 --max-m 200000", "599994 vacuum-walk expansions"),
    ],
)
def test_huge_charges_are_refused_at_once(argv, err):
    # each charge is found without raising every power it sums, and a count
    # past Python's int-to-str digit limit prints from its bit length
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "freespec.cli", *argv.split(), "--walk-budget", "1"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error[BUDGET]: budget exceeded: {err} (budget 1)\n"


def _matching_file(directory, n):
    """The path of a perfect matching on n vertices, in the graph text format."""
    path = directory / f"matching{n}.txt"
    path.write_text(format_graph_text(from_edge_list(n, [(v, v + 1) for v in range(0, n, 2)], 0)))
    return path


def _run_in_800_mb(argv):
    """The CLI on argv in a child held to 800 MB of address space and 60 s."""
    resource = pytest.importorskip("resource")
    limit = 800 * 2**20

    def limit_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "freespec.cli", *argv.split()],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )


@pytest.mark.parametrize(
    "argv",
    [
        "decomp-check --mode free --graph builtin:k3 --N 3 --k 3 --radius 7 --walk-budget 1",
        "decomp-check --mode tree --d 3 --k 3 --radius 17 --walk-budget 1",
        "decomp-check --mode tree --d 2 --k 200000 --radius 200002 --walk-budget 1",
        "decomp-check --mode tree --d 3 --k 2 --radius 20000",
        "decomp-check --mode free --graph builtin:k3 --N 2 --k 3 --radius 20000",
        "decomp-check --mode tree --d 2 --k 2 --radius 30000",
        "moments --graph builtin:k3 --max-m 200000 --walk-budget 1",
        "regular-random --d 3 --k 13 --n-list 20000 --samples 1 --max-m 2 --walk-budget 1",
        "km-density --d 3 --points 30000000 --range -1,1",
        "hist --law semicircle --samples 30000000",
        "hist --law semicircle --samples 10 --bins 300000000",
        "free-clt --graph builtin:k4 --k 1 --N 2305843009213693951 --max-m 3",
        "free-clt --graph builtin:k4 --k 6 --N 8 --max-m 2",
        "hist --law semicircle --samples 20 --bins 3 --transform q:1000:400",
        "regular-random --d 3 --k 3000000 --n-list 4 --samples 1 --max-m 2",
        "tree-check --d 3 --k 10000 --max-m 2",
        "tree-check --d 3 --k 4 --max-m 100000",
        "moments --law semicircle --max-m 20000",
        "large-d --k 14000 --d-list 3 --max-m 2",
        "moments --graph file:{matching4000} --which trace --max-m 4000",
        "cycles --d 4 --j 100000 --n-list 2,300 --samples 2",
        "hist --law semicircle --samples 7 --bins 5 --transform p:1000000000",
    ],
)
def test_adversarial_argv_keep_the_budget_contract(argv, tmp_path):
    # each argv would blow up without its budget: within 60 s and 800 MB of
    # address space it ends with a documented exit code, and a failure says
    # so in one error line, not a traceback
    if "{matching4000}" in argv:
        argv = argv.format(matching4000=_matching_file(tmp_path, 4000))
    proc = _run_in_800_mb(argv)
    assert proc.returncode in (0, 1, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and re.fullmatch(r"error\[[A-Z]+\]: .+", lines[0]), lines


@pytest.mark.parametrize(
    "argv",
    [
        "decomp-check --mode free --graph builtin:k4 --N 6 --k 3 --radius 6",
        "decomp-check --mode free --graph builtin:k3 --N 4 --k 3 --radius 7",
        "decomp-check --mode free --graph builtin:k4 --N 6 --k 3 --radius 7",
    ],
)
def test_a_check_past_the_interior_ball_reads_one_row_per_type(argv):
    # a row for each interior word, of 976,339 and 74,649 in the first two,
    # would pass the default walk budget of 10^8; one row per type fits it,
    # and runs within 60 s and 800 MB.  The free check's rows are BFS to
    # depth k, charged for that depth: 5,446,350 letters for the third,
    # where rows to depth k + 1 would be charged 112,040,208
    proc = _run_in_800_mb(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].split(",")[6] == "0"


def test_a_default_report_on_disconnected_distance_k_graphs_writes_no_stderr():
    # a 2-regular pairing is a union of cycles, so its distance-3 graph is
    # built per component, and nothing is written to stderr
    proc = _run_in_800_mb("regular-random --d 2 --k 3 --n-list 300 --samples 1 --max-m 2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 4


def test_a_cell_past_the_word_pool_is_computed_from_types():
    # the k = 6 ball of k4^*8 holds about 10^8 words; over types the cell
    # takes 55 walk expansions, within 60 s and 800 MB.  m = 2 counts the
    # 8 * 3 * 21^5 words of length 6, over (N sigma)^6 = 24^6
    proc = _run_in_800_mb("free-clt --graph builtin:k4 --k 6 --N 8 --max-m 2")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [row[6] for row in rows] == ["1", "0", f"{8 * 3 * 21**5 / 24**6:.12g}"]


@pytest.mark.parametrize(
    "argv",
    [
        "large-d --d-list 1000 --k 20000 --max-m 2 --walk-budget 1",
        "regular-random --d 3 --k 3000000 --n-list 4 --samples 1 --max-m 2 --walk-budget 1",
    ],
)
def test_a_report_with_every_row_skipped_computes_no_reference(argv):
    # a skipped row shows no reference, so none is computed: P_20000 and
    # Q_3000000 are never built, and the report is out at once
    proc = _run_in_800_mb(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 3 and all(row[6:] == ["", "", "", ""] for row in rows)


def test_a_deep_trace_is_charged_only_for_the_walks_it_takes(capsys):
    # the excursions of k4 stop at depth (min(n, max_m) - 1) // 2 = 1, so
    # --max-m 1000 is charged as --max-m 4 is: 12 expansions per vertex
    argv = ("moments", "--graph", "builtin:k4", "--which", "trace", "--max-m", "1000")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    digest = "0522a59edd022d6ae8f36ef02a7dec0322f1eeeaae65bb9e37c72f7aec3310dd"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert run_cli(capsys, *argv, "--walk-budget", "48") == (0, out, "")
    expected = "error[BUDGET]: budget exceeded: 48 trace-walk expansions (budget 47)\n"
    assert run_cli(capsys, *argv, "--walk-budget", "47") == (2, "", expected)


def test_budget_errors_print_counts_past_the_digit_limit():
    # a count Python can print prints as it is; a longer one by its bit length
    digits = sys.get_int_max_str_digits()
    wide = BudgetExceededError(10 ** (digits - 1), 7, "words")
    assert str(wide) == f"budget exceeded: 1{'0' * (digits - 1)} words (budget 7)"
    wider = BudgetExceededError(2**20000 * 3, 7, "words")
    assert str(wider) == "budget exceeded: at least 2^20001 words (budget 7)"


def test_pairing_retries_exit_2_without_blaming_feasibility(capsys):
    # 6-regular graphs on 200 vertices exist; the rejection sampler gives up,
    # in a worker process too
    for threads in ("1", "2"):
        code, _, err = run_cli(
            capsys, "regular-random", "--d", "6", "--k", "1", "--n-list", "200",
            "--samples", "2", "--threads", threads,
        )
        assert code == 2
        assert err.startswith("error[BUDGET]:")
        assert "1000 pairings" in err and "exp(-(d^2-1)/4)" in err
        assert "infeasible" not in err
        code, _, err = run_cli(
            capsys, "regular-random", "--d", "7", "--k", "1", "--n-list", "8",
            "--samples", "2", "--threads", threads,
        )
        assert code == 2
        assert err.startswith("error[BUDGET]: no simple graph in 1000 pairings")
        # an odd n*d is still an input error
        code, _, err = run_cli(
            capsys, "regular-random", "--d", "3", "--k", "1", "--n-list", "5",
            "--threads", threads,
        )
        assert code == 1 and err.startswith("error[INPUT]:")


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


def test_timing_is_json_only(capsys):
    # CSV has nowhere to put the wall time, so the pair is refused
    for argv in (("--timing",), ("--timing", "--format", "csv")):
        code, out, err = run_cli(capsys, "tree-check", "--d", "3", "--k", "2", *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error[USAGE]: --timing is JSON-only: it needs --format json\n"
    with pytest.raises(SystemExit):
        cli.main(["tree-check", "--help"])
    assert "JSON meta; JSON only" in " ".join(capsys.readouterr().out.split())


def test_regular_random_charges_the_distance_k_graph_before_pairing(capsys, monkeypatch):
    # the distance-13 graph of a 3-regular graph on 20000 vertices may hold
    # 20000 * min(19999, 3 * 2^12) = 245760000 entries, far past a budget of 1
    def never(*args, **kwargs):
        raise AssertionError("paired or built a graph past the walk budget")

    monkeypatch.setattr(regular, "pairing_model", never)
    monkeypatch.setattr(regular, "distance_k_graph", never)
    code, out, err = run_cli(
        capsys, "regular-random", "--d", "3", "--k", "13", "--n-list", "20000",
        "--samples", "1", "--max-m", "2", "--walk-budget", "1",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3 and all(row[6:] == ["", "", "", ""] for row in rows)
    with pytest.raises(BudgetExceededError, match="245760000 distance-k graph entries"):
        regular.trace_sample(3, 13, 20000, 2, 0, 0, errors.Budgets(245759999))


def test_moments_takes_graph_or_law_not_both(capsys):
    code, out, err = run_cli(capsys, "moments", "--graph", "builtin:k3", "--law", "km:3")
    assert (code, out) == (1, "")
    assert err == "error[USAGE]: moments takes --graph or --law, not both\n"
    # --which picks the state of a graph, so a law refuses it
    for which in ("vacuum", "trace"):
        code, out, err = run_cli(capsys, "moments", "--law", "km:3", "--which", which)
        assert (code, out) == (1, ""), which
        assert err == "error[USAGE]: --which applies to --graph, not --law\n"
    # with --graph it defaults to the vacuum state
    default = run_cli(capsys, "moments", "--graph", "builtin:c4", "--max-m", "4")
    assert default == run_cli(
        capsys, "moments", "--graph", "builtin:c4", "--which", "vacuum", "--max-m", "4"
    )


def test_moments_and_hist_reject_an_unknown_law_alike(capsys):
    # km:x gives one line in both too: test_input_errors_exit_1
    for command in ("moments", "hist"):
        code, out, err = run_cli(capsys, command, "--law", "foo")
        assert (code, out) == (1, ""), command
        assert err == "error[INPUT]: --law must be semicircle or km:D\n", command


SQUARE = ("decomp-check", "--mode", "square", "--graph", "builtin:c5")
TREE = ("decomp-check", "--mode", "tree", "--d", "3", "--k", "2", "--radius", "5")
FREE = ("decomp-check", "--mode", "free", "--graph", "builtin:k3", "--k", "3", "--radius", "5")


@pytest.mark.parametrize("argv", [TREE, (*FREE, "--N", "2")])
def test_decomp_check_takes_no_ball_budget(capsys, argv):
    # the checks build no ball: one row per word type, held to --walk-budget
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--ball-budget", "10")
    assert (code, out, err) == (1, "", "error[USAGE]: unrecognized arguments: --ball-budget 10\n")


@pytest.mark.parametrize("argv, code, err", [
    (("free-clt", "--graph", "builtin:k3", "--k", "1", "--N", "2,x"), 1,
     "error[USAGE]: --N expects a comma-separated integer list\n"),
    (("free-clt", "--graph", "builtin:k3", "--k", "1", "--N", ""), 1,
     "error[USAGE]: --N must not be empty\n"),
    (("hist", "--law", "semicircle", "--samples", "50", "--transform", "q:3:2"), 0, ""),
    (("hist", "--law", "semicircle", "--samples", "50", "--transform", "p:0"), 0, ""),
    (("decomp-check", "--mode", "square"), 1,
     "error[USAGE]: --mode square needs --graph\n"),
    (("decomp-check", "--mode", "tree", "--d", "3", "--k", "2"), 1,
     "error[USAGE]: --mode tree needs --d, --k, --radius\n"),
    (("decomp-check", "--mode", "free", "--graph", "builtin:k3", "--N", "2", "--k", "3"), 1,
     "error[USAGE]: --mode free needs --graph, --N, --k, --radius\n"),
    (("km-density", "--d", "3", "--range", "1"), 1, "error[USAGE]: --range expects lo,hi\n"),
    (("km-density", "--d", "3", "--range", "a,b"), 1,
     "error[USAGE]: --range expects numbers lo,hi\n"),
    # nan compares false with anything, so hi <= lo would not catch it
    (("km-density", "--d", "3", "--points", "3", "--range", "nan,1"), 1,
     "error[USAGE]: --range expects finite numbers lo,hi\n"),
    (("km-density", "--d", "3", "--points", "3", "--range", "-inf,1", "--format", "json"), 1,
     "error[USAGE]: --range expects finite numbers lo,hi\n"),
    # a flag the mode does not read (test_every_budget_flag_a_mode_takes_is_read
    # covers the budget flags of every mode)
    ((*SQUARE, "--d", "3"), 1, "error[USAGE]: --d applies to --mode tree, not --mode square\n"),
    ((*SQUARE, "--N", "2"), 1, "error[USAGE]: --N applies to --mode free, not --mode square\n"),
    ((*SQUARE, "--k", "3"), 1,
     "error[USAGE]: --k applies to --mode tree and --mode free, not --mode square\n"),
    ((*SQUARE, "--radius", "5"), 1,
     "error[USAGE]: --radius applies to --mode tree and --mode free, not --mode square\n"),
    ((*SQUARE, "--ball-budget", "5"), 1, "error[USAGE]: unrecognized arguments: --ball-budget 5\n"),
    # it used to report tree-d3 and never read k4
    ((*TREE, "--graph", "builtin:k4"), 1,
     "error[USAGE]: --graph applies to --mode square and --mode free, not --mode tree\n"),
    ((*TREE, "--N", "7"), 1, "error[USAGE]: --N applies to --mode free, not --mode tree\n"),
    ((*FREE, "--N", "2", "--d", "3"), 1,
     "error[USAGE]: --d applies to --mode tree, not --mode free\n"),
    ((*FREE, "--N", "2,3"), 1, "error[USAGE]: --N expects one integer in --mode free\n"),
    (("moments", "--law", "semicircle", "--ball-budget", "5"), 1,
     "error[USAGE]: unrecognized arguments: --ball-budget 5\n"),
])
def test_flag_errors_and_rare_flags(capsys, argv, code, err):
    got_code, _, got_err = run_cli(capsys, *argv)
    assert (got_code, got_err) == (code, err)


HUGE = "1" * 4400  # past Python's 4300-digit int-to-str limit


@pytest.mark.parametrize("argv, flag", [
    (("free-clt", "--graph", "builtin:k3", "--k", "1", "--max-m", "2", "--N", f"2,{HUGE}"), "--N"),
    (("large-d", "--k", "1", "--max-m", "2", "--d-list", HUGE), "--d-list"),
    (("regular-random", "--d", "3", "--k", "1", "--n-list", HUGE), "--n-list"),
    (("cycles", "--d", "3", "--j", "3", "--n-list", HUGE), "--n-list"),
    ((*FREE, "--N", HUGE), "--N"),
])
def test_an_integer_past_the_digit_limit_is_named(capsys, argv, flag):
    # it used to read as a malformed list, or as Python's raw message
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error[USAGE]: {flag} takes integers of at most 4300 digits (Python's limit)\n"


@pytest.mark.parametrize(
    "argv, span",
    [
        ("free-clt --graph builtin:c4 --k 2 --N 2 --max-m 4", "freeprod.vacuum_moments_distance_k"),
        (
            "regular-random --d 3 --k 2 --n-list 20 --samples 2 --max-m 4 --threads 1",
            "graphs.trace_moments",
        ),
    ],
)
def test_perfbench_traced_finds_every_name_it_wraps(tmp_path, argv, span):
    # perfbench/traced.py replaces functions by name in the modules that call
    # them, so a renamed one would fail only the benchmark: the traced run
    # must print the CLI's report byte for byte and record the layer's span
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    traced_py = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, traced_py, str(spans), *argv.split()],
        env=env, capture_output=True, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "freespec.cli", *argv.split()],
        env=env, capture_output=True, timeout=60,
    )
    assert (traced.returncode, traced.stderr) == (0, b""), traced.stderr
    assert plain.returncode == 0 and traced.stdout == plain.stdout
    doc = json.loads(spans.read_text())
    assert doc["exit"] == 0 and span in {name for _, _, name, *_ in doc["spans"]}


def test_surd_json_string(capsys):
    code, out, _ = run_cli(
        capsys, "free-clt", "--graph", "builtin:k3", "--k", "1", "--N", "3", "--max-m", "3",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][3]
    assert (row["m"], row["value_exact"], row["reference_exact"]) == (3, "sqrt(1/6)", "0")


@pytest.mark.parametrize("command", [
    (), ("tree-check",), ("free-clt",), ("large-d",), ("regular-random",), ("cycles",),
    ("decomp-check",), ("moments",), ("km-density",), ("hist",),
])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: freespec")


# one fast argv per subcommand and mode of cli._READS, within both default budgets
BUDGET_BASES = {
    ("tree-check", ""): "tree-check --d 3 --k 2 --max-m 4",
    ("free-clt", ""): "free-clt --graph builtin:k3 --k 2 --N 2 --max-m 2",
    ("large-d", ""): "large-d --k 2 --d-list 3 --max-m 2",
    ("regular-random", ""): "regular-random --d 3 --k 2 --n-list 20 --samples 1 --max-m 2",
    ("cycles", ""): "cycles --d 3 --j 3 --n-list 20 --samples 1",
    ("decomp-check", "--mode square"): "decomp-check --mode square --graph builtin:c5",
    ("decomp-check", "--mode tree"): "decomp-check --mode tree --d 3 --k 2 --radius 5",
    ("decomp-check", "--mode free"):
        "decomp-check --mode free --graph builtin:k3 --N 2 --k 3 --radius 5",
    ("moments", "--graph"): "moments --graph builtin:c4 --max-m 2",
    ("moments", "--law"): "moments --law semicircle --max-m 2",
    ("km-density", ""): "km-density --d 3 --points 3 --range -1,1",
    ("hist", ""): "hist --law semicircle --samples 10 --bins 2",
}


@pytest.mark.parametrize(
    "command, mode", [(command, mode) for command in cli._READS for mode in cli._READS[command]]
)
def test_every_budget_flag_a_mode_takes_is_read(capsys, command, mode):
    # a budget of 0 must refuse the run or skip a cell wherever the flag is
    # taken, and a flag a mode does not take is one usage error line
    argv = BUDGET_BASES[command, mode].split()
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    readers = cli._readers(cli._READS[command])
    for flag in ("--walk-budget", "--ball-budget"):
        code, out, err = run_cli(capsys, *argv, flag, "0")
        if mode in readers.get(flag, ()):
            assert code == 2 or (code == 0 and out != default), flag
        else:
            assert (code, out) == (1, ""), flag
            assert err.startswith("error[USAGE]: ") and err.count("\n") == 1, (flag, err)


# One row per budget stage: an argv, the flag of the stage's limit, and the
# smallest limit the argv fits.  246, 1800 and the hist and km-density
# sizes are the boundaries of the tests above, 10200 = 30 * 340 the free
# check of K3^{*2} at k = 3 (5 types within root distance 4, rows to depth
# 3 of D = 4: 340 scans of at most 4 to 8 letters), 109 the c4 walk budget of
# test_freeprod.py::test_walk_budget (its reference charges 78), 48 (12 per
# vertex) the k4 charge of test_graphs.py::test_trace_moments_budget, 98 =
# 2 * (1 + 8 * 6) the semicircle's chain of 6 levels at max_m 8, and 72 =
# 8 * 9 * 1 the determinant digits of an 8-vertex perfect matching at max_m
# 8 (B = 9 bits; its walks charge 32).  One less is refused with the
# stage's error line, or skips the cell where the subcommand skips; a
# reference is computed after the cells, so a refused one exits 2 there
# too.  {matching8} is the path of that matching's graph file.
STAGE_BOUNDARIES = [
    ("walk expansions", "free-clt --graph builtin:c4 --k 2 --N 2 --max-m 4", "--walk-budget", 109),
    ("check-row letters", "decomp-check --mode tree --d 3 --k 2 --radius 5",
     "--walk-budget", 1800),
    ("check-row letters", "decomp-check --mode free --graph builtin:k3 --N 2 --k 3 --radius 5",
     "--walk-budget", 10200),
    ("two-step pairs", "decomp-check --mode square --graph builtin:k4", "--walk-budget", 36),
    ("vacuum-walk expansions", "moments --graph builtin:k4 --max-m 4", "--walk-budget", 12),
    ("trace-walk expansions", "moments --graph builtin:k4 --which trace --max-m 4",
     "--walk-budget", 48),
    ("trace-walk expansions", "regular-random --d 3 --k 2 --n-list 20 --samples 2 --max-m 4",
     "--walk-budget", 840),
    ("determinant digits", "moments --graph file:{matching8} --which trace --max-m 8",
     "--walk-budget", 72),
    ("distance-k graph entries",
     "regular-random --d 3 --k 2 --n-list 20 --samples 2 --max-m 2", "--walk-budget", 120),
    ("cycle-enumeration nodes", "cycles --d 3 --j 4 --n-list 20 --samples 2",
     "--walk-budget", 131),
    ("Jacobi-chain updates", "tree-check --d 3 --k 2 --max-m 8", "--walk-budget", 246),
    ("Jacobi-chain updates", "large-d --k 2 --d-list 3 --max-m 8", "--walk-budget", 246),
    ("Jacobi-chain updates", "moments --law semicircle --max-m 8", "--walk-budget", 98),
    ("histogram samples", "hist --law semicircle --samples 21 --bins 5", "--ball-budget", 21),
    ("histogram bins", "hist --law semicircle --samples 10 --bins 21", "--ball-budget", 21),
    ("density points", "km-density --d 3 --points 21 --range -1,1", "--ball-budget", 21),
]
SKIPPING = ("free-clt", "large-d", "regular-random", "cycles")


@pytest.mark.parametrize(
    "stage, argv, flag, fits, threads",
    [
        pytest.param(
            stage, argv, flag, fits, threads,
            id=f"{argv.split()[0]}{' free' * ('--mode free' in argv)}:{stage}:{threads}",
        )
        for stage, argv, flag, fits in STAGE_BOUNDARIES
        for threads in (("1", "2") if argv.split()[0] in ("regular-random", "cycles") else ("1",))
    ],
)
def test_every_budget_stage_fits_its_limit_and_not_one_less(
    capsys, tmp_path, stage, argv, flag, fits, threads
):
    argv = argv.format(matching8=_matching_file(tmp_path, 8)).split()
    argv = [*argv, "--threads", threads, "--format", "json"]
    code, out, err = run_cli(capsys, *argv, flag, str(fits))
    assert (code, err) == (0, "")
    assert not any(row["skipped"] for row in json.loads(out)["rows"])
    code, out, err = run_cli(capsys, *argv, flag, str(fits - 1))
    if argv[0] in SKIPPING and stage != "Jacobi-chain updates":
        assert (code, err) == (0, "")
        assert all(row["skipped"] for row in json.loads(out)["rows"])
    else:
        assert (code, out) == (2, "")
        assert err == f"error[BUDGET]: budget exceeded: {fits} {stage} (budget {fits - 1})\n"


def test_the_stage_boundaries_cover_every_stage():
    # no subcommand builds a word ball: the library's distance_k_neighbors
    # charges it, and
    # test_freeprod.py::test_the_moore_bound_is_charged_radius_by_radius
    # checks that boundary
    library_only = {"ball vertices"}
    assert {stage for stage, *_ in STAGE_BOUNDARIES} == set(errors.STAGES) - library_only
