import json

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from test_harness import GOLDEN

from sdtlearn import harness, regression
from sdtlearn.cli import main
from sdtlearn.data import Dataset, dump_dataset, load_dataset
from sdtlearn.evaluation import ErrorReport
from sdtlearn.polynomials import dump_polynomial, load_polynomial
from sdtlearn.trees import StochasticTree, dump_tree, load_tree


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "tree": tmp_path / "tree.txt",
        "clean": tmp_path / "clean.txt",
        "bad": tmp_path / "bad.txt",
        "found": tmp_path / "found.txt",
        "poly": tmp_path / "poly.txt",
        "csv": tmp_path / "report.csv",
    }
    assert main(["gen-tree", "--n", "5", "--size", "6", "--stoch-fraction", "0.4",
                 "--seed", "3", "--out", str(paths["tree"])]) == 0
    assert main(["sample", "--tree", str(paths["tree"]), "--samples", "400",
                 "--seed", "4", "--out", str(paths["clean"])]) == 0
    return paths


def test_gen_and_sample(workspace):
    tree = load_tree(workspace["tree"].read_text())
    assert tree.n == 5 and tree.size == 6
    ds = load_dataset(workspace["clean"].read_text())
    assert ds.m == 400 and ds.corrupted_count == 0


def test_corrupt_find_eval_pipeline(workspace, capsys):
    assert main(["corrupt", "--data", str(workspace["clean"]), "--tree", str(workspace["tree"]),
                 "--eta", "0.1", "--adversary", "label_flip_margin", "--seed", "5",
                 "--out", str(workspace["bad"])]) == 0
    bad = load_dataset(workspace["bad"].read_text())
    assert bad.corrupted_count == 40

    assert main(["find", "--data", str(workspace["bad"]), "--depth", "3",
                 "--out", str(workspace["found"])]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {"empirical_error", "nodes_expanded", "cache_hits", "wall_time"} <= stats.keys()
    found = load_tree(workspace["found"].read_text())
    assert found.depth <= 3 and found.is_deterministic

    assert main(["eval", "--tree", str(workspace["tree"]), "--hypothesis", str(workspace["found"]),
                 "--method", "find", "--eta", "0.1", "--eps", "0.2", "--samples", "400",
                 "--adversary", "label_flip_margin", "--out", str(workspace["csv"])]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["method"] == "find"
    assert report["bound"] == pytest.approx(report["opt"] + 0.2 + 0.2)
    lines = workspace["csv"].read_text().splitlines()
    assert len(lines) == 2


def test_zero_variable_dataset_round_trips(tmp_path, capsys):
    # Rows over no variables dump as ` <label> <flag>`.
    tree, data, found = (tmp_path / name for name in ("tree.txt", "data.txt", "found.txt"))
    assert main(["gen-tree", "--n", "0", "--size", "1", "--out", str(tree)]) == 0
    assert main(["sample", "--tree", str(tree), "--samples", "3", "--out", str(data)]) == 0
    assert main(["find", "--data", str(data), "--depth", "2", "--out", str(found)]) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["error_count"] == 0
    assert load_tree(found.read_text()) == load_tree(tree.read_text())
    assert main(["eval", "--tree", str(tree), "--hypothesis", str(found), "--method", "find",
                 "--eps", "0.2"]) == 0


def test_regress_and_eval(workspace, capsys):
    assert main(["regress", "--data", str(workspace["clean"]), "--norm", "l2",
                 "--size-hint", "6", "--eps", "0.25", "--out", str(workspace["poly"])]) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["mode"] == "rounded"
    poly = load_polynomial(workspace["poly"].read_text())
    assert poly.n == 5

    assert main(["eval", "--tree", str(workspace["tree"]), "--hypothesis", str(workspace["poly"]),
                 "--method", "l2", "--eps", "0.25"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["method"] == "l2" and report["degree_budget"] == poly.d


@pytest.mark.parametrize("cfg,expected", GOLDEN, ids=["find", "l2", "l1"])
def test_eval_reproduces_pinned_reports(tmp_path, capsys, monkeypatch, cfg, expected):
    # Keep the target and hypothesis the experiment evaluated, then let
    # `eval` report on them from files.
    evaluated = []

    def keep(cfg, tree, hypothesis, depth, degree, rng):
        evaluated.append((tree, hypothesis, depth))
        return report(cfg, tree, hypothesis, depth, degree, rng)

    report = harness.report
    with monkeypatch.context() as patch:
        patch.setattr(harness, "report", keep)
        assert harness.run_experiment(cfg).to_json() == expected
    (tree, hypothesis, depth), = evaluated
    tree_path, hyp_path = tmp_path / "tree.txt", tmp_path / "hypothesis.txt"
    tree_path.write_text(dump_tree(tree))
    if isinstance(hypothesis, StochasticTree):
        hyp_path.write_text(dump_tree(hypothesis))
    else:
        hyp_path.write_text(dump_polynomial(hypothesis.poly))
    argv = ["eval", "--tree", str(tree_path), "--hypothesis", str(hyp_path),
            "--method", cfg.method, "--eta", repr(cfg.eta), "--eps", repr(cfg.eps),
            "--samples", str(cfg.m), "--seed", str(cfg.seed), "--adversary", cfg.adversary]
    if depth is not None:
        argv += ["--depth-budget", str(depth)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_eval_above_enumeration_cap_estimates_by_monte_carlo(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    assert main(["gen-tree", "--n", "25", "--size", "6", "--seed", "1", "--out", str(tree)]) == 0
    assert main(["eval", "--tree", str(tree), "--hypothesis", str(tree), "--method", "find",
                 "--eps", "0.2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["error_estimation"] == "monte_carlo" and report["n"] == 25
    assert 0.0 <= report["opt"] <= 1.0 and 0.0 <= report["hypothesis_error"] <= 1.0


def test_learners_ignore_the_flag_column(workspace, tmp_path, capsys):
    clean = load_dataset(workspace["clean"].read_text())
    commands = [
        ["find", "--depth", "3"],
        ["regress", "--norm", "l1", "--size-hint", "6", "--eps", "0.25"],
        ["regress", "--norm", "l2", "--size-hint", "6", "--eps", "0.25"],
    ]
    outputs = []
    for flag in (False, True):
        flagged = Dataset(clean.n, clean.zs, clean.ys, np.full(clean.m, flag))
        data, out = tmp_path / f"data_{flag}.txt", tmp_path / f"out_{flag}.txt"
        data.write_text(dump_dataset(flagged))
        printed = []
        for command in commands:
            assert main(command + ["--data", str(data), "--out", str(out)]) == 0
            stats = json.loads(capsys.readouterr().out)
            stats.pop("wall_time", None)  # measured, so it differs between runs
            printed.append((stats, out.read_text()))
        outputs.append(printed)
    assert outputs[0] == outputs[1]


def test_sweep_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(
        "n=5\ns=4\nm=300\neps=0.2\nmethod=find\nstoch_fraction=0.3\n"
        "adversary=label_flip_random\nseed=2\nmax_depth=3\n# comment line\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--etas", "0,0.1", "--trials", "3",
                 "--out", str(out)]) == 0
    agg_lines = capsys.readouterr().out.strip().splitlines()
    assert len(agg_lines) == 2
    first = json.loads(agg_lines[0])
    assert first["trials"] == 3 and first["method"] == "find"
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 6

    # Byte-identical on reruns: same config, same seeds, same CSV.
    again = tmp_path / "sweep2.csv"
    assert main(["sweep", "--config", str(cfg), "--etas", "0,0.1", "--trials", "3",
                 "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()


def test_config_values_coerced_by_field_type(tmp_path, capsys):
    outputs = []
    for eta in ("0", "0.0"):
        cfg = tmp_path / f"eta_{eta}.cfg"
        cfg.write_text(f"n=4\ns=3\nm=200\neps=0.25\neta={eta}\nseed=1\nmax_depth=2\n")
        out = tmp_path / f"eta_{eta}.csv"
        assert main(["sweep", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_text()))
    assert outputs[0] == outputs[1]
    assert ",0.0," in outputs[0][1].splitlines()[1]


def test_negative_zero_eta_reported_as_zero(tmp_path, capsys):
    outputs = []
    for etas in ("0", "-0"):
        out = tmp_path / f"eta_{etas}.csv"
        assert main(["sweep", "--n", "4", "--s", "2", "--m", "40", "--eps", "0.5", f"--etas={etas}",
                     "--trials", "1", "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_text()))
    assert outputs[0] == outputs[1]
    assert '"eta": 0.0' in outputs[0][0] and ",0.0," in outputs[0][1].splitlines()[1]


def test_badly_typed_config_value_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=5\ns=4\nm=100\neps=0.2\nseed=1.5\n")
    with pytest.raises(SystemExit, match="seed"):
        main(["sweep", "--config", str(cfg), "--trials", "1"])


def test_out_of_range_config_value_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=5\ns=4\nm=100\neps=2.0\n")
    with pytest.raises(SystemExit, match="eps must lie in"):
        main(["sweep", "--config", str(cfg), "--trials", "1"])


def _exit_message(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert "\n" not in message
    return message


def test_budget_and_solver_errors_exit_in_one_line(workspace, monkeypatch):
    message = _exit_message(["sweep", "--n", "16", "--s", "12", "--m", "200000",
                             "--eps", "0.25", "--method", "l1"])
    assert message.startswith("sdtlearn sweep: ") and "design matrix" in message

    regress = ["regress", "--data", str(workspace["clean"]), "--size-hint", "6", "--eps", "0.25"]
    with monkeypatch.context() as patch:
        patch.setattr(regression, "DESIGN_BYTES_CAP", 0)
        message = _exit_message(regress + ["--norm", "l2"])
    assert message.startswith("sdtlearn regress: ") and "design matrix" in message

    def failing(*args, **kwargs):
        return OptimizeResult(success=False, status=4, message="numerical difficulties", nit=0)

    monkeypatch.setattr(regression, "linprog", failing)
    message = _exit_message(regress + ["--norm", "l1"])
    assert message == "sdtlearn regress: LP solver failed: numerical difficulties"


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv,cause",
    [
        pytest.param(["regress", "--data", "{clean}", "--norm", "l2", "--size-hint", HUGE, "--eps", "0.25"],
                     None, id="regress-size-hint-past-float"),
        pytest.param(["regress", "--data", "{clean}", "--norm", "l1", "--size-hint", "8", "--eps", "1e-320"],
                     None, id="regress-eps-subnormal"),
        pytest.param(["sweep", "--n", "4", "--s", "8", "--m", "10", "--eps", "1e-200", "--method", "find"],
                     None, id="sweep-find-eps-tiny"),
        pytest.param(["sweep", "--n", "4", "--s", "8", "--m", "10", "--eps", "1e-200", "--method", "find",
                      "--max-depth", HUGE], None, id="sweep-find-eps-tiny-cap-past-float"),
        pytest.param(["sweep", "--n", "4", "--s", HUGE, "--m", "10", "--eps", "0.2", "--method", "l2"],
                     "tree size must lie in [1, 65536]", id="sweep-s-past-float"),
    ],
)
def test_budgets_of_any_size_and_eps_give_a_result_or_one_line(workspace, capsys, argv, cause):
    # Each budget is computed in log space, so none of these overflows.
    argv = [arg.format(clean=workspace["clean"]) for arg in argv]
    if cause is None:
        assert main(argv) == 0
        assert capsys.readouterr().out
    else:
        message = _exit_message(argv)
        assert message.startswith(f"sdtlearn {argv[0]}: ") and cause in message


BAD_FILES = {
    "bad_tree": "n=3\nQ 5\nL 0\nL 1\n",
    "bad_data": "n=3 m=1\n01 0 0\n",
    "bad_poly": "n=3 d=1\nnot a monomial line\n",
    "wide_data": "n=30 m=1\n" + "0" * 30 + " 1 0\n",
    "unpackable_data": "n=63 m=1\n" + "1" * 63 + " 1 0\n",
    "narrow_tree": "n=4\nQ 3\nL 0\nL 1\n",
    "wide_tree": "n=8\nQ 7\nL 0\nL 1\n",
    "deep_tree": "n=1\n" + "S 0.5\nL 1\n" * 3000 + "L 1\n",
    "feature_cap_cfg": "n=5\ns=4\nm=100\neps=0.2\nfeature_cap=100\n",
    "nan_poly": "n=5 d=1\n:nan\n",
    "overflowing_poly": "n=5 d=2\n:1e308\n0:1e308\n1:-1e308\n0,1:-1e308\n",
}

EVAL = ["eval", "--tree", "{tree}", "--hypothesis", "{tree}", "--method", "find"]


@pytest.mark.parametrize(
    "argv,cause",
    [
        pytest.param(["eval", "--tree", "{bad_tree}", "--hypothesis", "{tree}", "--method", "find",
                      "--eps", "0.2"], "out of range", id="malformed-tree"),
        pytest.param(["find", "--data", "{bad_data}", "--depth", "2"], "has 2 bits, expected 3",
                     id="malformed-dataset"),
        pytest.param(["eval", "--tree", "{tree}", "--hypothesis", "{bad_poly}", "--method", "l2",
                      "--eps", "0.2"], "monomial line", id="malformed-polynomial"),
        pytest.param(["eval", "--tree", "{tree}", "--hypothesis", "{nan_poly}", "--method", "l2",
                      "--eps", "0.2"], "non-finite coefficient", id="eval-nan-polynomial"),
        pytest.param(["eval", "--tree", "{tree}", "--hypothesis", "{overflowing_poly}", "--method", "l2",
                      "--eps", "0.2"], "half the largest double", id="eval-overflowing-polynomial"),
        pytest.param(["gen-tree", "--n", "3", "--size", "0"], "size", id="gen-tree-size-0"),
        pytest.param(["gen-tree", "--n", "30", "--size", "65537"], "tree size must lie in [1, 65536]",
                     id="gen-tree-over-leaf-cap"),
        pytest.param(["sweep", "--n", "30", "--s", "65537", "--m", "50", "--eps", "0.2",
                      "--max-depth", "2"], "tree size must lie in [1, 65536]", id="sweep-s-over-leaf-cap"),
        pytest.param(["regress", "--data", "{clean}", "--norm", "l2", "--size-hint", "6",
                      "--eps", "inf"], "finite eps", id="regress-eps-inf"),
        pytest.param(["find", "--data", "{clean}", "--depth", "-1"], "depth", id="find-depth-neg"),
        pytest.param(["corrupt", "--data", "{clean}", "--tree", "{tree}", "--eta", "2"], "eta",
                     id="corrupt-eta-2"),
        pytest.param(["regress", "--data", "{clean}", "--norm", "l2", "--size-hint", "0",
                      "--eps", "0.25"], "size", id="regress-size-hint-0"),
        pytest.param(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                      "--etas", "0.1,abc"], "abc", id="sweep-eta-not-a-number"),
        pytest.param(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                      "--etas", "0.1,1.5"], "eta must lie in", id="sweep-eta-out-of-range"),
        pytest.param(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                      "--trials", "0"], "trials must be positive", id="sweep-trials-0"),
        pytest.param(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                      "--etas", "0.05,0.05", "--trials", "2"], "repeats a value", id="sweep-eta-repeated"),
        pytest.param(["find", "--data", "{wide_data}", "--depth", "6"], "search table",
                     id="find-depth-over-table-cap"),
        pytest.param(["find", "--data", "{missing}", "--depth", "2"], "No such file",
                     id="find-missing-data"),
        pytest.param(["find", "--data", "{unpackable_data}", "--depth", "2"],
                     "at most 62 variables", id="find-data-over-62-variables"),
        pytest.param(["gen-tree", "--n", "63", "--size", "2"], "at most 62 variables",
                     id="gen-tree-over-62-variables"),
        pytest.param(["gen-tree", "--n", "3", "--size", "2", "--out", "{unwritable}"],
                     "No such file", id="gen-tree-unwritable-out"),
        pytest.param(["corrupt", "--data", "{clean}", "--tree", "{narrow_tree}", "--eta", "0.1",
                      "--adversary", "label_flip_margin"], "tree is over 4 variables, sample over 5",
                     id="corrupt-narrower-tree"),
        pytest.param(["corrupt", "--data", "{clean}", "--tree", "{wide_tree}", "--eta", "0.1",
                      "--adversary", "example_replace"], "tree is over 8 variables, sample over 5",
                     id="corrupt-wider-tree"),
        pytest.param(EVAL + ["--eps", "0.2", "--eta", "2"], "eta must lie in", id="eval-eta-2"),
        pytest.param(EVAL + ["--eps", "-3"], "eps must lie in", id="eval-eps-neg"),
        pytest.param(EVAL + ["--eps", "0.2", "--samples", "-5"], "m must be nonnegative",
                     id="eval-samples-neg"),
        pytest.param(EVAL + ["--eps", "0.2", "--depth-budget", "-4"], "max_depth must be nonnegative",
                     id="eval-depth-budget-neg"),
        pytest.param(["eval", "--tree", "{deep_tree}", "--hypothesis", "{tree}", "--method", "find",
                      "--eps", "0.2"], "nests deeper than", id="eval-deeply-nested-tree"),
        pytest.param(["sweep", "--config", "{feature_cap_cfg}"], "unknown config key 'feature_cap'",
                     id="sweep-config-feature-cap"),
    ],
)
def test_bad_input_exits_in_one_line(workspace, tmp_path, argv, cause):
    paths = {key: str(path) for key, path in workspace.items()}
    paths["missing"] = str(tmp_path / "missing.txt")
    paths["unwritable"] = str(tmp_path / "no-such-dir" / "tree.txt")
    for key, text in BAD_FILES.items():
        (tmp_path / key).write_text(text)
        paths[key] = str(tmp_path / key)
    message = _exit_message([arg.format(**paths) for arg in argv])
    assert message.startswith(f"sdtlearn {argv[0]}: ")
    assert cause in message


def test_eval_rejects_unknown_adversary(workspace, capsys):
    argv = [arg.format(**{key: str(path) for key, path in workspace.items()}) for arg in EVAL]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--eps", "0.2", "--adversary", "bogus"])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_eval_reports_negative_zero_eta_as_zero(workspace, capsys):
    argv = [arg.format(**{key: str(path) for key, path in workspace.items()}) for arg in EVAL]
    reports = []
    for eta in ("0", "-0.0"):
        assert main(argv + ["--eps", "0.2", f"--eta={eta}"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert '"eta": 0.0' in reports[0]


def test_sweep_opens_output_before_running(tmp_path, monkeypatch):
    def no_experiments(cfg):
        raise AssertionError("experiment run before the output path was checked")

    monkeypatch.setattr(harness, "run_experiment", no_experiments)
    message = _exit_message(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                             "--out", str(tmp_path / "no-such-dir" / "report.csv")])
    assert message.startswith("sdtlearn sweep: ") and "No such file" in message


def test_sweep_streams_configs_and_rows(tmp_path, monkeypatch):
    # Configs are made and rows written one experiment at a time, so a sweep
    # far too long to hold in memory starts at once and keeps the rows it ran.
    run, seeds = harness.run_experiment, []

    def three_then_fail(cfg):
        if len(seeds) == 3:
            raise ValueError("stopped after 3 experiments")
        seeds.append(cfg.seed)
        return run(cfg)

    monkeypatch.setattr(harness, "run_experiment", three_then_fail)
    out = tmp_path / "sweep.csv"
    message = _exit_message(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2", "--max-depth", "2",
                             "--trials", str(10**30), "--out", str(out)])
    assert message == "sdtlearn sweep: stopped after 3 experiments"
    assert seeds == [0, 1, 2]
    rows = out.read_text().splitlines()
    assert rows[0] == ErrorReport.csv_header() and len(rows) == 4


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=5\nwhatever=1\n")
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(cfg), "--trials", "1"])
