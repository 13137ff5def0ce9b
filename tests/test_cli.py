import json

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from sdtlearn import harness, regression
from sdtlearn.cli import main
from sdtlearn.data import load_dataset
from sdtlearn.polynomials import load_polynomial
from sdtlearn.trees import load_tree


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


BAD_FILES = {
    "bad_tree": "n=3\nQ 5\nL 0\nL 1\n",
    "bad_data": "n=3 m=1\n01 0 0\n",
    "bad_poly": "n=3 d=1\nnot a monomial line\n",
    "wide_data": "n=30 m=1\n" + "0" * 30 + " 1 0\n",
}


@pytest.mark.parametrize(
    "argv,cause",
    [
        pytest.param(["eval", "--tree", "{bad_tree}", "--hypothesis", "{tree}", "--method", "find",
                      "--eps", "0.2"], "out of range", id="malformed-tree"),
        pytest.param(["find", "--data", "{bad_data}", "--depth", "2"], "has 2 bits, expected 3",
                     id="malformed-dataset"),
        pytest.param(["eval", "--tree", "{tree}", "--hypothesis", "{bad_poly}", "--method", "l2",
                      "--eps", "0.2"], "monomial line", id="malformed-polynomial"),
        pytest.param(["gen-tree", "--n", "3", "--size", "0"], "size", id="gen-tree-size-0"),
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
        pytest.param(["find", "--data", "{wide_data}", "--depth", "6"], "search table",
                     id="find-depth-over-table-cap"),
        pytest.param(["find", "--data", "{missing}", "--depth", "2"], "No such file",
                     id="find-missing-data"),
        pytest.param(["gen-tree", "--n", "3", "--size", "2", "--out", "{unwritable}"],
                     "No such file", id="gen-tree-unwritable-out"),
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


def test_sweep_opens_output_before_running(tmp_path, monkeypatch):
    def no_experiments(cfg):
        raise AssertionError("experiment run before the output path was checked")

    monkeypatch.setattr(harness, "run_experiment", no_experiments)
    message = _exit_message(["sweep", "--n", "4", "--s", "3", "--m", "50", "--eps", "0.2",
                             "--out", str(tmp_path / "no-such-dir" / "report.csv")])
    assert message.startswith("sdtlearn sweep: ") and "No such file" in message


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=5\nwhatever=1\n")
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(cfg), "--trials", "1"])
