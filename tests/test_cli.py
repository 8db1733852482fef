import json

import pytest

from schemegrad.cli import main


def test_compile_prints_slot_table(capsys):
    assert main(["compile", "--expr", "(* (+ x 1) (- y 2))", "--inputs", "x,y"]) == 0
    out = capsys.readouterr().out
    assert "slot[6] = slot[2] * slot[5]" in out


def test_compile_from_file(tmp_path, capsys):
    src = tmp_path / "prog.scm"
    src.write_text("; doubles the input\n(* 2 x)\n")
    assert main(["compile", "--source", str(src), "--inputs", "x"]) == 0
    assert "slot" in capsys.readouterr().out


def test_eval(capsys):
    assert main(["eval", "--expr", "(dot [1 2 3] [4 5 6])"]) == 0
    assert json.loads(capsys.readouterr().out) == 32.0


def test_eval_with_params(capsys):
    rc = main([
        "eval", "--expr", "(/ (* G (* m1 m2)) (pow r 2))",
        "--inputs", "m1,m2,r", "--params", "G",
        "--at", '{"m1": 1, "m2": 1, "r": 1}',
        "--param-values", '{"G": 6.674}',
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == 6.674


def test_grad(capsys):
    rc = main(["grad", "--expr", "(* x x)", "--inputs", "x", "--at", '{"x": 3}'])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["x"] == 6.0


def test_missing_program_is_config_error(capsys):
    assert main(["eval"]) == 2


def test_bad_json_is_config_error(capsys):
    assert main(["eval", "--expr", "x", "--inputs", "x", "--at", "{nope"]) == 2


def test_unreadable_source_is_config_error(tmp_path):
    assert main(["compile", "--source", str(tmp_path / "missing.scm")]) == 2


def test_parse_error_reported_as_error(capsys):
    assert main(["compile", "--expr", "(+ 1"]) == 2
    assert "error" in capsys.readouterr().err


def test_train_subcommand(tmp_path, capsys):
    cfg = {
        "source": "(* h f)",
        "inputs": ["f"],
        "params": {"h": 6.626},
        "ranges": {"f": [0.1, 4.0]},
        "noise": 0.02,
        "epochs": 1500,
        "batch": 1000,
        "seed": 3,
    }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "training_report.json").read_text())
    assert report["recovery_errors"]["h"] < 0.02
    assert (tmp_path / "out" / "loss_curve.csv").exists()


def test_train_without_config_is_error():
    assert main(["train"]) == 2


def test_experiment_bench_exit_contract(tmp_path, capsys):
    rc = main(["experiment", "bench", "--out", str(tmp_path)])
    assert rc == 0
    runs = list((tmp_path / "bench").iterdir())
    assert len(runs) == 1  # one timestamped run directory
    assert (runs[0] / "rows.csv").exists()
    assert (runs[0] / "rows.json").exists()
    assert (runs[0] / "report.md").exists()
    out = capsys.readouterr().out
    assert "amortization" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "warp"])


def test_option_the_experiment_does_not_take_is_config_error(tmp_path, capsys):
    assert main(["experiment", "heat", "--parallel", "2"]) == 2
    assert "config error" in capsys.readouterr().err
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"id": "bench", "options": {"parallel": 2}}))
    assert main(["experiment", "bench", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_numeric_input_value_is_config_error(capsys):
    assert main(["eval", "--expr", "x", "--inputs", "x", "--at", '{"x": "a"}']) == 2
    assert "config error" in capsys.readouterr().err


def test_json_that_is_not_an_object_is_config_error(capsys):
    assert main(["eval", "--expr", "x", "--inputs", "x", "--at", "[1, 2]"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["null", "true", "false", '"1.5"', "[1, null]", "[true, 2]",
                                   '["1.5"]', "NaN", "-Infinity", "1e999", "[[1], [1, 2]]",
                                   "[[1, 2], 3]", "[[[1]]]",
                                   pytest.param("[" * 900 + "1" + "]" * 900, id="nested900"),
                                   pytest.param("[" * 5000 + "1" + "]" * 5000, id="nested5000")])
@pytest.mark.parametrize("flag", ["--at", "--param-values"])
def test_value_that_is_no_finite_number_vector_or_matrix_is_config_error(capsys, flag, value):
    values = {"--at": '{"x": 1}', "--param-values": '{"k": 1}'}
    name = "x" if flag == "--at" else "k"
    values[flag] = f'{{"{name}": {value}}}'
    rc = main(["eval", "--expr", "(+ x k)", "--inputs", "x", "--params", "k",
               "--at", values["--at"], "--param-values", values["--param-values"]])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_finite_numbers_and_vectors_are_accepted(capsys):
    rc = main(["eval", "--expr", "(+ x k)", "--inputs", "x", "--params", "k",
               "--at", '{"x": [1, 2.5]}', "--param-values", '{"k": -1}'])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [0.0, 1.5]
