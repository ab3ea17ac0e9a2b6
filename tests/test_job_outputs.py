"""tools/job_outputs.py: which differences between two job dumps fail compare, every job against its golden output, and unrun."""
import importlib.util
import json
import pathlib
import re
import sys
import types

import pytest

_CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
_GOLDEN = _CHECKOUT / "tests" / "data" / "job_outputs.jsonl.gz"
_PATH = _CHECKOUT / "tools" / "job_outputs.py"
_spec = importlib.util.spec_from_file_location("job_outputs", _PATH)
job_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job_outputs)

_JOB = {"workload": "w", "argv": ["verify", "--seed", "1"], "rc": 0,
        "stdout": '{"name": "norm", "pass": true, "actual": 0.328125}\n', "stderr": ""}


def _dump(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize(
    "change, rc, said",
    [
        ({}, 0, "1 of 1 jobs byte-identical"),
        ({"stdout": _JOB["stdout"].replace("0.328125", "0.32812500000000006")}, 0, "largest relative float difference 1.69e-16"),
        ({"stdout": _JOB["stdout"].replace("0.328125", "0.32812500000328125")}, 1, "largest relative float difference 1e-11"),
        ({"stdout": _JOB["stdout"].replace("true", "false")}, 1, "stdout text differs"),
        ({"stdout": _JOB["stdout"].replace("norm", "energy")}, 1, "stdout text differs"),
        ({"stderr": "warning"}, 1, "stderr text differs"),
        ({"rc": 3}, 1, "exit code 0 != 3"),
        ({"argv": ["verify", "--seed", "7"]}, 1, "only in"),
    ],
    ids=["same", "float", "float-moved-1e-11", "pass-flag", "check-name", "stderr", "exit-code", "missing-job"],
)
def test_compare_fails_on_anything_but_float_digits(tmp_path, capsys, change, rc, said):
    a = _dump(tmp_path / "a.jsonl", [_JOB])
    b = _dump(tmp_path / "b.jsonl", [{**_JOB, **change}])
    assert job_outputs.compare(a, b) == rc
    assert said in capsys.readouterr().out


def test_compare_ends_with_the_largest_float_difference_and_its_job(tmp_path, capsys):
    """The last line names the largest relative float difference over all jobs, and the job it came from."""
    jobs = [{**_JOB, "argv": ["verify", "--seed", str(seed)]} for seed in (1, 7, 9)]
    moved = [dict(jobs[0]), {**jobs[1], "stdout": _JOB["stdout"].replace("0.328125", "0.3281250000001")},
             {**jobs[2], "stdout": _JOB["stdout"].replace("0.328125", "0.32812500000000006")}]
    assert job_outputs.compare(_dump(tmp_path / "a.jsonl", jobs), _dump(tmp_path / "b.jsonl", moved)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "largest relative float difference over all jobs: 3.05e-13 (w verify --seed 7)"
    assert job_outputs.compare(_dump(tmp_path / "c.jsonl", jobs), _dump(tmp_path / "d.jsonl", jobs)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "largest relative float difference over all jobs: 0"


def test_every_workload_job_gives_its_golden_output(tmp_path, capsys, monkeypatch):
    """All jobs of every workload at seeds 1 and 7, run again in this process: exit codes and text as in the golden dump.

    A change that moves an output regenerates the golden by the command in
    tools/job_outputs.py's docstring.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # dump sets these three
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "workloads", None)
    fresh = tmp_path / "fresh.jsonl"
    job_outputs.dump(fresh, _CHECKOUT)
    result = job_outputs.compare(_GOLDEN, fresh)
    assert result == 0, capsys.readouterr().out


def test_unrun_lists_the_statements_a_one_job_list_never_runs(capsys, monkeypatch):
    """One probabilistic verify at seeds 1 and 7: the lcu route is listed, the probabilistic route is not."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # unrun sets these two
    monkeypatch.setattr(sys, "path", list(sys.path))
    job = types.SimpleNamespace(argv=("verify", "--lattice", "chain:3:open:aligned", "--method", "probabilistic"))
    assert job_outputs.unrun(_CHECKOUT, {"one": lambda seed: [job]}) == 0
    *listed, last = capsys.readouterr().out.splitlines()
    missed, total = map(int, re.fullmatch(r"(\d+) of (\d+) statements inside functions ran on no job", last).groups())
    assert missed == len(listed) and 0 < missed < total
    functions = {line.split(" ")[1].rstrip(":") for line in listed}
    assert {"run_lcu", "run_mps", "born_probabilities"} <= functions
    assert not {"run_probabilistic", "probabilistic_method_circuit"} & functions
    assert all(line.startswith("src/vbsprep/") for line in listed)
