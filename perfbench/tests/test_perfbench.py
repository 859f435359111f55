"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The workload tests shrink the job lists and set up once, so a run of
each workload takes seconds (``paper_eval`` still regenerates the whole
evaluation, about a minute with its traced pass).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import paper, serving  # noqa: E402
from perfbench.common import GateFailure, WorkDir  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Small job lists and a single set-up per run."""
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "CLOSED_JOBS_PER_PROGRAM", 1)
    monkeypatch.setattr(serving, "CLOSED_ITEMS", 8)
    monkeypatch.setattr(serving, "BURST_JOBS", 48)
    monkeypatch.setattr(paper, "SETUP_REPEATS", 1)


def _assert_reports(outcome, trace: bool) -> None:
    result = outcome.result()
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    json.dumps(result)      # the printed line must be plain JSON


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "batch_closed", "gateway_burst", "paper_eval"]


@pytest.mark.parametrize("trace", [False, True])
def test_batch_closed_emits_every_metric(tiny, trace):
    outcome = serving.batch_closed(seed=3, seconds=0.5, trace=trace)
    _assert_reports(outcome, trace)
    if trace:
        layers = outcome.metrics
        assert layers["service.program_cache.hit_ratio"] == 1.0
        assert layers["freac.session.open_ms_per_wave"] > 0
        assert layers["freac.model.lut_evals_per_item"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_gateway_burst_emits_every_metric(tiny, trace):
    outcome = serving.gateway(seed=3, seconds=0.2, trace=trace)
    _assert_reports(outcome, trace)
    if trace:
        assert outcome.metrics["gateway.submit_us_p50"] > 0
        assert outcome.metrics["gateway.reroutes"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_paper_eval_emits_every_metric(tiny, trace):
    with WorkDir() as work:
        outcome = paper.paper_eval(seconds=0.1, trace=trace, work=work)
    _assert_reports(outcome, trace)
    if trace:
        assert outcome.metrics["cache.hierarchy.access_calls"] > 0
        assert outcome.metrics["experiments.fig15_s"] > 0


def test_verify_gate_trips_on_one_flipped_word():
    from repro.service import AcceleratorService
    from repro.workloads.datagen import dataset_for

    dataset = dataset_for("VADD", 2, seed=5)
    stream = next(iter(dataset.expected))
    dataset.expected[stream][1][0] ^= 1
    with AcceleratorService() as service:
        result = service.result(service.submit("VADD", 2, dataset=dataset))
    with pytest.raises(GateFailure, match="not verified"):
        serving.job_ok(result)


def test_model_counts_gate_trips_on_a_changed_count():
    model = serving.ModelCounts()
    model.per_key["VADD/m1"] = (77, 0, 3)
    model.check_reference({"VADD/m1": [77, 0, 3]})
    with pytest.raises(GateFailure):
        model.check_reference({"VADD/m1": [77, 0, 4]})
    with pytest.raises(GateFailure):
        model.check_reference({})


def test_paper_output_gate_names_the_first_differing_line():
    paper.check_output(b"a\nb\n", b"a\nb\n")
    with pytest.raises(GateFailure, match="line 2"):
        paper.check_output(b"a\nc\n", b"a\nb\n")


def test_same_seed_same_requests():
    assert serving.closed_loop_plan(7) == serving.closed_loop_plan(7)
    assert serving.closed_loop_plan(7) != serving.closed_loop_plan(8)
    assert serving.burst_plan(7, 30) == serving.burst_plan(7, 30)
    assert serving.burst_plan(7, 30) != serving.burst_plan(8, 30)


def test_lost_shard_invalidates_the_window():
    from types import SimpleNamespace

    def fleet(jobs, reroutes=0, restarts=0):
        aggregate = {"completed": jobs, "batches": jobs, "retries": 0,
                     "cache": {"hits": jobs, "misses": 0}}
        return SimpleNamespace(reroutes=reroutes, shard_restarts=restarts,
                               aggregate=aggregate)

    def window(after):
        return serving.Window(counters=serving.fleet_delta(fleet(10, 2, 1),
                                                           after))

    calm = window(fleet(20, 2, 1))
    assert calm.counters["gateway.reroutes"] == 0
    assert calm.invalid() == []
    for after in (fleet(20, reroutes=3, restarts=1),
                  fleet(20, reroutes=2, restarts=2)):
        assert any("lost a shard" in r for r in window(after).invalid())


def test_stale_work_dirs_are_removed(monkeypatch, tmp_path):
    from perfbench import common

    monkeypatch.setattr(common, "WORK_BASE", tmp_path / "work")
    dead = tmp_path / "work" / "999999999"
    (dead / "tmp").mkdir(parents=True)
    monkeypatch.setattr(common, "pid_alive", lambda pid: pid != 999999999)
    with WorkDir() as work:
        assert not dead.exists()
        assert work.path.is_dir()
    assert not work.path.exists()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    wrapped_child = tracer.wrap(child, "child")

    def parent():
        wrapped_child()
        wrapped_child()
        time.sleep(0.01)

    tracer.wrap(parent, "parent")()
    p, c = tracer.get("parent"), tracer.get("child")
    assert c.count == 2 and c.parents == {"parent"}
    assert p.parents == {None}
    assert p.self_s == pytest.approx(p.total_s - c.total_s, abs=1e-9)
    assert 0.005 < p.self_s < c.total_s


def test_tracer_patches_every_binding_and_restores_them():
    from repro.service import service as service_module
    from repro.workloads import datagen

    original = datagen.dataset_for
    with Tracer() as tracer:
        tracer.patch_function(original, "datagen")
        assert service_module.dataset_for is datagen.dataset_for
        assert datagen.dataset_for is not original
        service_module.dataset_for("VADD", 1)
    assert datagen.dataset_for is original
    assert service_module.dataset_for is original
    assert tracer.count("datagen") == 1


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


def test_a_run_leaves_git_status_unchanged():
    if not (ROOT / ".git").exists():
        pytest.skip("the checkout is not a git work tree")
    before = _git_status()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert _git_status() == before
    assert not (ROOT / ".perfbench_work").exists()


def _session_members(sid: int) -> list:
    """Pids of live (not zombie) processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_a_gateway_run_leaves_no_process_behind(tmp_path):
    """Shards and multiprocessing's resource tracker are stopped and
    reaped before the run exits.

    Output goes to files, not pipes: a helper that inherited a pipe would
    hold it open, and waiting for end-of-file would hide the helper.
    """
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as stdout, err.open("w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload",
             "gateway_burst", "--seed", "1", "--seconds", "0.1",
             "--trace", "0"],
            cwd=ROOT, stdout=stdout, stderr=stderr, start_new_session=True,
        )
        assert proc.wait(timeout=170) == 0, err.read_text()
    left = _session_members(proc.pid)
    assert left == []
    assert json.loads(out.read_text().splitlines()[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
