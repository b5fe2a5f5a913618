"""Tests of the benchmark itself: tiny smoke runs, the search oracle check,
failure accounting and the tracer's install/restore.

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

from m3enc import cli, data, evalkit, tensor
from perfbench import bench
from perfbench.layers import UNITS
from perfbench.oracle import NEAR_TIE, Oracle
from perfbench.workloads import TINY

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    return tmp_path


def run_main(capsys, *argv):
    assert bench.main([*argv, "--seconds", "0"], sizes=TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_every_metric():
    assert E2E == {"items_per_s", "setup_s", "peak_rss_mb"}
    assert PER_LAYER == set(UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == ["train", "search"]


@pytest.mark.parametrize("workload", ["train", "sweep", "search"])
def test_tiny_smoke(workload, capsys):
    result = run_main(capsys, "--workload", workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == E2E  # every workload reports every metric
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers_and_restores(capsys):
    originals = (tensor.matmul, data.encode_sequence, evalkit.encode_sequence,
                 tensor.Tensor.__dict__["backward"], data.MlmSource.__dict__["batch"])
    result = run_main(capsys, "--workload", "train", "--trace", "1")
    assert result["correct"], result
    assert set(result["metrics"]) == PER_LAYER
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tensor.op_calls_per_step.pretrain_mlm"] > 0
    assert m["trainer.sft_mrl.backward.ms_per_step"] > 0
    assert m["trainer.save_checkpoint.bytes"] > 0
    assert m["evalkit.exact_topk.ms"] == 0  # idle on train
    assert (tensor.matmul, data.encode_sequence, evalkit.encode_sequence,
            tensor.Tensor.__dict__["backward"], data.MlmSource.__dict__["batch"]) == originals


def test_tracer_wraps_from_imported_names():
    from perfbench.tracer import Tracer
    tracer = Tracer()
    restore = tracer.install("m3enc", ("data",))
    try:
        assert evalkit.encode_sequence is data.encode_sequence  # one wrapper, both places
        evalkit.encode_sequence(
            data.build_vocab(["a b"], max_size=10), "a b", 5)
    finally:
        restore()
    names = [s[0] for s in tracer.spans]
    assert "data.encode_sequence" in names and "data.build_vocab" in names
    assert not hasattr(evalkit.encode_sequence, "__wrapped__")


# ---------------------------------------------------------------------------
# search oracle check
# ---------------------------------------------------------------------------


@pytest.fixture
def tied():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 8)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    query = rows[3] + 0.05 * rng.standard_normal(8).astype(np.float32)
    query = (query / np.linalg.norm(query)).astype(np.float32)
    rows[17] = rows[3]  # exact duplicate: a tie broken by id
    oracle = Oracle(rows)
    expected = oracle.topk(query[None, :], 5)[0]
    assert list(expected[:2]) == [3, 17]
    return oracle, query, expected


def test_oracle_accepts_its_own_ranking(tied):
    oracle, query, expected = tied
    assert oracle.check(query, list(expected), expected) is None


def test_oracle_rejects_swapped_tie(tied):
    oracle, query, expected = tied
    swapped = [17, 3] + list(expected[2:])
    assert "exact tie" in oracle.check(query, swapped, expected)


def test_oracle_rejects_tie_cut_on_the_wrong_side(tied):
    oracle, query, expected = tied
    k1 = oracle.topk(query[None, :], 1)[0]
    assert "exact tie" in oracle.check(query, [17], k1)


def test_oracle_accepts_near_tie_in_either_order():
    rows = np.eye(4, dtype=np.float32)
    rows[1] = [np.sqrt(1 - 1e-6), 1e-3, 0, 0]
    rows[1] /= np.linalg.norm(rows[1])
    query = np.array([1, 0, 0, 0], dtype=np.float32)
    oracle = Oracle(rows)
    expected = oracle.topk(query[None, :], 2)[0]
    assert 0 < oracle.scores(query)[0, 0] - oracle.scores(query)[0, 1] < NEAR_TIE
    assert oracle.check(query, list(expected[::-1]), expected) is None
    assert oracle.check(query, [0, 2], expected) is not None  # a real miss


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


def test_failing_command_is_counted(monkeypatch, capsys):
    real = cli.main

    def flaky(argv):
        return 1 if argv[0] == "distill" else real(argv)

    monkeypatch.setattr(cli, "main", flaky)
    ops = bench.Ops()
    ctx = bench.make_context("train", 0, 0, TINY, ops, False)
    metrics = bench.run_workload(ctx, False)
    assert ops.outcomes["train.distill"] == [0, 1]  # one pass at --seconds 0
    assert ops.failed >= 1 and ops.attempted > ops.failed
    assert set(metrics) == E2E


def test_later_passes_are_compared_with_the_first():
    ops = bench.Ops()
    ctx = bench.make_context("search", 0, 0.3, TINY, ops, False)
    metrics = bench.run_workload(ctx, False)
    ok, bad = ops.outcomes["search.repeatable"]
    assert ok >= 1 and bad == 0 and len(ctx.samples["items_per_s"]) == ok + 1
    assert set(metrics) == E2E and len(ctx.samples["setup_s"]) == bench.SETUPS


def test_crashing_command_is_counted(monkeypatch):
    def crash(argv):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "main", crash)
    ops = bench.Ops()
    assert ops.command("x", ["eval"]) is None
    assert (ops.attempted, ops.failed, ops.outcomes["x"]) == (1, 1, [0, 1])


def test_failed_run_prints_incorrect_result(monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    assert bench.main(["--workload", "sweep", "--seconds", "0"], sizes=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == E2E
