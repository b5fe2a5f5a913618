"""The three workloads: ``train``, ``sweep`` and ``search``.

Each workload object has the same parts, which ``bench`` drives:

* ``setup(ctx)`` makes the inputs from the seed (timed as ``setup_s``);
* ``prepare(ctx, state)`` computes references the checks need (untimed);
* ``run_pass(ctx, state, pass_dir, span)`` runs one closed-loop pass, which
  ``bench`` times, and returns the work items it did plus any in-memory
  results; ``span(name)`` wraps each command so a traced pass can attribute
  spans;
* ``verify(ctx, state, pass_dir, results)`` checks one pass's outputs and
  returns a comparable summary (checkpoint fingerprint, recalls, rankings);
* ``quality(summary)`` gives the quality figures of one verified pass,
  which are reported but are not metrics: they depend on the seed only;
* ``steps(ctx)`` gives the training steps one pass runs per stage kind.

The work items, which ``items_per_s`` counts, are padded token positions
for ``train``, texts scored per (layer, dim) cell for ``sweep`` and ranked
queries for ``search``.

``train`` and ``sweep`` drive ``m3enc.cli.main``, so only the config JSON
and the CLI flags are fixed here; ``search`` calls ``evalkit`` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from m3enc import data as D
from m3enc import evalkit as ek
from m3enc import objectives as obj
from m3enc import synth
from m3enc import tensor as T
from m3enc import trainer as tr

from .bench import Context, sub_seed
from .layers import STAGE_KINDS
from .oracle import Oracle, make_search_data, prefix


@dataclass(frozen=True)
class Sizes:
    n_layers: int = 4
    hidden: int = 128
    n_heads: int = 4
    max_seq: int = 32
    vocab_cap: int = 1000
    grid_layers: tuple[int, ...] = (2, 4)
    grid_dims: tuple[int, ...] = (16, 32, 64, 128)
    mono_docs: int = 2000
    train_pairs: int = 1000
    stage_steps: int = 8
    mlm_batch: int = 32
    pair_batch: int = 64
    tile: int = 16
    heldout_docs: int = 256
    eval_pairs: int = 1000
    eval_ks: tuple[int, ...] = (1, 10, 100)
    sweep_train_steps: int = 6
    index_rows: int = 20000
    queries: int = 2000
    query_batch: int = 125
    search_dims: tuple[int, ...] = (128, 16)


FULL = Sizes()
TINY = Sizes(n_layers=2, hidden=16, n_heads=2, max_seq=12, grid_layers=(1, 2),
             grid_dims=(4, 16), mono_docs=40, train_pairs=24, stage_steps=2, mlm_batch=4,
             pair_batch=8, tile=4, heldout_docs=8, eval_pairs=20, eval_ks=(1, 5, 10),
             sweep_train_steps=2, index_rows=300, queries=40, query_batch=16)


def _model(s: Sizes) -> dict:
    return {"n_layers": s.n_layers, "hidden": s.hidden, "n_heads": s.n_heads,
            "max_seq": s.max_seq, "vocab_size": s.vocab_cap,
            "granularity": {"layers": list(s.grid_layers), "dims": list(s.grid_dims)}}


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# train: the staged pipeline as four chained CLI commands
# ---------------------------------------------------------------------------


@dataclass
class TrainInputs:
    configs: list[tuple[str, str, Path]]  # (stage kind, CLI command, config)
    heldout: list[str]


class TrainWorkload:
    """pretrain_mlm -> distill -> pretrain_contrastive -> sft_mrl, each one
    CLI command resuming from the previous command's ``final.m3ck``."""
    def setup(self, ctx: Context) -> TrainInputs:
        s, seed, root = ctx.sizes, ctx.seed, ctx.workdir / "inputs"
        root.mkdir(parents=True, exist_ok=True)
        mono = synth.generate_mlm_corpus(s.mono_docs, seed=sub_seed(seed, "mono"))
        pairs = synth.generate_pair_corpus(s.train_pairs, seed=sub_seed(seed, "pairs"))
        synth.write_text_corpus(root / "mono.txt", mono)
        synth.write_pair_corpus(root / "pairs.tsv", pairs)
        synth.write_text_corpus(root / "vocab.txt", mono + [f"{q} {d}" for q, d in pairs])
        n = s.stage_steps
        common = {"steps": n, "lr": 1e-3, "warmup_steps": 1, "grad_clip": 1.0,
                  "checkpoint_every": max(1, n // 2)}
        mono_ref = {"kind": "mono", "path": "mono.txt"}
        pair_ref = {"kind": "pairs", "path": "pairs.tsv"}
        pair_lens = {"query_len": s.max_seq // 2, "doc_len": s.max_seq}
        top = [max(s.grid_layers), max(s.grid_dims)]
        stages = [
            ("pretrain_mlm", "pretrain", {"name": "mlm", "stage": "pretrain_mlm",
                                          "data": mono_ref, "batch_size": s.mlm_batch,
                                          "seq_len": s.max_seq}),
            ("distill", "distill", {"name": "distill", "stage": "distill", "data": mono_ref,
                                    "batch_size": s.mlm_batch, "seq_len": s.max_seq,
                                    "distill": {"mode": "all_from_top", "teacher": top}}),
            ("pretrain_contrastive", "pretrain", {
                "name": "contrastive", "stage": "pretrain_contrastive", "data": pair_ref,
                "batch_size": s.pair_batch, "tile": s.tile, **pair_lens}),
            ("sft_mrl", "sft", {"name": "sft_mrl", "stage": "sft_mrl", "data": pair_ref,
                                "batch_size": s.pair_batch, "tile": s.tile,
                                "sft_layer": top[0], "sft_dims": list(s.grid_dims),
                                **pair_lens}),
        ]
        configs = []
        for kind, command, stage in stages:
            cfg = {"seed": seed, "output_dir": "out", "precision": "float32",
                   "model": _model(s), "vocab_corpus": "vocab.txt",
                   "stages": [dict(common, **stage)]}
            configs.append((kind, command, _write_json(root / f"{kind}.json", cfg)))
        heldout = synth.generate_mlm_corpus(s.heldout_docs, seed=sub_seed(seed, "heldout"))
        return TrainInputs(configs=configs, heldout=heldout)

    def prepare(self, ctx: Context, inputs: TrainInputs) -> None:
        pass

    def steps(self, ctx: Context) -> dict[str, int]:
        return {kind: ctx.sizes.stage_steps for kind in STAGE_KINDS}

    def run_pass(self, ctx: Context, inputs: TrainInputs, pass_dir: Path, span):
        s = ctx.sizes
        final = pass_dir / "final.m3ck"
        for i, (kind, command, config) in enumerate(inputs.configs):
            argv = [command, "--config", str(config), "--output", str(pass_dir),
                    "--threads", "1"]
            if i:
                argv += ["--resume", str(final)]
            with span(kind):
                ctx.ops.command(f"train.{kind}", argv)
        mlm_positions = s.mlm_batch * s.max_seq  # pretrain_mlm, distill
        pair_positions = s.pair_batch * (s.max_seq // 2 + s.max_seq)  # query + doc
        return 2 * s.stage_steps * (mlm_positions + pair_positions), None

    def verify(self, ctx: Context, inputs: TrainInputs, pass_dir: Path, _) -> dict | None:
        ok, state = ctx.ops.call("train.load_final", tr.load_checkpoint,
                                 pass_dir / "final.m3ck")
        if not ok:
            return None
        return {"fingerprint": tr.params_fingerprint(state.params),
                "heldout_mlm_loss": self._heldout_loss(ctx, state, inputs.heldout)}

    @staticmethod
    def _heldout_loss(ctx: Context, state, docs: list[str]) -> float:
        """Full-grid MLM loss of the checkpoint on one fixed held-out batch."""
        source = D.MlmSource(state.vocab, docs, seq_len=ctx.sizes.max_seq, mask_rate=0.15)
        batch = source.batch(np.random.default_rng(sub_seed(ctx.seed, "heldout-batch")),
                             len(docs))
        with T.no_grad():
            report = obj.matryoshka_mlm_loss(state.params, state.config, batch)
        return report.total

    def quality(self, summary: dict) -> dict:
        print(f"train: final.m3ck params fingerprint {summary['fingerprint']}")
        return {"train.heldout_mlm_loss": summary["heldout_mlm_loss"]}


# ---------------------------------------------------------------------------
# sweep: eval at one cell plus a dim sweep and a layer sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepInputs:
    ckpt: Path
    eval_path: Path
    n_texts: int  # queries + distinct docs


class SweepWorkload:
    """``m3enc eval`` at the top cell, a dim sweep at the top layer and a
    layer sweep at the full width, over a checkpoint trained in set-up."""
    def setup(self, ctx: Context) -> SweepInputs:
        s, seed, root = ctx.sizes, ctx.seed, ctx.workdir / "inputs"
        root.mkdir(parents=True, exist_ok=True)
        pairs = synth.generate_pair_corpus(s.eval_pairs, seed=sub_seed(seed, "eval"))
        train = synth.generate_pair_corpus(s.train_pairs, seed=sub_seed(seed, "pairs"))
        synth.write_pair_corpus(root / "eval.tsv", pairs)
        synth.write_pair_corpus(root / "train.tsv", train)
        synth.write_text_corpus(root / "vocab.txt", [f"{q} {d}" for q, d in train + pairs])
        cfg = {"seed": seed, "output_dir": "out", "precision": "float32",
               "model": _model(s), "vocab_corpus": "vocab.txt",
               "stages": [{"name": "contrastive", "stage": "pretrain_contrastive",
                           "data": {"kind": "pairs", "path": "train.tsv"},
                           "steps": s.sweep_train_steps, "batch_size": s.pair_batch,
                           "lr": 3e-4, "tile": s.tile, "query_len": s.max_seq // 2,
                           "doc_len": s.max_seq}]}
        config = _write_json(root / "setup.json", cfg)
        out = root / "ckpt"
        ctx.ops.command("sweep.setup_train", ["pretrain", "--config", str(config),
                                              "--output", str(out), "--threads", "1"])
        n_texts = len(set(pairs)) + len({d for _, d in set(pairs)})
        return SweepInputs(ckpt=out / "final.m3ck", eval_path=root / "eval.tsv",
                           n_texts=n_texts)

    def prepare(self, ctx: Context, inputs: SweepInputs) -> None:
        pass

    def steps(self, ctx: Context) -> dict[str, int]:
        return {}

    def run_pass(self, ctx: Context, inputs: SweepInputs, pass_dir: Path, span):
        s = ctx.sizes
        top_layer, width = s.n_layers, s.hidden
        common = [str(inputs.ckpt), str(inputs.eval_path), "--k", _csv(s.eval_ks),
                  "--threads", "1"]
        runs = [
            ("eval", ["eval", *common, "--layer", str(top_layer), "--dim", str(width),
                      "--output", str(pass_dir / "eval")]),
            ("dim", ["sweep", *common, "--axis", "dim", "--values", _csv(s.grid_dims),
                     "--layer", str(top_layer), "--output", str(pass_dir / "dim")]),
            ("layer", ["sweep", *common, "--axis", "layer",
                       "--values", _csv(range(1, s.n_layers + 1)), "--dim", str(width),
                       "--output", str(pass_dir / "layer")]),
        ]
        for part, argv in runs:
            with span(part):
                ctx.ops.command(f"sweep.{part}", argv)
        cells = 1 + len(s.grid_dims) + s.n_layers
        return cells * inputs.n_texts, None

    def verify(self, ctx: Context, inputs: SweepInputs, pass_dir: Path, _) -> dict | None:
        s = ctx.sizes
        ok, found = ctx.ops.call("sweep.read_outputs", self._read, pass_dir)
        if not ok:
            return None
        eval_recalls, dim_curves, layer_curves = found
        # the top cell appears in both sweeps; each must equal eval exactly
        for axis, curves, value in (("dim", dim_curves, s.hidden),
                                    ("layer", layer_curves, s.n_layers)):
            cell = {k: pts[value] for k, pts in curves.items()}
            ctx.ops.check(f"sweep.{axis}_matches_eval", cell == eval_recalls,
                          f"{axis} sweep at the top cell {cell} vs eval {eval_recalls}")
        return {"eval": eval_recalls, "dim": dim_curves, "layer": layer_curves}

    @staticmethod
    def _read(pass_dir: Path):
        report = json.loads((pass_dir / "eval" / "report.json").read_text(encoding="utf-8"))
        eval_recalls = {int(k): v for k, v in report["recalls"].items()}

        def curves(axis):
            raw = json.loads((pass_dir / axis / f"sweep-{axis}.json").read_text(
                encoding="utf-8"))
            return {c["k"]: {p["axis_value"]: p["recall"] for p in c["points"]} for c in raw}

        return eval_recalls, curves("dim"), curves("layer")

    def quality(self, summary: dict) -> dict:
        """``eval``'s recall@10 at the top cell."""
        return {"sweep.eval.recall_at_10": summary["eval"][10]}


# ---------------------------------------------------------------------------
# search: exact top-k over a seeded index at two widths
# ---------------------------------------------------------------------------


@dataclass
class SearchCell:
    index: ek.EmbeddingIndex
    queries: np.ndarray
    oracle: Oracle | None = None
    expected: np.ndarray | None = None  # the oracle's top-k row indices


@dataclass
class SearchInputs:
    truth: list[str]
    cells: dict[int, SearchCell]  # by dim


class SearchWorkload:
    """``evalkit.exact_topk`` + ``recall_at_k`` over topic-clustered unit
    rows with exact duplicates, at the full width and a short prefix."""
    def setup(self, ctx: Context) -> SearchInputs:
        s = ctx.sizes
        data = make_search_data(sub_seed(ctx.seed, "search"), s.index_rows, s.queries,
                                max(s.search_dims))
        cells = {}
        for d in s.search_dims:
            rows = data.rows if d == data.rows.shape[1] else prefix(data.rows, d)
            queries = data.queries if d == data.rows.shape[1] else prefix(data.queries, d)
            index = ek.EmbeddingIndex(ids=tuple(data.ids), embeddings=rows,
                                      provenance={"source": "perfbench", "dim": d})
            cells[d] = SearchCell(index, queries)
        return SearchInputs(truth=data.truth, cells=cells)

    def prepare(self, ctx: Context, inputs: SearchInputs) -> None:
        """The oracle's rankings, computed once per run."""
        for cell in inputs.cells.values():
            cell.oracle = Oracle(cell.index.embeddings)
            cell.expected = cell.oracle.topk(cell.queries, max(ctx.sizes.eval_ks))

    def steps(self, ctx: Context) -> dict[str, int]:
        return {}

    def run_pass(self, ctx: Context, inputs: SearchInputs, pass_dir: Path, span):
        s = ctx.sizes
        k = max(s.eval_ks)
        results = {}
        for d, cell in inputs.cells.items():
            index, queries = cell.index, cell.queries
            rankings = []
            with span(f"d{d}"):
                for start in range(0, len(queries), s.query_batch):
                    batch = queries[start:start + s.query_batch]
                    ok, got = ctx.ops.call(f"search.d{d}.exact_topk", ek.exact_topk,
                                           index, batch, k)
                    rankings.extend(got if ok else [[]] * len(batch))
                ok, recalls = ctx.ops.call(f"search.d{d}.recall_at_k", lambda: {
                    kk: ek.recall_at_k(rankings, inputs.truth, kk) for kk in s.eval_ks})
            results[d] = (rankings, recalls)
        return len(inputs.truth) * len(inputs.cells), results

    def verify(self, ctx: Context, inputs: SearchInputs, pass_dir: Path, results) -> dict:
        s = ctx.sizes
        summary = {}
        for d, cell in inputs.cells.items():
            queries, oracle, expected = cell.queries, cell.oracle, cell.expected
            rankings, recalls = results[d]
            ids = [[int(doc_id[1:]) for doc_id, _ in r] for r in rankings]
            for start in range(0, len(queries), s.query_batch):
                bad = [(qi, why) for qi in range(start, min(start + s.query_batch, len(queries)))
                       if (why := oracle.check(queries[qi], ids[qi], expected[qi]))]
                ctx.ops.check(f"search.d{d}.matches_oracle", not bad,
                              f"{len(bad)} queries, first: query {bad[0][0]}: {bad[0][1]}"
                              if bad else "")
            ranked_ids = [[doc_id for doc_id, _ in r] for r in rankings]
            want = {kk: sum(t in r[:kk] for r, t in zip(ranked_ids, inputs.truth))
                    / len(inputs.truth) for kk in s.eval_ks}
            ctx.ops.check(f"search.d{d}.recall_matches", recalls == want,
                          f"recall_at_k {recalls} vs recomputed {want}")
            summary[d] = {"recalls": recalls, "ids": ids}
        return summary

    def quality(self, summary: dict) -> dict:
        """recall@10 at every width."""
        return {f"search.d{d}.recall_at_10": v["recalls"][10]
                for d, v in summary.items() if v["recalls"]}


WORKLOADS = {"train": TrainWorkload(), "sweep": SweepWorkload(), "search": SearchWorkload()}
