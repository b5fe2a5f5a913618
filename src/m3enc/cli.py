"""Command-line entry point: config-driven training stages, evaluation,
trade-off sweeps, the architecture ablation harness, and synthetic data
generation.

Heavy imports happen inside the handlers so ``--threads`` can pin BLAS
thread counts before numpy loads. Exit codes: 0 success, 2 config/argument
validation failure, 1 runtime abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="m3enc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, resume=True, steps=True):
        sp.add_argument("--config", required=True, help="run config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--output", default=None, help="override config output dir")
        sp.add_argument("--threads", type=_positive_int, default=None,
                        help="BLAS thread count (1 = deterministic verification mode)")
        if resume:
            sp.add_argument("--resume", default=None, metavar="CKPT",
                            help="start from this checkpoint")
        if steps:
            sp.add_argument("--steps", type=int, default=None,
                            help="override the step count of every selected stage")

    common(sub.add_parser("pretrain", help="run the pretraining stages"))
    common(sub.add_parser("sft", help="run the supervised fine-tuning stages"))
    common(sub.add_parser("distill", help="run the distillation continuation stages"))

    ev = sub.add_parser("eval", help="exact-search retrieval evaluation")
    ev.add_argument("ckpt", help="checkpoint file")
    ev.add_argument("data", help="pair corpus (query<TAB>doc)")
    ev.add_argument("--layer", type=int, required=True)
    ev.add_argument("--dim", type=int, required=True)
    ev.add_argument("--k", default="1,10,100", help="comma-separated cutoffs")
    ev.add_argument("--output", default="eval-out")
    ev.add_argument("--threads", type=_positive_int, default=None)

    sw = sub.add_parser("sweep", help="dimension/layer trade-off sweep")
    sw.add_argument("ckpt")
    sw.add_argument("data")
    sw.add_argument("--axis", choices=("dim", "layer"), required=True)
    sw.add_argument("--values", required=True, help="comma-separated axis values")
    sw.add_argument("--layer", type=int, default=None, help="fixed layer for a dim sweep")
    sw.add_argument("--dim", type=int, default=None, help="fixed dim for a layer sweep")
    sw.add_argument("--k", default="10")
    sw.add_argument("--output", default="sweep-out")
    sw.add_argument("--threads", type=_positive_int, default=None)

    ab = sub.add_parser("ablate", help="architecture ablation harness")
    common(ab, resume=False, steps=True)

    gd = sub.add_parser("gen-data", help="write a seeded synthetic corpus")
    gd.add_argument("--kind", choices=("mono", "multi", "pairs"), required=True)
    gd.add_argument("--out", required=True)
    gd.add_argument("--seed", type=int, default=0)
    gd.add_argument("--n", type=_positive_int, default=2000,
                    help="documents or pairs to generate")
    return p


# glibc malloc parameters (mallopt): requests below M_MMAP_THRESHOLD come
# from the heap, and free() gives the heap's top back to the OS only once it
# exceeds M_TRIM_THRESHOLD. At the defaults, the tape a training step frees
# goes back to the OS and the next step's forward faults it in again.
# M_ARENA_MAX 1 keeps the tape's worker thread on that same heap.
_MALLOPT = ((-3, 32 << 20),  # M_MMAP_THRESHOLD: 32 MiB
            (-1, 1 << 30),   # M_TRIM_THRESHOLD: 1 GiB
            (-8, 1))         # M_ARENA_MAX: one arena


def _keep_freed_heap() -> None:
    """Set ``_MALLOPT`` where the C library has ``mallopt``; else do nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def _setup_runtime(args, parser: argparse.ArgumentParser) -> None:
    _keep_freed_heap()
    level = os.environ.get("M3_LOG", "error").lower()
    if level not in LOG_LEVELS:
        parser.error(f"M3_LOG must be one of {sorted(LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(level=LOG_LEVELS[level],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if getattr(args, "threads", None) is None:
        return
    # BLAS reads its thread count once, as numpy loads: after that a write
    # would change nothing but the environment of the calling process
    if "numpy" in sys.modules:
        logging.getLogger("m3enc").info("numpy already loaded: --threads has no effect")
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)


def _parse_int_list(text: str, flag: str) -> list[int]:
    from .errors import ConfigError
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"{flag} must be a comma-separated integer list, got {text!r}") from e
    if not values or min(values) < 1:
        raise ConfigError(f"{flag} must be a non-empty list of positive integers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _build_source(spec, vocab):
    from . import data as D
    if spec.data.kind == "mono":
        docs = D.read_text_corpus(spec.data.path)
        return D.MlmSource(vocab, docs, seq_len=spec.seq_len,
                           mask_rate=spec.stage.mask_rate, policy=spec.stage.mask_policy)
    if spec.data.kind == "multi":
        groups = D.read_multilingual_corpus(spec.data.path)
        return D.MultilingualMlmSource(vocab, groups, seq_len=spec.seq_len,
                                       mask_rate=spec.stage.mask_rate,
                                       smoothing=spec.smoothing,
                                       policy=spec.stage.mask_policy)
    pairs = D.cap_per_query(D.dedup_pairs(D.ingest_pairs(spec.data.path)), cap=64)
    return D.PairSource(vocab, pairs, query_len=spec.query_len,
                        doc_len=spec.doc_len)


def _vocab_text_source(run, specs):
    from . import data as D
    if run.vocab_corpus is not None:
        return D.read_text_corpus(run.vocab_corpus)
    for spec in specs:
        if spec.data.kind == "mono":
            return D.read_text_corpus(spec.data.path)
        if spec.data.kind == "pairs":
            return [f"{r.query} {r.doc}" for r in D.ingest_pairs(spec.data.path)]
    from .errors import ConfigError
    raise ConfigError("cannot build a vocabulary: set vocab_corpus or include a "
                      "mono/pairs stage")


def _check_resume(run, specs, state, resume) -> None:
    """Refuse a checkpoint whose model or precision disagrees with the config
    the stages were validated against, or whose seed does when the first stage
    resumes from it mid-way; at a stage boundary the config's seed takes over."""
    from .errors import ConfigError

    ckpt, cfg = state.config, run.model
    problems = [f"model.{f.name}: checkpoint {getattr(ckpt, f.name)!r}, "
                f"config {getattr(cfg, f.name)!r}"
                for f in dataclasses.fields(cfg)
                if f.name != "vocab" and getattr(ckpt, f.name) != getattr(cfg, f.name)]
    if ckpt.vocab > cfg.vocab:
        problems.append(f"model.vocab_size: checkpoint vocabulary has {ckpt.vocab} entries, "
                        f"config allows {cfg.vocab}")
    dtype = state.params.token_embedding.dtype.name
    if dtype != run.precision:
        problems.append(f"precision: checkpoint {dtype}, config {run.precision}")
    first = specs[0].stage
    if first.name == state.stage and state.step < first.steps and state.base_seed != run.seed:
        problems.append(f"seed: checkpoint {state.base_seed}, config {run.seed} (stage "
                        f"{first.name} resumes at step {state.step} of {first.steps})")
    if problems:
        raise ConfigError(f"--resume {resume} does not match the config:\n  "
                          + "\n  ".join(problems))


def _fresh_state(run, model, vocab):
    """A new TrainState of ``model`` over ``vocab``, initialized from the run's
    seed at its precision."""
    import numpy as np

    from . import encoder as enc
    from . import trainer as tr

    model = dataclasses.replace(model, vocab=vocab.size)
    params = enc.init_parameters(model, seed=run.seed, dtype=np.dtype(run.precision))
    return tr.TrainState(config=model, params=params, opt=None, step=0, stage="",
                         base_seed=run.seed, vocab=vocab)


def _initial_state(run, specs, resume):
    from . import data as D
    from . import trainer as tr

    if resume is not None:
        state = tr.load_checkpoint(resume)
        _check_resume(run, specs, state, resume)
        state.base_seed = run.seed
        return state
    vocab = D.build_vocab(_vocab_text_source(run, specs), max_size=run.model.vocab)
    return _fresh_state(run, run.model, vocab)


def _load_run(args, specs_of):
    """The run config of ``--config`` with ``--seed`` and ``--output`` applied,
    and the stage specs ``specs_of(run)`` selects, with ``--steps`` applied.
    A stage is rebuilt with the new step count, so the count is validated."""
    from .config import load_run_config

    run = load_run_config(args.config)
    if args.seed is not None:
        run.seed = args.seed
    if args.output is not None:
        run.output_dir = Path(args.output)
    specs = specs_of(run)
    if args.steps is not None:
        for spec in specs:
            spec.stage = dataclasses.replace(spec.stage, steps=args.steps)
    return run, specs


def _open_sink(run, state):
    """The run's ``metrics.jsonl`` sink, headed by its seed, precision,
    ``state``'s parameter count and the config file's sha256."""
    from . import trainer as tr

    return tr.JsonlSink(run.output_dir / "metrics.jsonl", seed=run.seed,
                        precision=run.precision, param_count=state.params.count(),
                        config_sha256=run.config_sha256)


def _load_eval_target(args):
    """The checkpoint, ``--k`` cutoffs and evaluation pairs of ``eval`` or ``sweep``."""
    from . import evalkit as ek
    from . import trainer as tr

    ks = _parse_int_list(args.k, "--k")
    return tr.load_checkpoint(args.ckpt), ks, ek.read_eval_pairs(args.data)


def _run_training(args, kinds: tuple[str, ...]) -> int:
    from . import trainer as tr
    from .errors import ConfigError, writing

    run, specs = _load_run(args, lambda run: [s for s in run.stages if s.stage.stage in kinds])
    if not specs:
        raise ConfigError(f"config has no stage of kind {kinds}")
    state = _initial_state(run, specs, args.resume)
    pairs = [(spec.stage, _build_source(spec, state.vocab)) for spec in specs]
    sink = _open_sink(run, state)
    try:
        final = run.output_dir / "final.m3ck"
        with writing(run.output_dir):
            state = tr.run_stages(pairs, state, sink, output_dir=run.output_dir)
            tr.save_checkpoint(state, final)
        print(f"done: {len(specs)} stage(s); final checkpoint {final}")
    finally:
        sink.close()
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    return _run_training(args, ("pretrain_mlm", "pretrain_contrastive"))


def cmd_sft(args) -> int:
    return _run_training(args, ("sft_mrl",))


def cmd_distill(args) -> int:
    return _run_training(args, ("distill",))


def cmd_eval(args) -> int:
    from . import evalkit as ek
    from .errors import ConfigError, writing

    state, ks, (queries, docs, truth) = _load_eval_target(args)
    if not (1 <= args.dim <= state.config.hidden):
        raise ConfigError(f"--dim {args.dim} outside [1, {state.config.hidden}]")
    if not (1 <= args.layer <= state.config.n_layers):
        raise ConfigError(f"--layer {args.layer} outside [1, {state.config.n_layers}]")
    [report] = ek.evaluate(state.params, state.config, state.vocab, queries, docs, truth,
                           cells=[(args.layer, args.dim)], ks=ks)
    out = Path(args.output)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        ek.write_report_files(report, out / "report.json", out / "report.csv")
    for k in sorted(report.recalls):
        print(f"recall@{k} = {report.recalls[k]:.4f} (layer={args.layer}, dim={args.dim})")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    from . import evalkit as ek
    from .errors import ConfigError, writing

    values = _parse_int_list(args.values, "--values")
    if values != sorted(set(values)):
        raise ConfigError(f"--values must be strictly increasing, got {args.values!r}")
    fixed, free = ("layer", "dim") if args.axis == "dim" else ("dim", "layer")
    if getattr(args, fixed) is None or getattr(args, free) is not None:
        raise ConfigError(f"a {args.axis} sweep takes a fixed --{fixed} and no --{free}")
    cells = [(args.layer, v) if args.axis == "dim" else (v, args.dim) for v in values]
    state, ks, (queries, docs, truth) = _load_eval_target(args)
    reports = ek.evaluate(state.params, state.config, state.vocab, queries, docs, truth,
                          cells=cells, ks=ks)
    out = Path(args.output)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        ek.write_curve_files(args.axis, reports, out / f"sweep-{args.axis}.json",
                             out / f"sweep-{args.axis}.csv")
    print(f"wrote {out / f'sweep-{args.axis}.csv'} ({len(values)} points per K)")
    return 0


def cmd_ablate(args) -> int:
    from . import data as D
    from . import evalkit as ek
    from . import trainer as tr
    from .config import ABLATION_ARMS
    from .errors import ConfigError, writing

    run, specs = _load_run(args, lambda run: [] if run.ablate is None else [run.ablate.train])
    if not specs:
        raise ConfigError("config has no 'ablate' block")
    train, ev = specs[0], run.ablate.eval
    base = run.model
    if (base.activation, base.norm, base.norm_placement, base.use_bias,
            base.hidden_dropout) != ("swiglu", "rmsnorm", "pre", False, 0.0):
        raise ConfigError("ablation requires the modernized base config: swiglu, "
                          "rmsnorm, pre-norm, no bias, no dropout")

    vocab = D.build_vocab(_vocab_text_source(run, specs), max_size=base.vocab)
    queries, docs, truth = ek.read_eval_pairs(ev.path)
    base_state = _fresh_state(run, base, vocab)
    sink = _open_sink(run, base_state)  # headed by the base arm's parameter count

    rows = []
    try:
        for arm, overrides in ABLATION_ARMS.items():
            state = (_fresh_state(run, dataclasses.replace(base, **overrides), vocab)
                     if overrides else base_state)
            tr.run_stage(train.stage, state, _build_source(train, vocab), sink)
            [report] = ek.evaluate(state.params, state.config, vocab, queries, docs, truth,
                                   cells=[(ev.layer, ev.dim)], ks=list(ev.ks),
                                   query_len=ev.query_len, doc_len=ev.doc_len)
            row = {"arm": arm, "param_count": state.params.count()}
            row.update({f"recall@{k}": report.recalls[k] for k in sorted(report.recalls)})
            rows.append(row)
            with writing(run.output_dir):
                tr.save_checkpoint(state, run.output_dir / f"ablate-{arm}.m3ck")
            print(f"{arm}: params={row['param_count']} " +
                  " ".join(f"recall@{k}={report.recalls[k]:.4f}"
                           for k in sorted(report.recalls)))
    finally:
        sink.close()

    header = ["arm", "param_count"] + [f"recall@{k}" for k in sorted(ev.ks)]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    csv_path = run.output_dir / "ablation.csv"
    with writing(csv_path):
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {csv_path}")
    return 0


def cmd_gen_data(args) -> int:
    from . import synth
    from .config import _Checker, _fits_in_memory
    from .errors import ConfigError, writing

    c = _Checker()  # a generator draws its whole corpus at once, a float64 per word
    if not _fits_in_memory(c, "--n", args.n, 8 * synth.MAX_DOC_WORDS * args.n,
                           f"a [n x {synth.MAX_DOC_WORDS}] float64 word array"):
        raise ConfigError(c.errors[0])
    out = Path(args.out)
    with writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        if args.kind == "mono":
            synth.write_text_corpus(out, synth.generate_mlm_corpus(args.n, seed=args.seed))
        elif args.kind == "multi":
            proportions = {"en": 0.55, "de": 0.20, "fr": 0.15, "lo": 0.10}
            synth.write_multilingual_corpus(
                out, synth.generate_multilingual_corpus(proportions, args.n, seed=args.seed))
        else:
            synth.write_pair_corpus(out, synth.generate_pair_corpus(args.n, seed=args.seed))
    print(f"wrote {out}")
    return 0


_HANDLERS = {
    "pretrain": cmd_pretrain,
    "sft": cmd_sft,
    "distill": cmd_distill,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "ablate": cmd_ablate,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_runtime(args, parser)
    from .errors import ConfigError, M3Error
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except M3Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
