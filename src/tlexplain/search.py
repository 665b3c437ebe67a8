"""Greedy local search over the explanation space.

Each candidate evaluation is: build the template automaton, form the product
MDP, train a policy (or several replicates), apply the average-return filter,
and score the weighted-KL utility against the target policy.  Results are
cached under the canonical rendered key, so re-encodings of the same formula
are never retrained.  The search walks single-bit-flip neighborhoods with the
form-bit expansion and next-best extension escapes, restarted from random
encodings.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import formula as fm
from . import metrics, rl
from .fspa import build_fspa
from .product import ProductMdp


class EmptyBufferError(RuntimeError):
    """Every candidate in a neighborhood failed the return filter."""


@dataclass
class SearchParams:
    n_search: int = 10
    n_max: int = 10
    n_rep: int = 1
    return_threshold: float = 0.05
    n_ext: int = 3
    extension_enabled: bool = True
    expansion_enabled: bool = True
    top_k: int = 10
    enumeration_cap: int = 6

    def __post_init__(self):
        for name in ("n_search", "n_max", "n_rep", "top_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_ext < 0:
            raise ValueError("n_ext must be >= 0")


@dataclass
class TraceNode:
    node_id: int
    restart: int
    step: int
    key: str
    utility: float | None
    filtered: bool
    parent: str | None
    move: str  # init | flip | expansion | extension


@dataclass
class RestartResult:
    restart: int
    key: str | None
    utility: float | None
    searched_frac: float
    record: metrics.UtilityRecord | None


@dataclass
class MultiStartResult:
    results: list[RestartResult]       # sorted by utility, best first
    overall_searched_frac: float
    denominator: int
    traces: list[TraceNode]


@dataclass
class _BufferEntry:
    key: str
    utility: float
    enc: fm.ExplanationEncoding
    record: metrics.UtilityRecord


def _key_stream(seed: int, key: str, purpose: int) -> np.random.Generator:
    """Deterministic rng keyed by (run seed, explanation, purpose)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(key.encode()), purpose]))


def build_mdp(model, predicates, canon: fm.CanonicalExplanation, cfg) -> ProductMdp:
    """The product MDP of one explanation under the run's reward and horizon."""
    return ProductMdp(model, build_fspa(canon, predicates), cfg.reward,
                      cfg.environment.horizon)


def train_replicates(mdp: ProductMdp, cfg, stream_key: str) -> list[rl.TabularPolicy]:
    """One policy from the deterministic trainer, else ``search.n_rep``
    replicates on the run's streams keyed by ``stream_key``."""
    if cfg.trainer.mode == rl.EXACT_SOFT_VI:
        # deterministic trainer: replicates would be identical
        return [rl.train(mdp, cfg.trainer)]
    return [rl.train(mdp, cfg.trainer, rng=_key_stream(cfg.seed, stream_key, rep), seed=rep)
            for rep in range(cfg.search.n_rep)]


class Evaluator:
    """Shared pipeline + cache for scoring candidate explanations under the
    run config ``cfg`` (a ``config.RunConfig``)."""

    def __init__(self, model, predicates, target: rl.TabularPolicy,
                 sample: metrics.StateSample, cfg):
        self.model = model
        self.predicates = tuple(predicates)
        self.target = target
        self.sample = sample
        self.cfg = cfg
        self.cache: dict[str, metrics.UtilityRecord] = {}

    @property
    def params(self) -> SearchParams:
        return self.cfg.search

    @property
    def trainer_cfg(self) -> rl.TrainerConfig:
        return self.cfg.trainer

    def key_of(self, canon: fm.CanonicalExplanation) -> str:
        return fm.render(canon, self.predicates)

    def build_mdp(self, canon: fm.CanonicalExplanation) -> ProductMdp:
        return build_mdp(self.model, self.predicates, canon, self.cfg)

    def train_policy(self, mdp: ProductMdp, key: str) -> rl.TabularPolicy:
        replicates = train_replicates(mdp, self.cfg, key)
        if len(replicates) == 1:
            return replicates[0]
        metric = self.cfg.metric
        score = lambda p: metrics.utility(p, self.target, self.sample,
                                          eps=metric.kl_eps).utility
        return rl.select_replicate(replicates, self.sample.rows,
                                   mode=metric.replicate_mode, utility_fn=score)

    def evaluate(self, canon: fm.CanonicalExplanation) -> metrics.UtilityRecord:
        key = self.key_of(canon)
        if key in self.cache:
            return self.cache[key]
        mdp = self.build_mdp(canon)
        try:
            policy = self.train_policy(mdp, key)
        except rl.NoConvergenceError as exc:
            raise rl.NoConvergenceError(f"candidate {key}: {exc}") from exc
        mean_return = mdp.average_return(policy)
        cfg = self.cfg
        if mean_return <= cfg.search.return_threshold:
            record = metrics.UtilityRecord(
                key=key, wkl=None, utility=None, mean_return=mean_return,
                filtered=True, replicates=cfg.search.n_rep,
                trainer=cfg.trainer.mode, seed=cfg.seed)
        else:
            record = metrics.utility(
                policy, self.target, self.sample, key=key,
                mean_return=mean_return, eps=cfg.metric.kl_eps,
                replicates=cfg.search.n_rep, seed=cfg.seed)
        self.cache[key] = record
        return record


@dataclass
class _SearchContext:
    evaluator: Evaluator
    params: SearchParams
    trace: list[TraceNode]
    touched: set
    restart: int = 0
    _next_id: int = 0

    def record(self, key, record, step, parent, move):
        self.trace.append(TraceNode(
            node_id=self._next_id, restart=self.restart, step=step, key=key,
            utility=record.utility, filtered=record.filtered,
            parent=parent, move=move))
        self._next_id += 1


def _sorted_buffer(entries: dict[str, _BufferEntry]) -> list[_BufferEntry]:
    return sorted(entries.values(), key=lambda e: (-e.utility, e.key))


def eval_neighbors(enc: fm.ExplanationEncoding, ctx: _SearchContext, step: int,
                   move_label: str = "flip") -> list[_BufferEntry]:
    """Evaluate an explanation and its neighborhood; sorted best-first.

    Follows the stall rule: the form-bit expansion set is only evaluated when
    the plain neighborhood fails to beat the center explanation.
    """
    ev, params = ctx.evaluator, ctx.params
    center = fm.decode(enc)
    center_key = ev.key_of(center)
    entries: dict[str, _BufferEntry] = {}
    seen = {center_key}

    def consider(cand_enc, move, parent):
        canon = fm.decode(cand_enc)
        key = ev.key_of(canon)
        ctx.touched.add(key)
        record = ev.evaluate(canon)
        if key not in seen:
            seen.add(key)
            ctx.record(key, record, step, parent, move)
            if not record.filtered:
                entries[key] = _BufferEntry(key, record.utility, cand_enc, record)

    center_record = ev.evaluate(center)
    ctx.touched.add(center_key)
    if not center_record.filtered:
        entries[center_key] = _BufferEntry(center_key, center_record.utility,
                                           enc, center_record)
    nbh = fm.neighborhood(enc)
    for cand in nbh:
        consider(cand, move_label, center_key)
    buffer = _sorted_buffer(entries)
    stalled = not buffer or buffer[0].key == center_key
    if stalled and params.expansion_enabled:
        for cand in fm.expansion(nbh, enc):
            consider(cand, "expansion", center_key)
        buffer = _sorted_buffer(entries)
    if not buffer:
        raise EmptyBufferError(f"all candidates around {center_key} were filtered")
    return buffer


def greedy_search(start: fm.ExplanationEncoding, ctx: _SearchContext
                  ) -> tuple[str | None, float | None]:
    """One local search from a start encoding; returns (best key, utility)."""
    ev, params = ctx.evaluator, ctx.params
    enc = start
    current_key = ev.key_of(fm.decode(enc))
    ctx.touched.add(current_key)
    start_record = ev.evaluate(fm.decode(enc))
    ctx.record(current_key, start_record, 0, None, "init")
    current_utility = None if start_record.filtered else start_record.utility

    for step in range(1, params.n_max + 1):
        try:
            buffer = eval_neighbors(enc, ctx, step)
        except EmptyBufferError:
            break
        head = buffer[0]
        if head.key != current_key:
            enc, current_key, current_utility = head.enc, head.key, head.utility
            continue
        # stalled on the current explanation: probe the next-best candidates
        jumped = False
        if params.extension_enabled:
            for entry in buffer[1:params.n_ext + 1]:
                try:
                    probe = eval_neighbors(entry.enc, ctx, step,
                                           move_label="extension")
                except EmptyBufferError:
                    continue
                if probe[0].utility > head.utility:
                    enc, current_key, current_utility = (
                        probe[0].enc, probe[0].key, probe[0].utility)
                    jumped = True
                    break
        if not jumped:
            break
    return (current_key, current_utility) if current_utility is not None else (None, None)


def multi_start(evaluator: Evaluator, params: SearchParams) -> MultiStartResult:
    """Seeded random restarts sharing one cache, with top-k reporting."""
    n = len(evaluator.predicates)
    denominator = fm.class_size(n)
    trace: list[TraceNode] = []
    all_touched: set[str] = set()
    results = []
    next_id = 0
    for i in range(params.n_search):
        rng = np.random.default_rng(
            np.random.SeedSequence([evaluator.cfg.seed, 7919, i]))
        start = fm.random_encoding(n, rng)
        touched: set[str] = set()
        ctx = _SearchContext(evaluator, params, trace, touched, restart=i,
                             _next_id=next_id)
        best_key, best_utility = greedy_search(start, ctx)
        next_id = ctx._next_id
        all_touched |= touched
        record = evaluator.cache.get(best_key) if best_key else None
        results.append(RestartResult(i, best_key, best_utility,
                                     len(touched) / denominator, record))
    results.sort(key=lambda r: (-(r.utility if r.utility is not None else -np.inf),
                                r.key or "~"))
    return MultiStartResult(results[:params.top_k],
                            len(all_touched) / denominator, denominator, trace)


def brute_force_oracle(evaluator: Evaluator, cap: int = 4
                       ) -> tuple[list[metrics.UtilityRecord], list[metrics.UtilityRecord]]:
    """Evaluate every canonical explanation with the shared pipeline.

    Returns (ranked unfiltered records, filtered records); the ranking is by
    utility descending with the rendered key as tiebreak.
    """
    ranked, filtered = [], []
    for canon in fm.enumerate_all(evaluator.predicates, cap=cap):
        record = evaluator.evaluate(canon)
        (filtered if record.filtered else ranked).append(record)
    ranked.sort(key=lambda r: (-r.utility, r.key))
    filtered.sort(key=lambda r: r.key)
    return ranked, filtered
