"""Greedy local search over the explanation space.

Each candidate evaluation is: build the template automaton, form the product
MDP, train a policy (or several replicates), apply the average-return filter,
and score the weighted-KL utility against the target policy.  Results are
cached under the canonical rendered key, so re-encodings of the same formula
are never retrained; a candidate that cannot accept, or whose product equals
an earlier one's under soft VI, is not trained at all (see ``Evaluator``).
Every product, the target's included, trains in ``train_policies``.
The search walks single-bit-flip neighborhoods with the form-bit expansion
and next-best extension escapes, restarted from random encodings.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import formula as fm
from . import metrics, rl
from .fspa import build_fspa
from .product import SPARSE, EnvModel, ProductMdp, acceptance_reachable


# Candidates that need training wait until they count this many cells of
# the full model (its rows x actions), then train in one ``train_policies``
# call: under soft VI one ``rl.soft_value_iteration`` batch on their tables
# over the model's quotient, under Q-learning one product after another.
# Sized for soft VI's memory as well as time: a batch peaks at 70-115 bytes
# per trained cell (traced on ctf5, ctf7 and nav10: the waiting transition
# tables, VI arrays and sweep temporaries).  24,000 cells are 11 ctf5
# candidates, whose 630 quotient cells each peak at 0.7-0.8 MB.  Counting
# quotient cells (38 candidates) trained the ctf5 oracle 17% faster but
# raised its peak RSS by 1.8 MB.
VI_BATCH_CELLS = 24_000


@dataclass
class SearchParams:
    n_search: int = 10
    n_max: int = 10
    n_rep: int = 1
    return_threshold: float = 0.05
    n_ext: int = 3  # 0 turns the extension probes off
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
    results: list[RestartResult]       # sorted by rank, best first, empty ones last
    overall_searched_frac: float
    denominator: int
    traces: list[TraceNode]


def _key_stream(seed: int, key: str, purpose: int) -> np.random.Generator:
    """Deterministic rng keyed by (run seed, explanation, purpose)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(key.encode()), purpose]))


def product_model(model: EnvModel, cfg) -> tuple[EnvModel, np.ndarray]:
    """The model products are built on under the run config ``cfg``, and
    the row in it of each of ``model``'s rows.

    Soft VI trains on ``model.quotient``, which gives every row its class's
    policy and return bit for bit; Q-learning's sampled runs tell the
    members of a class apart, so it trains on ``model`` itself.
    """
    return (model.quotient if cfg.trainer.mode == rl.EXACT_SOFT_VI
            else (model, np.arange(model.n_rows)))


def train_policies(mdps, cfg, stream_keys, rows) -> list[rl.TabularPolicy]:
    """The policies trained for the products ``mdps`` under the run config
    ``cfg``, one per product, each with a row per row of its model.

    Soft VI is deterministic: it trains the products once, as one
    ``rl.soft_value_iteration`` batch.  Q-learning trains ``search.n_rep``
    replicates of each product on the run's streams keyed by its entry of
    ``stream_keys``, and ``rl.select_replicate`` keeps the one of highest
    mean entropy over the policy rows ``rows``.
    """
    if cfg.trainer.mode == rl.EXACT_SOFT_VI:
        return rl.soft_value_iteration([mdp.table for mdp in mdps], mdps[0].reward.gamma,
                                       cfg.trainer)
    policies = []
    for mdp, key in zip(mdps, stream_keys):
        replicates = [rl.q_learning(mdp, cfg.trainer, _key_stream(cfg.seed, key, rep))
                      for rep in range(cfg.search.n_rep)]
        vars(mdp).pop("step_outcomes", None)    # the outcome lists q_learning reads
        policies.append(rl.select_replicate(replicates, rows))
    return policies


def explanation_policy(model: EnvModel, canon: fm.CanonicalExplanation, predicates, cfg,
                       stream_key: str) -> rl.TabularPolicy:
    """The policy trained for the explanation ``canon`` under the run config
    ``cfg``, with a row per row of ``model``: the product is built on
    ``product_model``, trained by ``train_policies`` and expanded by its
    ``of_row``.  Q-learning selects its replicate over every row."""
    trained_on, of_row = product_model(model, cfg)
    mdp = ProductMdp(trained_on, build_fspa(canon, predicates, trained_on.features),
                     cfg.reward, cfg.environment.horizon)
    policy, = train_policies([mdp], cfg, [stream_key], range(model.n_rows))
    return rl.TabularPolicy(policy.probs[of_row])


class Evaluator:
    """Shared pipeline + cache for scoring candidate explanations under the
    run config ``cfg`` (a ``config.RunConfig``).  Products are built on
    ``product_model``: the quotient of ``model`` under soft VI, where the
    sampled rows are renamed to their quotient rows once, and ``model``
    itself under Q-learning.

    Two exact shortcuts skip training that cannot change a record, and two
    counters say how often each fired:

    - ``n_unreachable``: with sparse rewards and ``return_threshold >= 0``,
      a candidate whose automaton successors ``q_next`` admit no reachable
      acceptance branch (``product.acceptance_reachable``) is filtered
      untrained, and no product is built for it, since every reward its
      runs can earn is <= 0.  Each distinct ``q_next`` is searched once.
    - ``n_product_hits`` (soft VI only): a candidate whose ``q_next`` and
      ``reward_next`` have the same bytes as an earlier candidate's, even
      one still waiting in the same training batch, has the same transition
      table, so the same policy, return and wKL; it gets a copy of that
      record under its own key.
    """

    def __init__(self, model, predicates, sample: metrics.StateSample, cfg):
        self.model = model
        self.product_model, of_row = product_model(model, cfg)
        # the sample in the rows of the candidates' policies
        self._product_sample = replace(sample, rows=tuple(of_row[sample.index].tolist()))
        self.predicates = tuple(predicates)
        self.sample = sample
        self.cfg = cfg
        self.cache: dict[str, metrics.UtilityRecord] = {}
        # q_next bytes + reward_next bytes -> key of the candidate trained on them
        self._products: dict[bytes, str] = {}
        # q_next bytes -> whether acceptance is reachable under them
        self._reachable: dict[bytes, bool] = {}
        self.n_unreachable = 0
        self.n_product_hits = 0

    @property
    def params(self) -> SearchParams:
        """``cfg.search``, kept for ``perfbench/check.py`` and the tests."""
        return self.cfg.search

    @property
    def trainer_cfg(self) -> rl.TrainerConfig:
        """``cfg.trainer``, kept for ``perfbench/check.py`` and the tests."""
        return self.cfg.trainer

    def evaluate(self, canon: fm.CanonicalExplanation) -> metrics.UtilityRecord:
        """The record of one explanation, cached: ``evaluate_many([canon])[0]``."""
        return self.evaluate_many([canon])[0]

    def evaluate_many(self, canons) -> list[metrics.UtilityRecord]:
        """The records of ``canons``, in order: each is what ``evaluate``
        on one canon after another would give, and the cache and both
        counters end up as they would.

        The candidates that need training, under either trainer, wait until
        they count ``VI_BATCH_CELLS`` cells (the last batch may hold fewer),
        then train in one ``train_policies`` call; a batch's records enter
        the cache, in evaluation order, once it has trained.  A batch that
        does not converge raises the error the first of its unconverged
        candidates would raise alone, and enters nothing into the cache.
        """
        keys = []
        # queue: key -> None (acceptance unreachable) or the key whose record
        # it copies, its own when it trains; train: key -> ProductMdp;
        # products: the batch's entries of ``_products``
        queue, train, products = {}, {}, {}
        cells = self.model.n_rows * self.model.n_actions   # the full model's, per candidate
        for canon in canons:
            key = fm.render(canon, self.predicates)
            keys.append(key)
            if key in self.cache or key in queue:
                continue
            self._enqueue(key, canon, queue, train, products)
            if len(train) * cells >= VI_BATCH_CELLS:
                self._commit(queue, train, products)
                queue, train, products = {}, {}, {}
        self._commit(queue, train, products)
        return [self.cache[key] for key in keys]

    def _enqueue(self, key: str, canon, queue: dict, train: dict, products: dict) -> None:
        model = self.product_model
        automaton = build_fspa(canon, self.predicates, model.features)
        if self.cfg.reward.mode == SPARSE and self.cfg.search.return_threshold >= 0:
            memo_key = automaton[0].tobytes()
            reachable = self._reachable.get(memo_key)
            if reachable is None:
                reachable = self._reachable[memo_key] = acceptance_reachable(
                    model, automaton[0])
            if not reachable:
                queue[key] = None
                return
        mdp = ProductMdp(model, automaton, self.cfg.reward, self.cfg.environment.horizon)
        source = key
        if self.cfg.trainer.mode == rl.EXACT_SOFT_VI:
            # Q-learning draws from a stream keyed by ``key``: equal products
            # train to different policies
            product = mdp.q_next.tobytes() + mdp.reward_next.tobytes()
            source = self._products.get(product) or products.setdefault(product, key)
        queue[key] = source
        if source == key:
            train[key] = mdp

    def _commit(self, queue: dict, train: dict, products: dict) -> None:
        """Train the batch, then enter its records into the cache in order,
        counting the shortcuts that made them; each product is let go once
        it is scored."""
        policies = {}
        if train:
            keys = list(train)
            try:
                policies = dict(zip(keys, train_policies(
                    list(train.values()), self.cfg, keys, self._product_sample.rows)))
            except rl.NoConvergenceError as exc:
                raise rl.NoConvergenceError(f"candidate {keys[exc.index]}: {exc}") from exc
        for key, source in queue.items():
            if source is None:
                self.n_unreachable += 1
                record = metrics.UtilityRecord(key, None, 0.0)
            elif source == key:
                record = self._record(key, train.pop(key), policies[key])
            else:   # its source entered the cache before it
                self.n_product_hits += 1
                record = replace(self.cache[source], key=key)
            self.cache[key] = record
        self._products.update(products)

    def _record(self, key: str, mdp: ProductMdp,
                policy: rl.TabularPolicy) -> metrics.UtilityRecord:
        """Filter or score a trained policy, which has a row per row of
        ``product_model``."""
        mean_return = mdp.average_return(policy)
        if mean_return <= self.cfg.search.return_threshold:
            return metrics.UtilityRecord(key=key, wkl=None, mean_return=mean_return)
        return metrics.utility(policy, self._product_sample, key=key, mean_return=mean_return)


@dataclass
class _SearchContext:
    evaluator: Evaluator
    params: SearchParams
    trace: list[TraceNode]
    restart: int = 0

    def record(self, record, step, parent, move):
        self.trace.append(TraceNode(
            node_id=len(self.trace), restart=self.restart, step=step, key=record.key,
            utility=record.utility, filtered=record.filtered,
            parent=parent, move=move))


def rank(record: metrics.UtilityRecord) -> tuple[float, str]:
    """The sort key of an unfiltered record, best first: its wKL, then its
    rendered key."""
    return record.wkl, record.key


def eval_neighbors(enc: fm.ExplanationEncoding, ctx: _SearchContext, step: int,
                   move_label: str = "flip"
                   ) -> list[tuple[metrics.UtilityRecord, fm.ExplanationEncoding]]:
    """Evaluate an explanation and its neighborhood: the unfiltered
    ``(record, encoding)`` pairs, best first by :func:`rank`, or ``[]``
    when every one is filtered.

    Follows the stall rule: the form-bit expansion set is only evaluated when
    the plain neighborhood fails to beat the center explanation.
    """
    ev, params = ctx.evaluator, ctx.params
    nbh = fm.neighborhood(enc)
    center, *records = ev.evaluate_many([fm.decode(e) for e in [enc, *nbh]])
    # key -> (record, encoding) of every candidate met, the center first
    found = {center.key: (center, enc)}

    def consider(cands, records, move):
        for cand_enc, record in zip(cands, records):
            if record.key not in found:
                found[record.key] = (record, cand_enc)
                ctx.record(record, step, center.key, move)

    def ranked():
        return sorted((pair for pair in found.values() if not pair[0].filtered),
                      key=lambda pair: rank(pair[0]))

    consider(nbh, records, move_label)
    buffer = ranked()
    stalled = not buffer or buffer[0][0].key == center.key
    if stalled and params.expansion_enabled:
        expansion = fm.expansion(nbh, enc)
        consider(expansion, ev.evaluate_many([fm.decode(e) for e in expansion]), "expansion")
        buffer = ranked()
    return buffer


def greedy_search(start: fm.ExplanationEncoding, ctx: _SearchContext
                  ) -> metrics.UtilityRecord | None:
    """One local search from a start encoding: the unfiltered record it
    settles on, or None if every candidate around its start is filtered."""
    params = ctx.params
    enc = start
    head = ctx.evaluator.evaluate(fm.decode(enc))
    ctx.record(head, 0, None, "init")

    for step in range(1, params.n_max + 1):
        buffer = eval_neighbors(enc, ctx, step)
        if not buffer:
            break
        if buffer[0][0].key != head.key:
            head, enc = buffer[0]
            continue
        # stalled on the current explanation: probe the next-best candidates.
        # A probe's center is unfiltered, so a probe is never empty.
        for _, probe_enc in buffer[1:params.n_ext + 1]:
            probe = eval_neighbors(probe_enc, ctx, step, move_label="extension")
            if probe[0][0].wkl < head.wkl:
                head, enc = probe[0]
                break
        else:
            break
    return None if head.filtered else head


def multi_start(evaluator: Evaluator, params: SearchParams) -> MultiStartResult:
    """Seeded random restarts sharing one cache, with top-k reporting.  A
    restart traces every key it evaluates, so its ``searched_frac`` is the
    share of the class among its trace nodes' keys."""
    n = len(evaluator.predicates)
    denominator = fm.class_size(n)
    trace: list[TraceNode] = []
    results = []
    for i in range(params.n_search):
        rng = np.random.default_rng(
            np.random.SeedSequence([evaluator.cfg.seed, 7919, i]))
        start = fm.random_encoding(n, rng)
        record = greedy_search(start, _SearchContext(evaluator, params, trace, restart=i))
        frac = len({node.key for node in trace if node.restart == i}) / denominator
        results.append(RestartResult(i, record.key, record.utility, frac, record) if record
                       else RestartResult(i, None, None, frac, None))
    # empty restarts go last, in restart order
    results.sort(key=lambda r: (r.record is None, r.record and rank(r.record)))
    return MultiStartResult(results[:params.top_k],
                            len({node.key for node in trace}) / denominator, denominator, trace)


def brute_force_oracle(evaluator: Evaluator
                       ) -> tuple[list[metrics.UtilityRecord], list[metrics.UtilityRecord]]:
    """Evaluate every canonical explanation with the shared pipeline.

    Returns (ranked unfiltered records by :func:`rank`, filtered records by
    key).  No record depends on the order of evaluation, so only this orders
    them.  The enumeration obeys ``search.enumeration_cap``.
    """
    ranked, filtered = [], []
    canons = fm.enumerate_all(evaluator.predicates, cap=evaluator.cfg.search.enumeration_cap)
    for record in evaluator.evaluate_many(canons):
        (filtered if record.filtered else ranked).append(record)
    ranked.sort(key=rank)
    filtered.sort(key=lambda record: record.key)
    return ranked, filtered
