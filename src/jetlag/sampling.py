"""Seeded random sampling with function-domain rejection, numeric equality.

All sampling goes through an explicit numpy Generator so runs are
reproducible; callers pass a seed or a Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainExhaustionError, NumericFailureError
from .expr import Expr, compile_rows, eval_expr

DEFAULT_BOX = (-2.0, 2.0)


def make_rng(seed_or_rng=0) -> np.random.Generator:
    """The Generator given, or a new one from the seed given; None is seed 0."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(0 if seed_or_rng is None else seed_or_rng)


def sample_rows(
    symbols,
    n,
    rng,
    boxes=None,
    guards=(),
    probe_exprs=(),
    max_attempts=1000,
):
    """Draw n points, as an (n, len(symbols)) array, at which every guard
    holds and every expression evaluates.

    boxes optionally maps a symbol to its (low, high) range, DEFAULT_BOX
    being the range of every symbol it does not name; guards are (expr,
    lower bound) pairs that must evaluate >= bound; probe_exprs must merely
    evaluate (domain rejection for radicals, logs, divisions).  Candidate
    rows are drawn in blocks checked in one compile_rows call each: n -
    accepted rows, or twice the last block after one that kept none, never
    more than the attempts left.  A block draw is C-ordered, and a block
    holding the last needed row before its end is redrawn up to that row
    from the state before it, so the accepted rows, and the state the
    generator is left in, are those of drawing one point at a time and one
    symbol at a time.  Raises DomainExhaustionError after max_attempts
    consecutive rejected rows, having drawn exactly those rows.
    """
    symbols = list(symbols)
    if n <= 0:
        return np.empty((0, len(symbols)))
    bounds = [boxes.get(s, DEFAULT_BOX) if boxes else DEFAULT_BOX for s in symbols]
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    floors = [float(bound) for _, bound in guards]
    check = None
    if guards or probe_exprs:
        check = compile_rows([g for g, _ in guards] + list(probe_exprs), symbols)
    blocks = []
    accepted = 0
    rejected_run = 0  # consecutive rejected rows since the last accepted one
    k = n
    while accepted < n:
        if rejected_run >= max_attempts:
            raise DomainExhaustionError(
                f"no valid sample in {max_attempts} attempts for symbols {symbols}"
            )
        k = min(k, max_attempts - rejected_run)
        # only a block longer than the rows still needed can overshoot
        state = rng.bit_generator.state if k > n - accepted else None
        block = rng.uniform(lo, hi, size=(k, len(symbols)))
        ok = np.ones(k, dtype=bool)
        if check is not None:
            values, bad = check(block)
            ok = ~bad
            for v, floor in zip(values, floors):
                ok &= v >= floor
        kept = np.flatnonzero(ok)[: n - accepted]
        if not kept.size:
            rejected_run += k
            k *= 2
            continue
        if state is not None and kept.size == n - accepted and kept[-1] < k - 1:
            # undraw the rows after the last needed one
            rng.bit_generator.state = state
            rng.uniform(lo, hi, size=(kept[-1] + 1, len(symbols)))
        blocks.append(block[kept])
        accepted += kept.size
        rejected_run = k - 1 - int(kept[-1])
        k = n - accepted
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


def sample_binding(symbols, rng, **kwargs):
    """One sample_rows point as a {Symbol: float} binding."""
    return sample_bindings(symbols, 1, rng, **kwargs)[0]


def sample_bindings(symbols, n, rng, **kwargs):
    """n sample_rows points as {Symbol: float} bindings."""
    symbols = list(symbols)
    return [dict(zip(symbols, row)) for row in sample_rows(symbols, n, rng, **kwargs).tolist()]


def eval_rows(exprs, symbols, rows):
    """Values of exprs at every row, one array per expression.

    At the first row on which some expression does not evaluate, eval_expr
    replays each expression there and raises its error.
    """
    values, bad = compile_rows(exprs, symbols)(rows)
    if bad.any():
        binding = dict(zip(symbols, rows[int(np.argmax(bad))].tolist()))
        for e in exprs:
            eval_expr(e, binding)
        raise NumericFailureError(f"an expression does not evaluate at {binding}")
    return values


def equal_numeric(e1: Expr, e2: Expr, trials: int = 100, tol: float = 1e-10, rng=None) -> bool:
    """Probabilistic equality: |e1 - e2| <= tol * (1 + |e1|) at sampled points.

    Draws trials points with sample_rows, uniformly from DEFAULT_BOX per free
    symbol, rejecting those at which either expression leaves a function
    domain, and compares both expressions on the whole block.  Raises
    DomainExhaustionError after 1000*trials consecutive rejected points.
    Every point is drawn even when the first one already differs, and the
    values come from numpy's power, exp and log, which may differ from the
    math module's in the last bit.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    symbols = sorted(e1.free | e2.free)
    rows = sample_rows(symbols, trials, make_rng(rng), probe_exprs=(e1, e2), max_attempts=1000 * trials)
    v1, v2 = eval_rows([e1, e2], symbols, rows)
    return not np.any(np.abs(v1 - v2) > tol * (1.0 + np.abs(v1)))
