"""Seeded random sampling with function-domain rejection, numeric equality.

All sampling goes through an explicit numpy Generator so runs are
reproducible; callers pass a seed or a Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainEvalError, DomainExhaustionError, NumericFailureError
from .expr import Expr, compile_rows, lambdify

DEFAULT_BOX = (-2.0, 2.0)


def make_rng(seed_or_rng=0) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


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
    rows are drawn n - accepted at a time and checked in one compile_rows
    call.  A block draw is C-ordered, so the accepted rows, and the state
    the generator is left in, are those of drawing one point at a time and
    one symbol at a time.  Raises DomainExhaustionError after max_attempts
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
    while accepted < n:
        if rejected_run >= max_attempts:
            raise DomainExhaustionError(
                f"no valid sample in {max_attempts} attempts for symbols {symbols}"
            )
        k = min(n - accepted, max_attempts - rejected_run)
        block = rng.uniform(lo, hi, size=(k, len(symbols)))
        ok = np.ones(k, dtype=bool)
        if check is not None:
            values, bad = check(block)
            ok = ~bad
            for v, floor in zip(values, floors):
                ok &= v >= floor
        kept = np.flatnonzero(ok)
        if kept.size:
            blocks.append(block[kept])
            accepted += kept.size
            rejected_run = k - 1 - int(kept[-1])
        else:
            rejected_run += k
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


def sample_binding(symbols, rng, **kwargs):
    """One sample_rows point as a {Symbol: float} binding."""
    symbols = list(symbols)
    return dict(zip(symbols, sample_rows(symbols, 1, rng, **kwargs)[0].tolist()))


def sample_bindings(symbols, n, rng, **kwargs):
    """n sample_rows points as {Symbol: float} bindings."""
    symbols = list(symbols)
    return [dict(zip(symbols, row)) for row in sample_rows(symbols, n, rng, **kwargs).tolist()]


def equal_numeric(e1: Expr, e2: Expr, trials: int = 100, tol: float = 1e-10, rng=None) -> bool:
    """Probabilistic equality: |e1 - e2| <= tol * (1 + |e1|) at sampled points.

    Samples uniformly from DEFAULT_BOX per free symbol, rejecting bindings that
    leave a function domain in either expression.  Raises
    DomainExhaustionError when 1000*trials attempts produce no valid sample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = make_rng(rng if rng is not None else 0)
    symbols = sorted(e1.free | e2.free)
    both = lambdify([e1, e2], symbols)
    budget = 1000 * trials
    done = 0
    while done < trials:
        if budget <= 0:
            raise DomainExhaustionError(f"no valid sample found in {1000 * trials} attempts")
        point = [float(rng.uniform(*DEFAULT_BOX)) for _ in symbols]
        budget -= 1
        try:
            v1, v2 = both(point)
        except (DomainEvalError, NumericFailureError):
            continue
        if abs(v1 - v2) > tol * (1.0 + abs(v1)):
            return False
        done += 1
    return True
