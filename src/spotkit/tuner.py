"""Sequential surrogate-guided tuning loop.

Evaluate an optional start point and the full initial design, then
alternate: fit the Kriging surrogate on everything seen, propose the points
of lowest predicted mean not yet evaluated, evaluate, append. Every fit
starts (``surrogate.fit``'s ``start``) from the parameters of the fit that
proposed the last evaluation, which ``RunState.params`` keeps so that a
resume repeats it; it is cold when that evaluation has none. When the count
of iterations (``n_points * fun_repeats`` evaluations each) is a multiple
of ``REFRESH_EVERY`` the fit re-estimates the parameters (``refresh``):
cold below ``surrogate.KEEP_START_ROWS_PER_DIM`` distinct rows per active
dimension, a short warm search from that many on. Between refreshes a fit
searches warm below that many rows and keeps the parameters from there on.
A fit that raises ``ValueError`` (equal losses, no finite likelihood, no
positive-definite matrix) leaves its iteration without a model: the
proposals are random and record no parameters, so the next fit is cold.
A failed evaluation is stored at ``worst_sentinel`` of the losses before
it, a penalty above the largest successful one that earlier penalties do
not raise, which lets ``all_failed`` tell from the losses alone that none
succeeded. Stops on the evaluation budget or the wall-time budget (checked
between evaluations, so one fit or search can overrun it; the initial
design always runs to completion).
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import surrogate as sg
from .design import DesignControl, child_seed, latin_hypercube, require_counts
from .searchspace import SearchSpace

DEFAULT_TOLERANCE_X = float(np.sqrt(np.spacing(1.0)))

# every this many iterations the surrogate fit re-estimates its parameters
# (``surrogate.fit``'s ``refresh``); the fits between start from the previous one
REFRESH_EVERY = 5


@dataclass(frozen=True)
class TunerConfig:
    fun_evals: float = math.inf      # total evaluation budget (inf allowed)
    fun_repeats: int = 1
    max_time: float = math.inf       # minutes
    tolerance_x: float = DEFAULT_TOLERANCE_X
    n_points: int = 1
    seed: int = 123

    def __post_init__(self):
        require_counts(self, "n_points", "fun_repeats")
        if not (0 <= self.tolerance_x < math.inf):
            raise ValueError("tolerance_x must be a finite number >= 0")
        if not (self.max_time >= 0):
            raise ValueError("max_time must be >= 0")
        if not (self.fun_evals >= 1):
            raise ValueError("fun_evals must be >= 1")
        if math.isfinite(self.fun_evals) and self.fun_evals != int(self.fun_evals):
            raise ValueError("fun_evals must be a whole number")
        if math.isinf(self.fun_evals) and math.isinf(self.max_time):
            raise ValueError("need a finite fun_evals or max_time budget")


@dataclass
class RunState:
    """Everything observed so far; JSON round-trippable for crash recovery."""

    X: list = field(default_factory=list)          # full internal vectors
    y: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    phases: list = field(default_factory=list)     # "initial" | "sequential"
    elapsed: list = field(default_factory=list)    # wall seconds since the previous one
    params: list = field(default_factory=list)     # proposing fit's parameters, or None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def best_index(self) -> int:
        if not self.y:
            raise ValueError("empty run state")
        return int(np.argmin(self.y))

    @property
    def best_y(self) -> float:
        return float(self.y[self.best_index])

    @property
    def n_initial(self) -> int:
        return sum(1 for p in self.phases if p == "initial")

    def append(self, vec: np.ndarray, loss: float, metric: float, phase: str,
               seconds: float, params: list | None = None) -> None:
        self.X.append(np.asarray(vec, dtype=float))
        self.y.append(float(loss))
        self.metrics.append(float(metric))
        self.phases.append(phase)
        self.elapsed.append(float(seconds))
        self.params.append(params)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "meta": self.meta,
            "X": [list(map(float, row)) for row in self.X],
            "y": list(self.y),
            "metrics": list(self.metrics),
            "phases": list(self.phases),
            "elapsed": list(self.elapsed),
            "params": list(self.params),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunState":
        """The state ``to_dict`` wrote. A document without ``params`` (from
        an earlier version) loads with None for every evaluation."""
        try:
            state = cls(
                X=[np.asarray(row, dtype=float) for row in doc["X"]],
                y=[float(v) for v in doc["y"]],
                metrics=[float(v) for v in doc["metrics"]],
                phases=list(doc["phases"]),
                elapsed=[float(v) for v in doc["elapsed"]],
                params=[None if v is None else [float(t) for t in v]
                        for v in doc.get("params", [None] * len(doc["y"]))],
                meta=dict(doc.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"corrupt run state: {err}") from err
        if not (len(state.X) == len(state.y) == len(state.phases)
                == len(state.metrics) == len(state.elapsed) == len(state.params)):
            raise ValueError("corrupt run state: column lengths differ")
        return state


def best(state: RunState, space: SearchSpace) -> tuple[dict, float]:
    """Natural-unit configuration of the argmin loss (earliest on ties)."""
    idx = state.best_index
    return space.from_internal(state.X[idx]), float(state.y[idx])


def worst_sentinel(ys) -> float:
    """Finite stand-in for a failed evaluation after the losses ``ys``:
    ``_sentinel_above`` their largest successful loss, so no penalty
    depends on an earlier penalty."""
    return _sentinel_above(_worst_success(ys))


def _sentinel_above(m: float | None) -> float:
    """The penalty above the largest successful loss ``m`` (None for none):
    nine times its magnitude (one for 0) above it, 1e12 before any success."""
    if m is None:
        return 1e12
    return m + 9.0 * (abs(m) if m != 0.0 else 1.0)


def _worst_success(ys) -> float | None:
    """The largest successful loss in ``ys``, None for none. A loss equal to
    ``_sentinel_above`` of the successful losses before it is a failed
    evaluation's penalty, as ``_evaluate`` stores it."""
    top = None
    for v in ys:
        if v != _sentinel_above(top) and (top is None or v > top):
            top = v
    return top


def all_failed(ys) -> bool:
    """True when ``ys`` is not empty and holds no successful loss: a run in
    which no evaluation succeeded."""
    return len(ys) > 0 and _worst_success(ys) is None


def _evaluate(objective, space: SearchSpace, state: RunState, vec: np.ndarray,
              phase: str, since: float, params: list | None = None) -> float:
    """Decode ``vec``, evaluate it and append the outcome to ``state`` with
    the seconds from the monotonic time ``since`` and the parameters
    ``params`` of the fit that proposed it; returns its end time.

    An exception or a non-finite loss is recorded at ``worst_sentinel`` of
    the losses so far, with a NaN metric on an exception.
    """
    config = space.from_internal(vec)
    try:
        result = objective(config)
        loss = float(result.loss)
        metric = float(result.metric)
    except Exception:
        loss, metric = math.nan, math.nan
    if not math.isfinite(loss):
        loss = worst_sentinel(state.y)
    end = time.monotonic()
    state.append(vec, loss, metric, phase, end - since, params)
    return end


def _embed_active(space: SearchSpace, v_active: np.ndarray) -> np.ndarray:
    full = space.default_internal()
    full[space.active_mask] = v_active
    return space.clip_internal(full)


def _is_distinct(cand: np.ndarray, rows: np.ndarray, tolerance_x: float) -> bool:
    """True when ``cand`` lies beyond ``tolerance_x`` in max-norm from every
    row of ``rows`` (k x dim, k may be 0)."""
    return bool(np.all(np.max(np.abs(rows - cand), axis=1) > tolerance_x))


def _random_full_point(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    unit = rng.random((1, space.n_active))
    return space.embed_unit(unit)[0]


# the reflection, expansion, outside and inside contraction as
# A * centroid + B * worst; a + (-b) is IEEE a - b, signed zeros included
_STEP_A = np.array([[2.0], [3.0], [1.5], [0.5]])
_STEP_B = np.array([[-1.0], [-2.0], [-0.5], [0.5]])


def _nelder_mead(f, X0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 maxfev: int) -> list[tuple[np.ndarray, float, int]]:
    """Bounded Nelder-Mead minimization of ``f`` from each row of ``X0``.

    A port of scipy 1.17.1's ``minimize(method="Nelder-Mead", bounds=...)``
    with ``xatol=1e-8``, ``fatol=1e-12`` and ``maxfev``: the same initial
    simplex (reflected into the box, then clipped), coefficients, centroid,
    re-sorting and stopping tests. A budget that runs out mid-iteration, a
    shrink included, leaves that iteration as scipy does.

    The starts run in lockstep: their simplices form one k x (N+1) x N
    array, and each iteration scores all live starts' four candidate
    vertices (reflection, expansion, outside and inside contraction) in one
    call, then takes each start's branch in Python floats; the candidates
    scipy would not have evaluated are discarded and do not count in
    ``nfev``. The initial simplices share one call, and so do the vertices
    of all shrinking simplices. Per start, the value test runs on Python
    floats (a NaN from ``inf - inf`` fails it, as in ``np.max``), the x test
    only where the value test passes, and the chosen vertex moves by scalar
    indexing. ``f`` maps an m x N array to m values, each with the bits of
    scoring its row alone, and must not modify its argument; then every
    start's ``(x, fun, nfev)`` has the bits scipy returns for that start
    run alone.
    """
    k, N = X0.shape
    X0 = np.minimum(np.maximum(X0, lo), hi)
    S = np.repeat(X0[:, None, :], N + 1, axis=1)
    diag = np.arange(N)
    S[:, diag + 1, diag] = np.where(X0 != 0, (1 + 0.05) * X0, 0.00025)
    S = np.where(S > hi, 2 * hi - S, S)
    S = np.minimum(np.maximum(S, lo), hi)

    F = np.full((k, N + 1), np.inf)
    nfev0 = min(N + 1, maxfev)
    F[:, :nfev0] = f(S[:, :nfev0].reshape(-1, N)).reshape(k, nfev0)
    rows = np.arange(k)[:, None]
    for _ in range(2):          # scipy sorts twice; ties may move the second time
        ind = F.argsort(axis=1)
        S, F = S[rows, ind], F[rows, ind]

    live = list(range(k))       # the start each row of S and F belongs to
    nfev = [nfev0] * k
    out = [None] * k
    while True:
        Fl = F.tolist()
        keep = []
        for j, start in enumerate(live):
            f0 = Fl[j][0]
            # the x test only where the value test passes; NaN fails it
            if nfev[j] < maxfev and not (
                    all(abs(f0 - v) <= 1e-12 for v in Fl[j][1:])
                    and np.abs(S[j, 1:] - S[j, :1]).max() <= 1e-8):
                keep.append(j)
            else:
                out[start] = (S[j, 0].copy(), F[j].min(), nfev[j])
        if len(keep) < len(live):
            if not keep:
                return out
            S, F = S[keep], F[keep]
            live, nfev = [live[j] for j in keep], [nfev[j] for j in keep]
            Fl = [Fl[j] for j in keep]
            rows = np.arange(len(live))[:, None]
        xbar = np.add.reduce(S[:, :-1], 1) / N
        C = np.minimum(np.maximum(_STEP_A * xbar[:, None] + _STEP_B * S[:, -1:], lo), hi)
        fc = f(C.reshape(-1, N)).reshape(len(live), 4).tolist()
        shrink = []
        for j, ((fr, fe, foc, fic), fs) in enumerate(zip(fc, Fl)):
            n = nfev[j] + 1
            step = None
            if fr < fs[0]:
                if n < maxfev:
                    n += 1
                    step = 1 if fe < fr else 0
            elif fr < fs[-2]:
                step = 0
            elif n < maxfev:
                n += 1
                if fr < fs[-1]:     # outside contraction
                    step = 2 if foc <= fr else None
                else:               # inside contraction
                    step = 3 if fic < fs[-1] else None
                if step is None:
                    shrink.append(j)
            nfev[j] = n
            if step is not None:
                S[j, -1] = C[j, step]
                F[j, -1] = fc[j][step]
        if shrink:
            B = S[shrink]
            V = np.minimum(np.maximum(B[:, :1] + 0.5 * (B[:, 1:] - B[:, :1]), lo), hi)
            fv = f(V.reshape(-1, N)).reshape(len(shrink), N)
            for t, j in enumerate(shrink):
                r = maxfev - nfev[j]    # the cut leaves vertex r + 1 moved, unscored
                S[j, 1:r + 2] = V[t, :r + 1]
                F[j, 1:r + 1] = fv[t, :r]
                nfev[j] += min(r, N)
        ind = F.argsort(axis=1)
        S, F = S[rows, ind], F[rows, ind]


def suggest_next(state: RunState, model: sg.KrigingModel | None, space: SearchSpace,
                 n_points: int = 1, budget: int = 1000, seed: int = 0,
                 tolerance_x: float = 0.0) -> np.ndarray:
    """The ``n_points`` candidates of lowest surrogate mean not yet evaluated.

    Random multistart probes take half the budget, scored in one
    ``model.predict_batch`` call; bounded Nelder-Mead (``_nelder_mead``,
    scipy 1.17.1's algorithm) refines the best probes on the continuous
    relaxation with the rest. The split is fixed up front: as many starts
    as ``n_points`` (at least 3) and the rest allow at ``3 * (d + 1)``
    evaluations each, none when that is not positive, and each start gets
    an equal share of the rest. The starts run in lockstep, one
    ``model.predict`` call on the rows of all their candidate vertices per
    round, and every result enters the pool.
    Integer and factor coordinates snap to their lattice, then the pool is
    scanned by predicted mean: a candidate is kept when it lies beyond
    ``tolerance_x`` in max-norm from every point of ``state`` and every
    candidate kept so far. Random draws from the same stream fill any
    shortfall, all of it when ``model`` is None: up to 200 draws that must
    be distinct in that sense, then any draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pool: list[tuple[float, np.ndarray]] = []
    if model is not None:
        active = space.active
        lo = np.array([p.lower for p in active])
        hi = np.array([p.upper for p in active])
        d = len(active)

        n_probe = max(2 * n_points, budget // 2)
        probes = rng.uniform(lo, hi, size=(n_probe, d))
        mu = model.predict_batch(probes)
        order = np.argsort(mu, kind="stable")

        remaining = budget - n_probe
        n_starts = min(max(n_points, 3), remaining // (3 * (d + 1)))
        if n_starts > 0:
            starts = probes[order[:n_starts]]
            pool += [(float(fun), x) for x, fun, _ in
                     _nelder_mead(model.predict, starts, lo, hi, remaining // n_starts)]
        pool.extend((float(mu[i]), probes[i]) for i in order)
        pool.sort(key=lambda t: t[0])

    seen = np.asarray(state.X, dtype=float).reshape(-1, space.dim)
    n_seen = len(seen)
    for _, v in pool:
        if len(seen) - n_seen == n_points:
            break
        cand = _embed_active(space, v)
        if _is_distinct(cand, seen, tolerance_x):
            seen = np.vstack([seen, cand])
    tries = 0
    while len(seen) - n_seen < n_points:   # distinct draws; any draw after 200 tries
        cand = _random_full_point(space, rng)
        if tries >= 200 or _is_distinct(cand, seen, tolerance_x):
            seen = np.vstack([seen, cand])
        tries += 1
    return seen[n_seen:]


def run(objective, space: SearchSpace, tuner: TunerConfig | None = None,
        design: DesignControl | None = None,
        surrogate_control: sg.SurrogateControl | None = None,
        X_start: dict | None = None, out_dir: str | None = None,
        state: RunState | None = None, meta: dict | None = None) -> RunState:
    """Execute (or resume) the tuning loop; returns the final run state.

    A failed evaluation is recorded at a finite worst-case penalty and the
    loop continues. The state keeps every evaluation, repeats included, and
    every fit sees them all (``surrogate.fit`` averages repeats when it is
    noise-free). With ``out_dir`` set, ``run_state.json`` and ``events.csv``
    are rewritten atomically after every evaluation.

    Each evaluation records in ``params`` the parameters of the fit that
    proposed it (None without a fit), and the next fit starts from them,
    re-estimating them when the schedule makes it a refresh.

    Each ``elapsed`` entry is the seconds since the session's previous
    evaluation ended (or it started), fits, searches and writes included.
    When ``max_time`` stops the session, the seconds since its last
    evaluation join that entry and the state is written once more, so a
    resume starts its clock where this session stopped.
    """
    tuner = tuner or TunerConfig()
    design = design or DesignControl()
    surrogate_control = surrogate_control or sg.SurrogateControl()
    if space.n_active < 1:
        raise ValueError("search space has no active dimensions")

    state = state if state is not None else RunState()
    if meta:
        state.meta = dict(meta)
    writer = _RunWriter(out_dir, space) if out_dir else None
    started = last_end = time.monotonic()
    budget_consumed = sum(state.elapsed)
    n_before = len(state)

    def evaluate(vec: np.ndarray, phase: str, params: list | None = None) -> None:
        nonlocal last_end
        last_end = _evaluate(objective, space, state, vec, phase, last_end, params)
        if writer:
            writer.write(state)

    def out_of_time() -> bool:
        now = time.monotonic()
        if (budget_consumed + (now - started)) / 60.0 < tuner.max_time:
            return False
        if len(state) > n_before:
            state.elapsed[-1] += now - last_end
            if writer:
                writer.write(state)
        return True

    # -- initial phase: start point plus the whole design, no time checks
    initial = [] if X_start is None else [space.to_internal(X_start)]
    initial += list(space.embed_unit(latin_hypercube(design, space.n_active)))
    for vec in initial[state.n_initial:]:
        evaluate(vec, "initial")

    # -- sequential phase
    while len(state) < tuner.fun_evals and not out_of_time():
        k = len(state) - state.n_initial      # stable across resumes
        refresh = k // (tuner.n_points * tuner.fun_repeats) % REFRESH_EVERY == 0
        model = params = None
        try:
            model = sg.fit(np.asarray(state.X)[:, space.active_mask], state.y,
                           surrogate_control, seed=child_seed(tuner.seed, 1, k),
                           start=state.params[-1], refresh=refresh)
            params = model.params
        except ValueError:      # no model: suggest_next proposes at random
            pass
        cands = suggest_next(
            state, model, space, tuner.n_points, 200 + 100 * space.n_active,
            seed=child_seed(tuner.seed, 2, k), tolerance_x=tuner.tolerance_x,
        )
        for cand in cands:
            for _ in range(tuner.fun_repeats):
                if len(state) >= tuner.fun_evals or out_of_time():
                    return state
                evaluate(cand, "sequential", params)
    return state


def random_search(objective, space: SearchSpace, n_evals: int, seed: int = 0) -> RunState:
    """Uniform-sampling baseline with the same decoding as the tuner."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = RunState()
    last_end = time.monotonic()
    for _ in range(n_evals):
        last_end = _evaluate(objective, space, state, _random_full_point(space, rng),
                             "random", last_end)
    return state


# -- persistence ---------------------------------------------------------------

def atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def events_csv(state: RunState, space: SearchSpace, start: int = 0) -> str:
    """Deterministic per-evaluation event log.

    Columns are a pure function of the run content (no wall-clock values),
    so identical seeds yield byte-identical logs; timings live in
    ``run_state.json``. With ``start > 0`` only the rows after the first
    ``start`` evaluations are rendered, without the header, so a caller
    holding the earlier text can append to it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if start == 0:
        writer.writerow(["iteration", "phase", "loss", "metric", "config"])
    for i in range(start, len(state)):
        config = space.from_internal(state.X[i])
        writer.writerow([
            i + 1, state.phases[i], repr(state.y[i]), repr(state.metrics[i]),
            json.dumps(config, separators=(",", ":")),
        ])
    return buf.getvalue()


class _RunWriter:
    """Rewrites ``run_state.json`` and ``events.csv`` after each evaluation.

    The state only grows between writes, so the rendered events text is kept
    and each write decodes just the evaluations appended since the last one.
    """

    def __init__(self, out_dir: str, space: SearchSpace):
        self.out_dir = out_dir
        self.space = space
        self.events = ""
        self.n_events = 0
        os.makedirs(out_dir, exist_ok=True)

    def write(self, state: RunState) -> None:
        atomic_write(os.path.join(self.out_dir, "run_state.json"),
                     json.dumps(state.to_dict()))
        self.events += events_csv(state, self.space, self.n_events)
        self.n_events = len(state)
        atomic_write(os.path.join(self.out_dir, "events.csv"), self.events)


def load_run_state(out_dir: str) -> RunState:
    path = os.path.join(out_dir, "run_state.json")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise FileNotFoundError(f"no run state at {path}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"corrupt run state at {path}: {err}") from err
    return RunState.from_dict(doc)
