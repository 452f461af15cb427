"""Output checks that do not use the riglab code paths they check.

Each workload has an oracle step (the slow part) and compare steps (cheap)
that return a list of problems, each a (label, message) pair.  After the
real outputs are compared, each compare step is fed a perturbed copy of an
output (largest off by one, rho off by 1e-6, one pmf entry shifted, ...); a
compare step that accepts it is reported as vacuous, so no check passes by
checking nothing.  None of this runs inside the timed region.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from riglab import experiments, model
from riglab.degree import DegreePmf

SMALL_THRESHOLD_COEFF = 3.0  # the documented default of riglab's records
SECOND_LOG_COEFF = 3.0       # second-largest component <= 3 ln n
RHO_TOL = 1e-9
PMF_TOL = 1e-10
# false-rejection rate of one statistical check of a sweep mean
MEAN_CHECK_ALPHA = 1e-6


@dataclass
class Verdict:
    per_op: list[list[tuple[str, str]]]
    run: list[tuple[str, str]] = field(default_factory=list)  # not tied to one op
    vacuous: list[str] = field(default_factory=list)


def _guard(verdict: Verdict, name: str, problems: list) -> None:
    if not problems:
        verdict.vacuous.append(name)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def rho_brentq(beta: float, gamma: float) -> float:
    """Smallest root in [0, 1] of exp{beta gamma (e^{gamma(s-1)} - 1)} = s."""
    if beta * gamma * gamma <= 1.0:
        return 1.0  # g(s) > s on [0, 1) when g'(1) = mu <= 1, by convexity

    def h(s: float) -> float:
        return math.exp(beta * gamma * math.expm1(gamma * (s - 1.0))) - s

    t = 0.5
    while h(1.0 - t) >= 0.0:  # h < 0 between the root and 1
        t /= 2.0
        if t < 1e-14:
            raise ArithmeticError(f"no sign change below 1 for beta={beta}, gamma={gamma}")
    return brentq(h, 0.0, 1.0 - t, xtol=1e-16, rtol=4 * np.finfo(float).eps,
                  maxiter=500)


def bipartite_census(b, threshold: int) -> tuple[int, int, int]:
    """(largest, second, vertices in components of size <= threshold) from
    the components of the vertex-auxiliary incidence graph."""
    n, m = b.n, b.m
    aux = np.repeat(np.arange(m, dtype=np.int64), np.diff(b.offsets))
    adj = coo_matrix((np.ones(aux.size, dtype=np.int8), (b.members, n + aux)),
                     shape=(n + m, n + m))
    ncomp, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels[:n], minlength=ncomp)
    sizes = np.sort(sizes[sizes > 0])[::-1]  # auxiliary-only components hold no vertex
    second = int(sizes[1]) if sizes.size > 1 else 0
    return int(sizes[0]), second, int(sizes[sizes <= threshold].sum())


def pair_count(b) -> tuple[int, int]:
    """(vertex pairs counted once per shared auxiliary, distinct pairs), by
    listing every pair inside each auxiliary's list and sorting the keys."""
    deg = np.diff(b.offsets)
    e = b.members.size
    pos = np.arange(e) - np.repeat(b.offsets[:-1], deg)
    later = np.repeat(deg, deg) - pos - 1  # list members after this one
    left = np.repeat(np.arange(e), later)
    step = np.arange(left.size) - np.repeat(np.cumsum(later) - later, later) + 1
    right = left + step
    a, c = b.members[left], b.members[right]
    keys = np.minimum(a, c) * b.n + np.maximum(a, c)
    keys.sort()
    distinct = int(np.count_nonzero(np.diff(keys))) + 1 if keys.size else 0
    return int(keys.size), distinct


def degree_pmf_mixture(m: int, n: int, p: float) -> np.ndarray:
    """Sum_N Bin(m, p)(N) Bin(n-1, 1 - (1-p)^N)(k), for k = 0..n-1."""
    N = np.arange(m + 1)
    q = -np.expm1(N * math.log1p(-p))
    k = np.arange(n)
    return stats.binom.pmf(N, m, p) @ stats.binom.pmf(k[None, :], n - 1, q[:, None])


def cpoisson_panjer(lambda1: float, lambda2: float, kmax: int) -> np.ndarray:
    """Compound Poisson pmf with Poisson(lambda2) summands, Panjer recursion."""
    q = stats.poisson.pmf(np.arange(kmax + 1), lambda2)
    f = np.zeros(kmax + 1)
    f[0] = math.exp(-lambda1 * (1.0 - q[0]))
    j = np.arange(1, kmax + 1)
    for k in range(1, kmax + 1):
        f[k] = lambda1 / k * float(np.dot(j[:k] * q[1:k + 1], f[k - 1::-1]))
    return f


def convolution_tails(pmf: np.ndarray, k: int, upper_at: float,
                      lower_at: float) -> tuple[float, float]:
    """P(S >= upper_at) and P(S <= lower_at) for S a sum of k i.i.d. draws."""
    dist = np.ones(1)
    for _ in range(k):
        dist = np.convolve(dist, pmf)
    support = np.arange(dist.size)
    return (float(dist[support >= upper_at].sum()),
            float(dist[support <= lower_at].sum()))


# ---------------------------------------------------------------------------
# trial_giant
# ---------------------------------------------------------------------------

def trial_oracle(wl, op: int) -> dict:
    """Redraw the operation's bipartite graph from the same stream and
    recompute every observable the record holds."""
    seed_id, rng = wl.stream(op)
    b = model.sample_bipartite(wl.params, rng)
    n = b.n
    threshold = max(1, math.ceil(SMALL_THRESHOLD_COEFF * math.log(n)))
    largest, second, small = bipartite_census(b, threshold)
    pairs, distinct = pair_count(b)
    return {"n": n, "beta": wl.params.beta, "gamma": wl.params.gamma,
            "mu": wl.params.mu, "replicate": op, "seed": seed_id,
            "largest": largest, "second": second, "small_fraction": small / n,
            "eta": pairs - distinct, "degree_mean": 2.0 * distinct / n}


def compare_trial(rec, expected: dict, rho: float) -> list:
    problems = [(f, f"record {f}={getattr(rec, f)!r}, oracle {v!r}")
                for f, v in expected.items() if getattr(rec, f) != v]
    n = expected["n"]
    if abs(rec.largest / n - (1.0 - rho)) > 10.0 / math.sqrt(n):
        problems.append(("giant", f"largest/n={rec.largest / n} vs 1-rho={1 - rho}"))
    if rec.second > SECOND_LOG_COEFF * math.log(n):
        problems.append(("second", f"second={rec.second} > {SECOND_LOG_COEFF} ln n"))
    return problems


def check_trial_giant(wl, outputs: list) -> Verdict:
    rho = rho_brentq(wl.BETA, wl.GAMMA)
    oracles = [trial_oracle(wl, op) for op in range(len(outputs))]
    verdict = Verdict([compare_trial(rec, exp, rho) for rec, exp in zip(outputs, oracles)])
    rec, exp = outputs[0], oracles[0]
    _guard(verdict, "largest off by one",
           compare_trial(replace(rec, largest=rec.largest + 1), exp, rho))
    _guard(verdict, "eta off by one", compare_trial(replace(rec, eta=rec.eta + 1), exp, rho))
    _guard(verdict, "1 - rho far from largest/n", compare_trial(rec, exp, rho + 0.1))
    return verdict


# ---------------------------------------------------------------------------
# sweep_transition
# ---------------------------------------------------------------------------

def expected_means(n: int, beta: float, gamma: float) -> tuple[float, float]:
    """Exact E[degree_mean] and E[eta] at finite n, for grids where beta*n is
    a whole number of auxiliaries."""
    m, p = round(beta * n), gamma / n
    log_q = m * math.log1p(-p * p)               # log (1 - p^2)^m
    degree = (n - 1) * -math.expm1(log_q)
    pairs = n * (n - 1) / 2.0
    eta = pairs * (m * p * p + math.expm1(log_q))  # C(n,2)(m p^2 - 1 + (1-p^2)^m)
    return degree, eta


def compare_sweep_op(config, result, rows) -> list:
    problems = []
    if result.failures:
        problems.append(("failures", f"{len(result.failures)} failed trials"))
    want = [(gi, rep) for gi in range(len(config.grid)) for rep in range(config.replicates)]
    index = {point: gi for gi, point in enumerate(config.grid)}
    got = [(index.get((r.n, r.beta, r.gamma)), r.replicate) for r in result.records]
    if got != want:
        problems.append(("order", "records missing or out of canonical order"))
        return problems
    for (gi, rep), rec in zip(got, result.records):
        ss = np.random.SeedSequence((config.master_seed, gi, rep))
        if rec.seed != int(ss.generate_state(1, np.uint64)[0]):
            problems.append(("seed", f"grid {gi} replicate {rep}"))
    for row in rows:
        label = f"summary(beta={row.beta!r}, gamma={row.gamma!r})"
        if abs(row.rho - rho_brentq(row.beta, row.gamma)) > RHO_TOL:
            problems.append((label, f"rho={row.rho!r}"))
        rs = [r for r in result.records if (r.beta, r.gamma) == (row.beta, row.gamma)]
        largest = sum(r.largest / r.n for r in rs) / len(rs)
        if row.replicates != len(rs) or not math.isclose(row.largest_frac_mean, largest,
                                                         rel_tol=1e-12, abs_tol=1e-15):
            problems.append((label, "aggregates do not match the records"))
    return problems


def compare_sweep_means(grid, records) -> list:
    """Mean degree_mean and eta per grid point, pooled over the run, against
    their exact expectations, within a Student-t tolerance from the replicate
    SD.  eta is a small count whose replicates can all be 0, so its SD is
    floored at the Poisson value sqrt(E[eta])."""
    problems = []
    for n, beta, gamma in grid:
        rs = [r for r in records if (r.n, r.beta, r.gamma) == (n, beta, gamma)]
        k = len(rs)
        if k < 2:
            continue
        c = stats.t.isf(MEAN_CHECK_ALPHA / 2, k - 1)
        e_degree, e_eta = expected_means(n, beta, gamma)
        for name, values, expected, floor in (
                ("degree_mean", [r.degree_mean for r in rs], e_degree, 0.0),
                ("eta", [float(r.eta) for r in rs], e_eta, math.sqrt(e_eta))):
            sd = max(float(np.std(values, ddof=1)), floor)
            mean = float(np.mean(values))
            if abs(mean - expected) > c * sd / math.sqrt(k):
                problems.append((f"{name}(beta={beta!r}, gamma={gamma!r})",
                                 f"mean {mean} vs expected {expected} over {k} replicates"))
    return problems


def compare_bytes(parallel: bytes, serial: bytes) -> list:
    if parallel == serial:
        return []
    return [("determinism", "2-worker CSV differs from the 1-worker CSV")]


def check_sweep_transition(wl, outputs: list) -> Verdict:
    configs = [wl.config(op) for op in range(len(outputs))]
    verdict = Verdict([compare_sweep_op(cfg, res, rows)
                       for cfg, (res, rows) in zip(configs, outputs)])
    records = [r for res, _ in outputs for r in res.records]
    verdict.run += compare_sweep_means(wl.GRID, records)

    serial = wl.csv_path(0).read_bytes()
    parallel = io.StringIO()
    experiments.run_sweep(configs[0], workers=wl.PARALLEL_WORKERS, sink=parallel)
    parallel = parallel.getvalue().encode()
    verdict.run += compare_bytes(parallel, serial)

    res, rows = outputs[0]
    _guard(verdict, "summary rho off by 1e-6", compare_sweep_op(
        configs[0], res, [replace(rows[-1], rho=rows[-1].rho + 1e-6)]))
    _guard(verdict, "degree_mean 5% high", compare_sweep_means(
        wl.GRID, [replace(r, degree_mean=r.degree_mean * 1.05) for r in records]))
    _guard(verdict, "eta 3 high", compare_sweep_means(
        wl.GRID, [replace(r, eta=r.eta + 3) for r in records]))
    flipped = parallel[:-2] + bytes([parallel[-2] ^ 1]) + parallel[-1:]
    _guard(verdict, "one CSV byte changed", compare_bytes(flipped, serial))
    return verdict


# ---------------------------------------------------------------------------
# theory_ladder
# ---------------------------------------------------------------------------

def theory_oracle(wl) -> dict:
    p = wl.params
    rig = degree_pmf_mixture(p.m, p.n, p.p)
    upper, lower = convolution_tails(rig, wl.k, (1 + wl.delta) * p.mu * wl.k,
                                     (1 - wl.delta) * p.mu * wl.k)
    return {"rho": [rho_brentq(b, g) for b, g in wl.ladder],
            "upper": upper, "lower": lower,
            "cpoisson": cpoisson_panjer(wl.spec.lambda1, wl.spec.lambda2, wl.kmax),
            "rig": rig}


def compare_theory(wl, out: dict, oracle: dict) -> list:
    problems = []
    for (beta, gamma), got, want in zip(wl.ladder, out["rho"], oracle["rho"]):
        if abs(got - want) > RHO_TOL:
            problems.append((f"rho(beta={beta!r}, gamma={gamma!r})",
                             f"solve_extinction {got!r}, brentq {want!r}"))
    for name in ("upper", "lower"):
        if not out[name] >= oracle[name]:
            problems.append((f"chernoff_{name}",
                             f"bound {out[name]!r} < exact tail {oracle[name]!r}"))
    for name in ("cpoisson", "rig"):
        pmf, want = out[name], oracle[name]
        if pmf.probs.size != want.size:
            problems.append((f"{name}_pmf", f"{pmf.probs.size} entries, oracle {want.size}"))
            continue
        err = max(float(np.max(np.abs(pmf.probs - want))),
                  abs(pmf.tail - max(0.0, 1.0 - float(want.sum()))))
        if err > PMF_TOL:
            problems.append((f"{name}_pmf", f"max abs error {err!r}"))
    return problems


def _shift_mass(pmf):
    """The pmf with 1e-6 of mass moved from its mode to the next degree."""
    probs = pmf.probs.copy()
    k = int(np.argmax(probs))
    probs[k] -= 1e-6
    probs[k + 1] += 1e-6
    return DegreePmf(probs, pmf.tail)


def check_theory_ladder(wl, outputs: list) -> Verdict:
    oracle = theory_oracle(wl)
    verdict = Verdict([compare_theory(wl, out, oracle) for out in outputs])
    out = outputs[0]
    far = len(wl.ladder) - 1  # the drawn supercritical point, far from mu = 1
    rho = list(out["rho"])
    rho[far] += 1e-6
    _guard(verdict, "rho off by 1e-6", compare_theory(wl, {**out, "rho": rho}, oracle))
    for name in ("cpoisson", "rig"):
        _guard(verdict, f"{name} pmf entry shifted",
               compare_theory(wl, {**out, name: _shift_mass(out[name])}, oracle))
    for name in ("upper", "lower"):
        _guard(verdict, f"chernoff_{name} below the tail",
               compare_theory(wl, {**out, name: oracle[name] / 2}, oracle))
    return verdict


CHECKS = {"trial_giant": check_trial_giant, "sweep_transition": check_sweep_transition,
          "theory_ladder": check_theory_ladder}
