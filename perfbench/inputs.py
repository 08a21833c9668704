"""Seeded inputs and reference answers for every benchmark workload.

Usage: ``python perfbench/inputs.py <workload> <seed> <directory>``

``generate(workload, seed, directory)`` writes everything a worker needs into
``directory``: ``inputs.pkl`` (the round of op slots, each with a small pool
of instances and their references) and, for ``cli_small``, the JSON files
the CLI reads plus ``warmup.json``, the arguments of the untimed warm-up
call.  The same seed always gives the same files.

References are computed here, in a process of their own, before any timing:
``scipy.optimize.linprog`` for float LPs, exact rational closed forms for
exact LPs, a type-class formula for yield curves, a chunked tally for the
simulator, eigenvalues of A A^H for SVD spectra, and the public library
functions for CLI output.  The worker never imports scipy.

A workload is a fixed list of slots that the worker runs in order, round
after round; the seed changes the numbers in each instance, never the mix of
sizes, so that run-to-run spread reflects the machine and not the draw.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

POOL = 2  # instances per slot unless POOL_SIZES says otherwise


def _interleaved(*groups):
    """One round holding every slot of ``groups``, each group spread evenly
    over it, so that every kind of op sees the same machine conditions."""
    keyed = [((i + 0.5) / len(g), k, slot) for k, g in enumerate(groups) for i, slot in enumerate(g)]
    return [slot for _, _, slot in sorted(keyed, key=lambda t: t[:2])]

# (kind, params) per slot, in run order.
WORKLOADS = {
    "cli_small": [
        ("cli", {"cmd": "decompose_spectrum"}),
        ("cli", {"cmd": "decompose_amplitudes_bits"}),
        ("cli", {"cmd": "feasible_target"}),
        ("cli", {"cmd": "infeasible_target"}),
        ("cli", {"cmd": "feasible_ensemble"}),
        ("cli", {"cmd": "infeasible_ensemble"}),
        ("cli", {"cmd": "build_povm"}),
        ("cli", {"cmd": "concentrate_ln"}),
        ("cli", {"cmd": "concentrate_indicator"}),
        ("cli", {"cmd": "concentrate_certify_asymptotic_bits"}),
        ("cli", {"cmd": "concentrate_log2_csv"}),
        ("cli", {"cmd": "lp_solve"}),
        ("cli", {"cmd": "simulate"}),
    ],
    # Every in-process layer in one round.  The exact LPs are small and the
    # most numerous ops, so the median op is one of them.  The three largest
    # float LPs (log2 weights at n=104-112) are the costliest ops of a round,
    # so that with the four or more rounds of a run the tail (the eleventh
    # largest op) always falls among them.  The two-million-trial
    # simulation sets the peak memory.  Slot sizes are graded, so that op
    # costs form a spread-out ladder with no large group of equal-cost ops
    # at the median or at the tail: when the machine slows for a while, the
    # median then moves in proportion instead of jumping.
    "library": _interleaved(
        [
            ("curve", {"rank": 2, "max_n": 16}),
            ("simulate", {"rank": 64, "trials": 1_000_000}),
            ("curve", {"rank": 3, "max_n": 10}),
            ("svd", {"dim": 384}),
            ("curve", {"rank": 2, "max_n": 15}),
            ("spectrum_plan", {"rank": 100_000}),
            ("curve", {"rank": 3, "max_n": 9}),
            ("simulate", {"rank": 64, "trials": 2_000_000}),
            ("curve", {"rank": 2, "max_n": 14}),
            ("svd", {"dim": 512}),
            ("monotones", {"rank": 100_000}),
            ("curve", {"rank": 3, "max_n": 10}),
            ("ensemble", {"targets": 40, "rank": 300}),
        ],
        [
            ("lp_float", {"n": n, "weights": w})
            for n, w in [
                (32, "random"), (112, "log2"), (48, "log2"), (128, "random"),
                (64, "log2"), (104, "log2"), (96, "random"), (108, "log2"),
            ]
        ],
        [("lp_exact", {"n": n}) for n in (8, 16, 10, 18, 12, 20, 14, 22, 24) * 3],
    ),
}

# Instances per slot, by kind; rounds cycle through them.  The large
# spectra keep to POOL, as their inputs are what the worker holds most of.
POOL_SIZES = {"cli": 3, "lp_float": 3, "lp_exact": 4}


def generate(workload: str, seed: int, directory: str) -> None:
    """Write the inputs and references of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    ctx = {"dir": directory, "rng": rng, "files": 0}
    slots = []
    for kind, params in WORKLOADS[workload]:
        make = _GENERATORS[kind]
        slots.append(
            {
                "kind": kind,
                "params": params,
                "pool": [make(ctx, params) for _ in range(POOL_SIZES.get(kind, POOL))],
            }
        )
    doc = {"workload": workload, "seed": seed, "slots": slots}
    with open(os.path.join(directory, "inputs.pkl"), "wb") as fh:
        pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
    if workload == "cli_small":
        warm_argv = ["decompose", "--state", _write(ctx, {"spectrum": [0.5, 0.3, 0.2]})]
        with open(os.path.join(directory, "warmup.json"), "w", encoding="utf-8") as fh:
            json.dump(warm_argv, fh)


# ----------------------------------------------------------------- helpers


def _normalized(raw):
    """Sorted nonincreasing and divided by the exactly rounded sum."""
    values = sorted((float(v) for v in raw), reverse=True)
    total = math.fsum(values)
    return [v / total for v in values]


def _tails(coeffs):
    """Tail sums by a compensated (Neumaier) backward running sum."""
    out = [0.0] * len(coeffs)
    total = comp = 0.0
    for i in range(len(coeffs) - 1, -1, -1):
        x = coeffs[i]
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        out[i] = total + comp
    return out


def _closed_form(coeffs):
    """Optimal concentration probabilities j (a_j - a_{j+1})."""
    n = len(coeffs)
    return [j * (coeffs[j - 1] - (coeffs[j] if j < n else 0)) for j in range(1, n + 1)]


def _positive(rng, n, low=0.05):
    return [low + rng.random() for _ in range(n)]


def _move_tail_mass(coeffs, share=0.5):
    """Move part of the smallest coefficient onto the largest.

    The result majorizes the input with every tail sum from index 2 on
    lower by the moved mass, so the input converts to it deterministically
    and the reverse conversion fails at every index from 2 on.
    """
    out = list(coeffs)
    delta = out[-1] * share
    out[-1] -= delta
    out[0] += delta
    return out


# ------------------------------------------------------------- lp_float


def _gen_lp_float(ctx, params):
    import numpy as np
    from scipy.optimize import linprog

    rng, n = ctx["rng"], params["n"]
    coeffs = _positive(rng, n)
    if params["weights"] == "log2":
        weights = tuple(math.log2(j) for j in range(1, n + 1))
    else:
        weights = tuple(rng.random() for _ in range(n))
    a = _normalized(coeffs)
    matrix = [
        [(j + 1 - l) / j if j >= l else 0.0 for j in range(1, n + 1)]
        for l in range(1, n + 1)
    ]
    bounds = _tails(a)
    # HiGHS stops at 1e-7 feasibility by default, which can leave the
    # objective 1e-8 short of the optimum; tighten it for a reference.
    res = linprog(
        [-w for w in weights],
        A_ub=matrix,
        b_ub=bounds,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return {
        "coeffs": coeffs,
        "weights": weights,
        "matrix": np.array(matrix),
        "bounds": np.array(bounds),
        "ref_objective": -float(res.fun),
    }


# ------------------------------------------------------------- lp_exact


def _gen_lp_exact(ctx, params):
    rng, n = ctx["rng"], params["n"]
    raw = [Fraction(rng.randint(1, 1000)) for _ in range(n)]
    total = sum(raw)
    a = sorted((v / total for v in raw), reverse=True)
    return {"coeffs": raw, "ref_plan": tuple(_closed_form(a))}


# ----------------------------------------------- large spectra and curves


def _multinomial(n, counts):
    result, remaining = 1, n
    for c in counts:
        result *= math.comb(remaining, c)
        remaining -= c
    return result


def yield_curve_reference(coeffs, max_n):
    """Per-copy optimal yield on type classes, without expanding rank**n.

    For n copies the spectrum holds, for each multiset of input indices, one
    product value v with multiplicity J (a multinomial).  Sorting the
    classes by value and accumulating J_g gives the expected yield of the
    closed-form plan as sum_g J_g (v_g - v_{g+1}) ln J_g.
    """
    curve = []
    k = len(coeffs)
    for n in range(1, max_n + 1):
        classes = []
        for combo in combinations_with_replacement(range(k), n):
            exps = Counter(combo)
            value = math.prod(coeffs[i] ** e for i, e in exps.items())
            classes.append((value, _multinomial(n, exps.values())))
        classes.sort(key=lambda vc: -vc[0])
        total, cumulative = 0.0, 0
        for g, (value, count) in enumerate(classes):
            cumulative += count
            nxt = classes[g + 1][0] if g + 1 < len(classes) else 0.0
            total += cumulative * (value - nxt) * math.log(cumulative)
        curve.append((n, total / n))
    return tuple(curve)


def _gen_curve(ctx, params):
    rng, rank = ctx["rng"], params["rank"]
    while True:
        coeffs = _positive(rng, rank, low=0.1)
        a = _normalized(coeffs)
        if len(set(a)) == rank:  # distinct values, so every class is its own
            break
    return {
        "coeffs": coeffs,
        "max_n": params["max_n"],
        "ref_curve": yield_curve_reference(a, params["max_n"]),
        # distinct product values (type classes) over the curve's points
        "distinct": sum(math.comb(rank + n - 1, n) for n in range(1, params["max_n"] + 1)),
    }


def _gen_simulate(ctx, params):
    import numpy as np
    from entmanip.sim import counter_uniforms

    rng, rank, trials = ctx["rng"], params["rank"], params["trials"]
    coeffs = _positive(rng, rank)
    probs = _closed_form(_normalized(coeffs))
    sim_seed = rng.getrandbits(63)
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    counts = np.zeros(rank, dtype=np.int64)
    chunk = 1 << 18
    for start in range(0, trials, chunk):
        u = counter_uniforms(sim_seed, start, min(chunk, trials - start))
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), rank - 1)
        counts += np.bincount(idx, minlength=rank)
    mean_yield = math.fsum(
        int(c) * math.log(j) for j, c in enumerate(counts, start=1)
    ) / trials
    return {
        "coeffs": coeffs,
        "trials": trials,
        "sim_seed": sim_seed,
        "ref_counts": tuple(int(c) for c in counts),
        "ref_probs": tuple(probs),
        "ref_mean_yield": mean_yield,
    }


def _gen_svd(ctx, params):
    import numpy as np

    dim = params["dim"]
    gen = np.random.default_rng(ctx["rng"].getrandbits(63))
    m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    m /= np.sqrt(np.sum(np.abs(m) ** 2))
    eig = np.linalg.eigvalsh(m @ m.conj().T)[::-1]
    return {"matrix": m, "ref_spectrum": eig / eig.sum()}


def _gen_spectrum_plan(ctx, params):
    import numpy as np

    rng = ctx["rng"]
    coeffs = _positive(rng, params["rank"])
    p = _closed_form(_normalized(coeffs))
    return {
        "coeffs": coeffs,
        "ref_p": np.array(p),
        "ref_expected": math.fsum(pj * math.log(j) for j, pj in enumerate(p, start=1)),
    }


def _gen_monotones(ctx, params):
    # Alternate a feasible pair and its infeasible reverse.  The spectra are
    # stored as arrays, which take a quarter of the worker's memory that
    # lists of floats would.
    import numpy as np

    rng = ctx["rng"]
    ctx["monotones"] = ctx.get("monotones", 0) + 1
    flat = _normalized(_positive(rng, params["rank"], low=0.5))
    peaked = _move_tail_mass(flat)
    source, target = (flat, peaked) if ctx["monotones"] % 2 else (peaked, flat)
    s_tails, t_tails = _tails(source), _tails(target)
    violated = tuple(l for l, (s, t) in enumerate(zip(s_tails, t_tails), start=1) if s - t < -1e-9)
    pmax = min(1.0, min(s / t for s, t in zip(s_tails, t_tails)))
    return {
        "source": np.array(source),
        "target": np.array(target),
        "ref_feasible": not violated,
        "ref_violated": violated,
        "ref_pmax": pmax,
    }


def _gen_ensemble(ctx, params):
    # A uniform source is majorized by every target, so the ensemble is
    # feasible; each distinct target appears twice, so half merge away.
    rng, rank, size = ctx["rng"], params["rank"], params["targets"]
    distinct = [_normalized([rng.random() ** 3 + 1e-3 for _ in range(rank)]) for _ in range(size // 2)]
    order = [i for i in range(size // 2) for _ in range(2)]
    rng.shuffle(order)
    weights = [rng.random() + 0.1 for _ in order]
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    groups = {}
    for pos, i in enumerate(order, start=1):
        groups.setdefault(i, []).append(pos)
    merged_probs = {i: math.fsum(probs[p - 1] for p in members) for i, members in groups.items()}
    avg = [math.fsum(p * distinct[i][k] for p, i in zip(probs, order)) for k in range(rank)]
    return {
        "source": [1.0] * rank,
        "targets": distinct,
        "order": order,
        "probs": probs,
        # groups in order of first appearance, as merge_duplicates lists them
        "ref_groups": [groups[i] for i in dict.fromkeys(order)],
        "ref_merged_probs": [merged_probs[i] for i in dict.fromkeys(order)],
        "ref_average": avg,
    }


# ------------------------------------------------------------ cli_small


def _write(ctx, doc):
    ctx["files"] += 1
    path = os.path.join(ctx["dir"], f"in{ctx['files']:04d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _in_units(nats, units):
    return nats / math.log(2.0) if units == "bits" else nats


def _lp_plan(lib, s, weights):
    """The CLI's documented plan for non-ln weights, from library calls."""
    sol = lib.simplex_solve(lib.concentration_lp(s, weights))
    probs = [max(0.0, float(v)) for v in sol.values]
    probs[0] += max(0.0, 1.0 - math.fsum(probs))
    return probs, float(sol.objective_value)


def _report_doc(report):
    return {
        "feasible": report.feasible,
        "violated_indices": list(report.violated_indices),
        "slack": [float(v) for v in report.slack],
    }


def _gen_cli(ctx, params):
    import numpy as np

    import entmanip as lib

    rng, cmd = ctx["rng"], params["cmd"]
    rank = rng.randint(2, 16)
    raw = _positive(rng, rank)
    s = lib.make_spectrum(raw)
    exit_code, fmt = 0, "json"

    if cmd == "decompose_spectrum":
        argv = ["decompose", "--state", _write(ctx, {"spectrum": raw})]
        ref = {"spectrum": list(s.coeffs), "entropy": lib.entropy(s), "units": "nats"}
    elif cmd == "decompose_amplitudes_bits":
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)] for _ in range(rows)])
        m /= math.sqrt(float(np.sum(np.abs(m) ** 2)))
        doc = {"amplitudes": [[{"re": z.real, "im": z.imag} for z in row] for row in m.tolist()]}
        argv = ["decompose", "--state", _write(ctx, doc), "--units", "bits"]
        t = lib.schmidt_decompose(m)
        ref = {"spectrum": list(t.coeffs), "entropy": _in_units(lib.entropy(t), "bits"), "units": "bits"}
    elif cmd in ("feasible_target", "infeasible_target"):
        a = list(s.coeffs)
        source, target = (a, _move_tail_mass(a)) if cmd == "feasible_target" else (_move_tail_mass(a), a)
        argv = ["check-feasible", "--source", _write(ctx, {"spectrum": source}),
                "--target", _write(ctx, {"spectrum": target})]
        report = lib.nielsen_feasible(lib.make_spectrum(source), lib.make_spectrum(target))
        ref = _report_doc(report)
        exit_code = 0 if cmd == "feasible_target" else 3
    elif cmd in ("feasible_ensemble", "infeasible_ensemble", "build_povm"):
        a = list(s.coeffs)
        near = _move_tail_mass(a, 0.25)
        far = _move_tail_mass(a, 0.5)
        if cmd == "infeasible_ensemble":
            source, members = far, [a, near]
        elif cmd == "feasible_ensemble":
            source, members = a, [near, far]
        else:
            source, members = a, [near, far, near]  # a duplicate to merge
        weights = [rng.random() + 0.1 for _ in members]
        probs = [w / math.fsum(weights) for w in weights]
        ens_doc = {"ensemble": [{"probability": p, "spectrum": t} for p, t in zip(probs, members)]}
        sub = "build-povm" if cmd == "build_povm" else "check-feasible"
        argv = [sub, "--source", _write(ctx, {"spectrum": source}), "--ensemble", _write(ctx, ens_doc)]
        ensemble = lib.make_ensemble([(p, lib.make_spectrum(t)) for p, t in zip(probs, members)])
        report = lib.ensemble_feasible(lib.make_spectrum(source), ensemble)
        if cmd == "build_povm":
            merged, die = lib.merge_duplicates(ensemble)
            povm = lib.build_ensemble_povm(merged)
            ref = {
                "support_rank": povm.support_rank,
                "elements": [{"label": el.label, "diag": list(el.diag)} for el in povm.elements],
                "die": [
                    {"representative": g.representative,
                     "members": [{"outcome": j, "probability": r} for j, r in g.members]}
                    for g in die.groups
                ],
            }
        else:
            ref = _report_doc(report)
            exit_code = 0 if cmd == "feasible_ensemble" else 3
        if report.feasible != (cmd != "infeasible_ensemble"):
            raise RuntimeError("generated ensemble has the wrong feasibility")
    elif cmd == "concentrate_ln":
        argv = ["concentrate", "--state", _write(ctx, {"spectrum": raw})]
        plan = lib.optimal_plan(s)
        ref = {"plan": {"p": [float(p) for p in plan.probabilities], "expected_nats": plan.expected_entanglement}}
    elif cmd == "concentrate_indicator":
        argv = ["concentrate", "--state", _write(ctx, {"spectrum": raw}), "--weights", "indicator"]
        probs, objective = _lp_plan(lib, s, lib.standard_weights("indicator", rank))
        expected = math.fsum(p * math.log(j) for j, p in enumerate(probs, start=1))
        ref = {"plan": {"p": probs, "expected_nats": expected, "objective": objective}}
    elif cmd == "concentrate_certify_asymptotic_bits":
        rank = rng.randint(2, 6)
        raw = _positive(rng, rank)
        s = lib.make_spectrum(raw)
        argv = ["concentrate", "--state", _write(ctx, {"spectrum": raw}), "--certify",
                "--asymptotic", "4", "--units", "bits"]
        plan = lib.optimal_plan(s)
        cert = lib.optimality_certificate(rank)
        ref = {
            "plan": {"p": [float(p) for p in plan.probabilities],
                     "expected_bits": _in_units(plan.expected_entanglement, "bits")},
            "certificate": {"z": list(cert.z_values), "passed": cert.passed},
            "curve": [[n, _in_units(y, "bits")] for n, y in lib.asymptotic_yield_curve(s, 4)],
        }
    elif cmd == "concentrate_log2_csv":
        argv = ["concentrate", "--state", _write(ctx, {"spectrum": raw}), "--weights", "log2",
                "--format", "csv"]
        probs, _ = _lp_plan(lib, s, lib.standard_weights("log2", rank))
        ref = {"p": probs}
        fmt = "csv"
    elif cmd == "lp_solve":
        n, m = rank, rng.randint(2, 16)
        objective = [rng.random() for _ in range(n)]
        matrix = [[rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)] for _ in range(m)]
        for j in range(n):  # every column bounded by some row
            matrix[rng.randrange(m)][j] = 0.1 + rng.random()
        bounds = [0.5 + rng.random() for _ in range(m)]
        argv = ["lp-solve", _write(ctx, {"objective": objective, "matrix": matrix, "bounds": bounds})]
        sol = lib.simplex_solve(lib.LpProblem(tuple(objective), tuple(map(tuple, matrix)), tuple(bounds)))
        ref = {
            "status": sol.status,
            "values": [float(v) for v in sol.values],
            "objective": float(sol.objective_value),
            "basis": list(sol.basis),
            "reduced_costs": [float(r) for r in sol.reduced_costs],
        }
    elif cmd == "simulate":
        seed = rng.randrange(1 << 31)
        argv = ["simulate", "--state", _write(ctx, {"spectrum": raw}), "--trials", "10000",
                "--seed", str(seed)]
        rep = lib.simulate(lib.single_shot_povm(s), s, trials=10000, seed=seed)
        ref = {
            "trials": rep.trials,
            "seed": rep.seed,
            "labels": list(rep.labels),
            "counts": list(rep.counts),
            "empirical_probs": list(rep.empirical_probs),
            "expected_probs": list(rep.expected_probs),
            "mean_yield_nats": rep.mean_yield,
            "max_abs_deviation": rep.max_abs_deviation,
        }
    else:
        raise ValueError(f"unknown CLI slot {cmd!r}")
    return {"argv": argv, "exit": exit_code, "format": fmt, "ref": ref}


_GENERATORS = {
    "cli": _gen_cli,
    "lp_float": _gen_lp_float,
    "lp_exact": _gen_lp_exact,
    "curve": _gen_curve,
    "simulate": _gen_simulate,
    "svd": _gen_svd,
    "spectrum_plan": _gen_spectrum_plan,
    "monotones": _gen_monotones,
    "ensemble": _gen_ensemble,
}


if __name__ == "__main__":
    import sys

    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
